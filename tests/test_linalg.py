import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from pbwforge.linalg import (
    _LAST,
    BasisCoordinates,
    Matrix,
    SparseEchelon,
    Subspace,
    _eliminate_pivots,
    inverse,
    kernel,
    rank,
    reduce_rows,
    residual,
    rref,
    rref_rows,
    solve_affine,
    vector,
)
from pbwforge.rationals import ONE, ZERO, rational, times
from pbwforge.sampling import random_metric
from pbwforge.tensors import words
from pbwforge.yang_mills import build_ym


def _sparse(v):
    return {j: x for j, x in enumerate(v) if x}

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=20
).map(rational)


def small_matrix(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    ).map(Matrix.from_rows)


def test_rref_rank_one_collapse():
    m = Matrix.from_rows([[2, 4], [1, 2]])
    assert rref(m) == Matrix.from_rows([[1, 2]])


def test_rref_identity_fixed():
    m = Matrix.identity(3)
    assert rref(m) == m


def test_rref_exact_fractions():
    m = Matrix.from_rows([["1/2", "1/3"], ["1/4", "1/6"]])
    assert rref(m) == Matrix.from_rows([[1, "2/3"]])


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rref_idempotent(m):
    assert rref(rref(m)) == rref(m)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rank_transpose(m):
    assert rank(m) == rank(Matrix(tuple(zip(*m.data))))


def test_kernel_zero_matrix():
    assert kernel(Matrix.from_rows([[0] * 3] * 2)).dim == 3


def test_kernel_identity():
    assert kernel(Matrix.identity(4)).dim == 0


def test_kernel_hand_solve():
    k = kernel(Matrix.from_rows([[1, 1, 0]]))
    assert k.dim == 2
    assert k.contains(vector([1, -1, 0]))
    assert k.contains(vector([0, 0, 1]))
    assert not k.contains(vector([1, 0, 0]))


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_kernel_annihilates(m):
    k = kernel(m)
    assert k.dim == m.cols - rank(m)
    for row in k.basis:
        assert all(x == 0 for x in reference.mat_vec(m, row))


def test_subspace_canonical_equality():
    a = Subspace.from_spanning([[1, 2], [3, 6]], 2)
    b = Subspace.from_spanning([[2, 4]], 2)
    assert a == b
    assert a.dim == 1


def test_intersect_idempotent():
    a = Subspace.from_spanning([[1, 0, 1], [0, 1, 0]], 3)
    assert a.intersect(a) == a


def test_intersect_complementary_lines():
    a = Subspace.from_spanning([[1, 0]], 2)
    b = Subspace.from_spanning([[0, 1]], 2)
    assert a.intersect(b).dim == 0


def test_intersect_generic_planes():
    a = Subspace.from_spanning([[1, 0, 0], [0, 1, 0]], 3)
    b = Subspace.from_spanning([[0, 1, 1], [1, 0, 1]], 3)
    meet = a.intersect(b)
    assert meet.dim == a.dim + b.dim - (a + b).dim
    assert meet.dim == 1


def test_sum_with_zero():
    x = Subspace.from_spanning([[1, 1, 0]], 3)
    assert x + Subspace.zero(3) == x


def test_contains_basics():
    line = Subspace.from_spanning([[1, 2]], 2)
    assert line.contains(vector([0, 0]))
    assert line.contains(vector([2, 4]))
    assert not line.contains(vector([1, 0]))


def _random_subspace(rng, ambient, count):
    rows = [
        [rational(rng.randint(-20, 20)) / rational(rng.randint(1, 20)) for _ in range(ambient)]
        for _ in range(count)
    ]
    return Subspace.from_spanning(rows, ambient)


@pytest.mark.parametrize("seed", range(8))
def test_grassmann_identity(seed):
    rng = random.Random(seed)
    ambient = rng.randint(2, 6)
    a = _random_subspace(rng, ambient, rng.randint(0, ambient))
    b = _random_subspace(rng, ambient, rng.randint(0, ambient))
    assert a.dim + b.dim == a.intersect(b).dim + (a + b).dim


def _rows(m):
    return [list(row) for row in m]


def _zassenhaus(a, b):
    """Reference intersection: RREF of [a | a ; b | 0], right halves of
    the rows whose left half vanished."""
    n = a.ambient_dim
    block = [list(r) + list(r) for r in a.basis] + [list(r) + [ZERO] * n for r in b.basis]
    reduced, _ = reference.rref(block)
    return reference.rref([r[n:] for r in reduced if not any(r[:n])])[0]


@pytest.mark.parametrize("seed", range(10))
def test_intersect_matches_zassenhaus(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(2, 7)
    k = rng.randint(1, n - 1)
    a = _random_subspace(rng, n, k)
    bigger = a + _random_subspace(rng, n, rng.randint(1, n - k))
    # n - k random vectors meet a k-dimensional subspace in zero
    disjoint = _random_subspace(rng, n, n - k)
    generic = _random_subspace(rng, n, rng.randint(0, n))
    zero, full = Subspace.zero(n), Subspace.full(n)
    assert a.intersect(bigger) == a == bigger.intersect(a)
    assert a.intersect(disjoint) == zero == disjoint.intersect(a)
    for x, y in [(a, zero), (a, full), (a, a), (full, full), (a, bigger), (a, disjoint), (a, generic)]:
        for p, q in ((x, y), (y, x)):
            meet = p.intersect(q)
            assert _rows(meet.basis) == _zassenhaus(p, q)
            assert all(p.contains(v) and q.contains(v) for v in meet.basis)


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.data())
def test_solve_affine_homogeneous_is_kernel(m, data):
    x = vector(data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols)))
    sol = solve_affine(m, reference.mat_vec(m, x))
    assert sol.homogeneous == kernel(m)


@pytest.mark.parametrize("seed", range(6))
def test_basis_coordinates_round_trip(seed):
    rng = random.Random(400 + seed)
    n = rng.randint(2, 7)
    k = rng.randint(1, n)
    while True:
        basis = [[rational(rng.randint(-9, 9)) / rational(rng.randint(1, 5)) for _ in range(n)] for _ in range(k)]
        if Subspace.from_spanning(basis, n).dim == k:
            break
    coords = BasisCoordinates([_sparse(b) for b in basis])
    c = [rational(rng.randint(-9, 9)) / rational(rng.randint(1, 5)) for _ in range(k)]
    v = [sum((ci * b[j] for ci, b in zip(c, basis)), ZERO) for j in range(n)]
    assert coords.coordinates(_sparse(v)) == tuple(c)
    if k < n:
        span = Subspace.from_spanning(basis, n)
        outside = next(e for e in Matrix.identity(n) if not span.contains(e))
        assert coords.coordinates(_sparse(outside)) is None


@pytest.mark.parametrize("seed", range(8))
def test_reduce_rows_is_the_reference_residual(seed):
    # the canonical residual under int keys, and under tuple keys that
    # order the columns differently, against textbook Gauss-Jordan on
    # dense rows with the columns in the same order
    rng = random.Random(700 + seed)
    n = rng.randint(1, 8)

    def entry():
        return rng.choice([0, 0, rational(rng.randint(-9, 9)) / rng.randint(1, 4)])

    rows = [[entry() for _ in range(n)] for _ in range(rng.randint(1, 6))]
    order = sorted(range(n), key=lambda j: (j % 3, j))  # column order of the tuple keys
    for columns, key in ((list(range(n)), lambda j: j), (order, lambda j: (j % 3, j))):
        dense = [[row[j] for j in columns] for row in rows]
        reduced, pivots = reference.rref(dense)
        echelon = rref_rows({key(j): x for j, x in enumerate(row) if x} for row in rows)
        for _ in range(4):
            v = [entry() for _ in range(n)]
            want = reference.residual(reduced, pivots, [v[j] for j in columns])
            got = reduce_rows(echelon, {key(j): x for j, x in enumerate(v) if x})
            assert got == {key(j): x for j, x in zip(columns, want) if x}


@pytest.mark.parametrize("seed", range(12))
def test_residual_is_the_reference_residual(seed):
    # the exact residual of vec / den (head-reduced rows, every pivot
    # eliminated fraction-free, one division by the tracked scale) against
    # textbook Gauss-Jordan, under int keys and under the (degree, word)
    # keys of F^3 over two letters, with the columns in the key order
    rng = random.Random(900 + seed)
    n = rng.randint(1, 9)

    def entry():
        return rng.choice([0, 0, rational(rng.randint(-9, 9)) / rng.randint(1, 4)])

    rows = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 6))]
    for row in rows[:2]:
        lead = next((x for x in row if x), 0)
        if lead > 0:  # negative leads
            row[:] = [-x for x in row]
    filtered = sorted((len(w), w) for d in range(4) for w in words(2, d))
    for keys in (list(range(n)), sorted(rng.sample(filtered, n))):
        vectors = [{keys[j]: x for j, x in enumerate(row) if x} for row in rows]
        if rng.random() < 0.5:  # integer rows with a common factor, as the conservation law passes
            dens = [lcm(*(x.denominator for x in v.values())) for v in vectors]
            vectors = [{k: times(x, den) * 3 for k, x in v.items()} for v, den in zip(vectors, dens)]
        reduced, pivots = reference.rref(rows)
        tests = [[ZERO] * n, [entry() for _ in range(n)], [entry() for _ in range(n)]]
        for _ in range(2):  # inside the span
            c = [entry() for _ in rows]
            tests.append([sum((ci * row[j] for ci, row in zip(c, rows)), ZERO) for j in range(n)])
        for i, v in enumerate(tests):
            want = {keys[j]: x for j, x in enumerate(reference.residual(reduced, pivots, v)) if x}
            den = lcm(*(x.denominator for x in v if x)) * rng.randint(1, 3)
            got = residual(vectors, {keys[j]: times(x, den) for j, x in enumerate(v)}, den)
            assert got == want
            assert all(type(x) is type(ONE) for x in got.values())
            if i == 0 or i >= 3:  # the zero vector and the vectors inside the span
                assert got == {}


def _check_integer_coordinates(basis, keys, rng):
    """BasisCoordinates on the sparse ``basis`` (dicts over ``keys``, in
    order) against the reference solve of sum c_k b_k = v on dense rows:
    vectors inside the span, the zero vector, each with explicit zero
    entries, and vectors one entry off the span, at a pivot and off one.
    The integer path's rest is empty exactly inside the span, has no pivot
    key, is linear, and is the reference residual times its scale."""
    frame = BasisCoordinates(basis)
    columns = [[b.get(key, 0) for b in basis] for key in keys]
    reduced, pivots = reference.rref([[b.get(key, 0) for key in keys] for b in basis])
    inside = [{}]
    for _ in range(3):
        c = [rational(rng.randint(-9, 9)) / rng.randint(1, 4) for _ in basis]
        inside.append({key: sum((ck * b.get(key, 0) for ck, b in zip(c, basis)), ZERO) for key in keys})
    off_pivot = [j for j in range(len(keys)) if j not in pivots]
    tests = []
    for v in inside:
        tests.append(v | {rng.choice([key for key in keys if not v.get(key)]): ZERO})  # an explicit zero
        for j in (rng.choice(pivots), rng.choice(off_pivot) if off_pivot else None):
            if j is not None:
                tests.append(v | {keys[j]: v.get(keys[j], ZERO) + rational(rng.randint(1, 5)) / 3})
    outside = 0
    cleared = []
    for v in tests:
        want = reference.solve_affine(columns, [v.get(key, 0) for key in keys], len(basis))
        outside += want is None
        got = frame.coordinates(v)
        assert got == (None if want is None else tuple(want[0]))
        # the integer path, with the vector cleared the way rationals.times clears it
        den = lcm(*(int(x.denominator) for x in v.values() if x)) * rng.randint(1, 3)
        ints = {k: int(x.numerator) * (den // int(x.denominator)) for k, x in v.items()}
        cleared.append(ints)
        c, rest = frame.integer_coordinates(ints)
        assert (not rest) == (want is not None)
        assert not set(rest) & {keys[j] for j in pivots}
        assert all(type(x) is int and x for x in rest.values())
        scale = frame.lcm * frame.den * den
        residual = reference.residual(reduced, pivots, [v.get(key, 0) for key in keys])
        assert rest == {key: scale * x for key, x in zip(keys, residual) if x}
        if want is not None:
            assert all(type(x) is int for x in c)
            assert [Fraction(x, frame.den * den) for x in c] == want[0]
    for u, v in zip(cleared, cleared[1:] + cleared[:1]):
        rest_u, rest_v = frame.integer_coordinates(u)[1], frame.integer_coordinates(v)[1]
        total = {k: u.get(k, 0) + v.get(k, 0) for k in u.keys() | v.keys()}
        both = {k: rest_u.get(k, 0) + rest_v.get(k, 0) for k in rest_u.keys() | rest_v.keys()}
        assert frame.integer_coordinates(total)[1] == {k: x for k, x in both.items() if x}
    return outside


@pytest.mark.parametrize("seed", range(10))
def test_integer_basis_coordinates_match_the_reference_solve(seed):
    rng = random.Random(1100 + seed)
    n = rng.randint(2, 9)
    k = rng.randint(1, n)
    while True:
        basis = [
            {j: rational(rng.randint(-9, 9)) / rng.randint(1, 5) for j in rng.sample(range(n), rng.randint(1, n))}
            for _ in range(k)
        ]
        basis = [{j: x for j, x in b.items() if x} for b in basis]
        if all(basis) and rank(Matrix.from_rows([[b.get(j, 0) for j in range(n)] for b in basis])) == k:
            break
    # key n is in no basis vector
    assert _check_integer_coordinates(basis, list(range(n + 1)), rng) >= 4


@pytest.mark.parametrize("s", [1, 2, 3])
def test_integer_relation_coordinates_match_the_reference_solve(s):
    # R of Yang-Mills over a random metric, keyed by words
    rng = random.Random(1200 + s)
    a = build_ym(s, random_metric(rng, s + 1))
    basis = [r.terms for r in a.relation_basis]
    keys = sorted({w for b in basis for w in b})
    keys += [w for w in words(a.dim_v, a.degree) if w not in set(keys)][:3]
    assert _check_integer_coordinates(basis, keys, rng) == 8


def test_basis_coordinates_rejects_dependent_basis():
    with pytest.raises(ValueError):
        BasisCoordinates([{0: 1, 1: 2}, {0: 2, 1: 4}])


def test_solve_affine_identity():
    sol = solve_affine(Matrix.identity(3), vector([1, 2, 3]))
    assert sol.particular == vector([1, 2, 3])
    assert sol.homogeneous.dim == 0


def test_solve_affine_underdetermined():
    sol = solve_affine(Matrix.from_rows([[1, 1]]), vector([0]))
    assert sol.particular == (ZERO, ZERO)
    assert sol.homogeneous.contains(vector([1, -1]))
    assert sol.homogeneous.dim == 1


def test_solve_affine_infeasible():
    assert solve_affine(Matrix.from_rows([[1], [1]]), vector([0, 1])) is None


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.data())
def test_solve_affine_exact(m, data):
    x = vector(data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols)))
    rhs = reference.mat_vec(m, x)
    sol = solve_affine(m, rhs)
    assert sol is not None
    assert reference.mat_vec(m, sol.particular) == tuple(rhs)


def test_inverse_round_trip():
    m = Matrix.from_rows([[1, 2], [3, 5]])
    mi = inverse(m)
    prod = Matrix.from_rows(
        [[sum((m.data[i][k] * mi.data[k][j] for k in range(2)), ZERO) for j in range(2)] for i in range(2)]
    )
    assert prod == Matrix.identity(2)
    assert inverse(Matrix.from_rows([[1, 2], [2, 4]])) is None


def _random_rank_matrix(rng, n_rows, n_cols, r):
    """n_rows x n_cols rational matrix of rank at most r: each row is a
    random combination of r random rows."""
    def q():
        return rational(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))

    gens = [[q() for _ in range(n_cols)] for _ in range(r)]
    rows = []
    for _ in range(n_rows):
        coeffs = [q() for _ in gens]
        rows.append([sum((c * g[j] for c, g in zip(coeffs, gens)), ZERO) for j in range(n_cols)])
    return Matrix.from_rows(rows)


def _check_dense_ops(m, rhs):
    rows = _rows(m)
    want, pivots = reference.rref(rows)
    assert _rows(rref(m)) == want
    assert rank(m) == len(pivots)
    assert _rows(kernel(m).basis) == reference.kernel(rows, m.cols)
    got, ref = solve_affine(m, rhs), reference.solve_affine(rows, rhs, m.cols)
    assert (got is None) == (ref is None)
    if got is not None:
        assert list(got.particular) == ref[0]
        assert _rows(got.homogeneous.basis) == ref[1]
    if m.rows == m.cols:
        inv, ref = inverse(m), reference.inverse(rows)
        assert (inv is None) == (ref is None)
        if inv is not None:
            assert _rows(inv) == ref


@pytest.mark.parametrize("seed", range(16))
def test_dense_ops_match_reference(seed):
    rng = random.Random(500 + seed)
    n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
    m = _random_rank_matrix(rng, n_rows, n_cols, rng.randint(0, min(n_rows, n_cols)))
    x = [rational(rng.randint(-5, 5)) for _ in range(n_cols)]
    # a feasible right-hand side, then a random one, almost surely
    # infeasible when the rank is below the row count
    _check_dense_ops(m, reference.mat_vec(m, x))
    _check_dense_ops(m, [rational(rng.randint(-5, 5)) for _ in range(n_rows)])
    n = rng.randint(1, 6)
    for r in (n, rng.randint(0, n - 1)):
        _check_dense_ops(_random_rank_matrix(rng, n, n, r), [ONE] * n)


@pytest.mark.parametrize(
    "rows, rhs, feasible",
    [
        ([[1, 2], [3, 4]], [5, 6], True),  # regular
        ([[1, 2, 3], [2, 4, 7]], [1, 1], True),  # underdetermined
        ([[1, 2], [2, 4]], [1, 3], False),  # singular, inconsistent
        ([[0, 0], [0, 0]], [0, 1], False),  # the rhs column is the only pivot
    ],
    ids=["regular", "underdetermined", "infeasible", "rhs-only-pivot"],
)
def test_dense_ops_match_reference_on_fixed_systems(rows, rhs, feasible):
    m = Matrix.from_rows(rows)
    _check_dense_ops(m, vector(rhs))
    assert (solve_affine(m, vector(rhs)) is not None) == feasible


def test_ambient_mismatch_rejected():
    a = Subspace.from_spanning([[1, 0]], 2)
    b = Subspace.from_spanning([[1, 0, 0]], 3)
    with pytest.raises(ValueError):
        a.intersect(b)


def test_subspace_reduce_is_canonical():
    a = Subspace.from_spanning([[1, 0, 2]], 3)
    res = a.reduce(vector([3, 1, 6]))
    assert res == (ZERO, ONE, ZERO)
    assert a.reduce(vector([1, 0, 2])) == (ZERO, ZERO, ZERO)


def _random_sparse_rows(rng, n_cols, n_rows):
    """Sparse rational rows with denominators, negative leads, zero rows
    and duplicates (plain and rescaled)."""
    rows = []
    for _ in range(n_rows):
        roll = rng.random()
        if roll < 0.1:
            rows.append({})
        elif roll < 0.15:
            rows.append({rng.randrange(n_cols): ZERO})
        elif roll < 0.3 and rows:
            scale = rational(Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)))
            rows.append({k: c * scale for k, c in rng.choice(rows).items()})
        else:
            keys = rng.sample(range(n_cols), rng.randint(1, min(4, n_cols)))
            rows.append(
                {k: rational(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))) for k in keys}
            )
    return rows


def _unit_sparse_rows(rng, n_cols, n_rows):
    """Sparse int rows with entries in {-2, -1, 1, 2}: most stored rows
    then have pivot entry 1, so later rows meet unit pivots, which need no
    rescaling, as well as pivots 2, which do."""
    return [
        {k: rng.choice((-2, -1, 1, 2)) for k in rng.sample(range(n_cols), rng.randint(1, min(5, n_cols)))}
        for _ in range(n_rows)
    ]


def _dense(row, n_cols, key_col=lambda k: k):
    out = [ZERO] * n_cols
    for k, c in row.items():
        out[key_col(k)] = rational(c)
    return out


def _check_matches_dense(rows, n_cols, tuple_keys):
    # tuple keys like (-degree, index within the degree), ordered as the
    # columns of the dense matrix below
    key_of = {i: (i // 3 - n_cols, i % 3) if tuple_keys else i for i in range(n_cols)}
    col_of = {k: i for i, k in key_of.items()}
    assert sorted(key_of.values()) == [key_of[i] for i in range(n_cols)]
    ech = SparseEchelon()
    grew = [ech.insert({key_of[k]: c for k, c in r.items()}) for r in rows]
    want, pivots = reference.rref([_dense(r, n_cols) for r in rows])
    assert ech.rank == len(pivots) == sum(grew)
    assert sorted(col_of[p] for p in ech.rows) == pivots
    stored = [_dense(r, n_cols, col_of.__getitem__) for r in ech.rows.values()]
    assert reference.rref(stored)[0] == want


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("tuple_keys", [False, True])
def test_sparse_echelon_matches_dense_rref(seed, tuple_keys):
    rng = random.Random(seed)
    n_cols = rng.randint(3, 9)
    _check_matches_dense(_random_sparse_rows(rng, n_cols, rng.randint(1, 14)), n_cols, tuple_keys)
    rng = random.Random(1000 + seed)
    n_cols = rng.randint(3, 9)
    _check_matches_dense(_unit_sparse_rows(rng, n_cols, rng.randint(1, 14)), n_cols, tuple_keys)


def _check_primitive_integer(rows):
    ech = SparseEchelon()
    for row in rows:
        ech.insert(row)
    for pivot, row in ech.rows.items():
        assert all(type(c) is int and c != 0 for c in row.values())
        assert pivot == min(row)
        assert row[pivot] > 0
        assert gcd(*row.values()) == 1


@pytest.mark.parametrize("seed", range(12))
def test_sparse_echelon_rows_are_primitive_integer(seed):
    rng = random.Random(100 + seed)
    n_cols = rng.randint(3, 9)
    _check_primitive_integer(_random_sparse_rows(rng, n_cols, rng.randint(1, 14)))
    rng = random.Random(1100 + seed)
    n_cols = rng.randint(3, 9)
    _check_primitive_integer(_unit_sparse_rows(rng, n_cols, rng.randint(1, 14)))


def _check_reduce_up_to_scalar(rows, probes, n_cols):
    ech = SparseEchelon()
    for row in rows:
        ech.insert(row)
    reduced, pivots = reference.rref([_dense(r, n_cols) for r in rows])
    for probe in probes:
        res = ech.reduce(probe)
        want = reference.residual(reduced, pivots, _dense(probe, n_cols))
        assert (not res) == (not any(want))
        if res:
            # the residual vanishes on every pivot, so it is a nonzero
            # multiple of the canonical residual modulo the span
            got = _dense(res, n_cols)
            lead = min(res)
            scale = got[lead] / want[lead]
            assert scale != 0
            assert got == [scale * x for x in want]


@pytest.mark.parametrize("seed", range(8))
def test_sparse_echelon_reduce_up_to_scalar(seed):
    rng = random.Random(200 + seed)
    n_cols = rng.randint(3, 9)
    rows = _random_sparse_rows(rng, n_cols, rng.randint(1, 8))
    _check_reduce_up_to_scalar(rows, _random_sparse_rows(rng, n_cols, 10), n_cols)
    rng = random.Random(1200 + seed)
    n_cols = rng.randint(3, 9)
    rows = _unit_sparse_rows(rng, n_cols, rng.randint(1, 8))
    probes = _unit_sparse_rows(rng, n_cols, 5) + _random_sparse_rows(rng, n_cols, 5)
    _check_reduce_up_to_scalar(rows, probes, n_cols)


def test_sparse_echelon_insert_rule():
    # insert eliminates up to the first free key, rescaling by non-unit
    # pivot entries, and stores the rest of the row as it stands, divided
    # by its content and signed so that the pivot entry is positive
    ech = SparseEchelon()
    assert ech.insert({1: 2, 3: 1})  # pivot 1, pivot entry 2
    assert ech.insert({2: 1, 3: 1})  # pivot 2, pivot entry 1
    # key 0 is free: the pivot keys 1 and 2 in the tail stay as they are
    assert ech.insert({0: 1, 1: 1, 2: 3})
    # 2 (3 e1 + e2 + e4) - 3 (2 e1 + e3) - 2 (e2 + e3) = -5 e3 + 2 e4
    assert ech.insert({1: 3, 2: 1, 4: 1})
    # 2 (e0 + e1 + 3 e2) + 5 e3 - 2 (e0 + e1 + 3 e2) - (5 e3 - 2 e4) = 2 e4
    assert ech.insert({0: 2, 1: 2, 2: 6, 3: 5})
    assert ech.rows == {
        0: {0: 1, 1: 1, 2: 3},
        1: {1: 2, 3: 1},
        2: {2: 1, 3: 1},
        3: {3: 5, 4: -2},
        4: {4: 1},
    }
    assert not ech.insert({0: 4, 1: 4, 2: 12})
    # reduce eliminates every pivot, the non-unit ones included
    assert ech.reduce({1: Fraction(1, 2)}) == {}
    # the residual 3 e5, scaled by the pivot entries 2 and 5 it met
    assert ech.reduce({1: 1, 5: 3}) == {5: 30}
    assert ech.rank == 5


@pytest.mark.parametrize(
    "label, dims",
    [
        ("ok", (1, 4, 13, 37, 101, 269)),
        ("s3", (1, 4, 12, 30, 68, 236)),
        ("s2", (1, 3, 6, 12, 76, 244)),
        ("s1", (0, 0, 0, 24, 88, 256)),
    ],
)
def test_oracle_quotient_dims_pinned(label, dims):
    from pbwforge.pbw import brute_force_oracle
    from pbwforge.sampling import sample_current_parameters
    from pbwforge.yang_mills import Metric, build_ym, current_from_parameters, current_to_deformation

    metric = Metric.euclidean(3)
    params = sample_current_parameters(
        random.Random(2026), metric, violate=None if label == "ok" else label
    )
    d = current_to_deformation(current_from_parameters(params, metric), build_ym(2, metric))
    oracle = brute_force_oracle(d, 5, 6)
    assert oracle.quotient_dims == dims
    assert oracle.expected_dims == (1, 4, 13, 37, 101, 269)
    assert oracle.verdict == ("CONSISTENT" if label == "ok" else "FAIL")


@st.composite
def elimination_inputs(draw):
    """(rows, v): echelon rows over int keys or (degree, word) keys, each
    row's least key its pivot with a positive entry, and an int row ``v``
    over the same keys, sometimes with a scale entry at ``_LAST``."""
    if draw(st.booleans()):
        keys = list(range(draw(st.integers(1, 12))))
    else:
        words_ = st.lists(st.integers(0, 1), max_size=3).map(tuple)
        keys = sorted({(len(w), w) for w in draw(st.lists(words_, min_size=1, max_size=12))})
    entry = st.integers(-12, 12).filter(bool)
    rows = {}
    for i in sorted(draw(st.sets(st.integers(0, len(keys) - 1)))):
        tail = draw(st.dictionaries(st.sampled_from(keys[i + 1 :]), entry)) if i + 1 < len(keys) else {}
        rows[keys[i]] = {keys[i]: draw(st.integers(1, 12)), **tail}
    v = draw(st.dictionaries(st.sampled_from(keys), entry))
    if draw(st.booleans()):
        v[_LAST] = draw(st.integers(1, 12))
    return rows, v


@settings(max_examples=200, deadline=None, derandomize=True)
@given(elimination_inputs(), st.booleans())
def test_elimination_loop_matches_the_heap_loop(inputs, full):
    rows, v = inputs
    want = dict(v)
    assert _eliminate_pivots(rows, v, full) == reference.eliminate_pivots_heap(rows, want, full)
    assert v == want
