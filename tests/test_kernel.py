"""The sparse kernel: pins on ``solve_rows`` and on the seeded sampler.

The pin is a sha256 over every output of ``linalg.solve_rows``: the
particular solution and each canonical row of the homogeneous subspace,
entries in key order, each as its "p/q" string with its type ("Q" for
``fractions.Fraction``).  The systems are homogeneous, affine and infeasible,
rank-deficient, with duplicate and zero rows, over int and over rational
entries, so a change of the kernel's rows, of the particular solution or
of a feasibility decision shows up.  A second pin covers the sampler's
draws when b has zero entries, whose contraction kernels have other pivot
patterns, and a reference test fixes which particular solution
``solve_affine`` returns.  Seeded Hypothesis tests check the integer
kernel core, ``kernel_rows``, against the Gauss-Jordan ``kernel`` and
``solve_affine`` of ``tests/reference.py`` and against the definition of
a canonical kernel row.
"""

import hashlib
import random

import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from pbwforge.linalg import Matrix, kernel_rows, solve_affine, solve_rows
from pbwforge.rationals import Q
from pbwforge.sampling import _orthogonal_symmetric_sample

SYSTEMS = 3000


def _entry(rng, rational):
    """A nonzero entry: a small int, or a small p/q."""
    p = rng.choice([-3, -2, -1, 1, 2, 3, 5, -7])
    return Q(p, rng.randint(1, 6)) if rational else p


def _combination(rng, rows, n, rational):
    """A random combination of some of ``rows`` (keys below n + 1)."""
    out: dict = {}
    for row in rng.sample(rows, rng.randint(1, min(3, len(rows)))):
        c = _entry(rng, rational)
        for k, x in row.items():
            out[k] = out.get(k, 0) + c * x
    return out


def seeded_system(rng):
    """(rows, n) of one seeded sparse system: keys below n are coefficients
    and key n, when present, the right-hand side."""
    n = rng.randint(1, 7)
    rational = rng.random() < 0.5
    kind = rng.choice(["homogeneous", "affine", "infeasible"])
    density = rng.choice([0.2, 0.4, 0.7])
    rows = []
    for _ in range(rng.randint(0, 7)):
        row = {k: _entry(rng, rational) for k in range(n) if rng.random() < density}
        rows.append(row)
    if rows and rng.random() < 0.5:
        # rank deficiency: combinations of rows already drawn
        for _ in range(rng.randint(1, 3)):
            rows.append(_combination(rng, rows, n, rational))
    if rows and rng.random() < 0.3:
        rows.append(dict(rng.choice(rows)))
    if rng.random() < 0.3:
        rows.insert(rng.randint(0, len(rows)), rng.choice([{}, {rng.randrange(n): 0}]))
    if kind != "homogeneous":
        # consistent right-hand side M x for a random x
        x = [_entry(rng, rational) if rng.random() < 0.6 else 0 for _ in range(n)]
        for row in rows:
            row[n] = sum(c * x[k] for k, c in row.items() if k < n)
        if kind == "infeasible" and rows:
            # a combination of the rows with its right-hand side moved
            bad = _combination(rng, rows, n, rational)
            bad[n] = bad.get(n, 0) + _entry(rng, rational)
            rows.insert(rng.randint(0, len(rows)), bad)
    rng.shuffle(rows)
    return rows, n


def _encode(x):
    return f"{x.numerator}/{x.denominator}:{'Q' if type(x) is Q else type(x).__name__}"


def encode_solution(sol) -> str:
    if sol is None:
        return "infeasible"
    particular, homogeneous = sol
    rows = [(p, [(k, _encode(x)) for k, x in sorted(row.items())]) for p, row in homogeneous.rows]
    return repr(([(k, _encode(x)) for k, x in sorted(particular.items())], homogeneous.ambient_dim, rows))


def test_solve_rows_matches_pinned_hash():
    rng = random.Random(33000)
    h = hashlib.sha256()
    outcomes = {"infeasible": 0, "affine": 0, "homogeneous": 0}
    for _ in range(SYSTEMS):
        rows, n = seeded_system(rng)
        sol = solve_rows([dict(row) for row in rows], n)
        outcomes["infeasible" if sol is None else "affine" if sol[0] else "homogeneous"] += 1
        h.update(encode_solution(sol).encode())
    # every kind of outcome is exercised
    assert min(outcomes.values()) > 300
    assert h.hexdigest() == "378f40109737b32abc574164ce01fc5da7f2e960867f48dbcb369bc886708a17"


def zero_patterns():
    """(n, b) with b's zero entries first, last, in the middle, and mixed:
    each pattern moves the pivots of the contraction kernels."""
    for n in (2, 3, 4, 5):
        full = [3, -2, 5, 7, -4][:n]
        yield n, (0, *full[1:])
        yield n, (*full[:-1], 0)
        if n > 2:
            yield n, (full[0], *[0] * (n - 2), full[-1])
            yield n, tuple(x if i % 2 else 0 for i, x in enumerate(full))
        yield n, tuple(full)


def test_sampler_draws_with_zero_entries_in_b_match_pinned_hash():
    h = hashlib.sha256()
    for n, b in zero_patterns():
        for rank in (1, 2, 3):
            rng = random.Random(3300 + 10 * n + rank)
            s = _orthogonal_symmetric_sample(rng, n, rank, b)
            h.update(repr(_flat(s)).encode())
    assert h.hexdigest() == "784fec96cde81330c6ac86b3df72074b84391d077a8c5657d1e3751e3c5869d4"


def _flat(t):
    if isinstance(t, tuple):
        return [_flat(x) for x in t]
    return _encode(t)


def test_solve_affine_sets_the_forward_free_variables_to_zero():
    # the particular solution is the one read off the forward RREF of
    # [M | rhs]: each free column of M (no pivot in least-key order) is 0
    rng = random.Random(33001)
    checked = 0
    for _ in range(400):
        rows, n = seeded_system(rng)
        if not rows or not any(n in row for row in rows):
            continue
        dense = [[row.get(k, 0) for k in range(n)] for row in rows]
        rhs = [row.get(n, 0) for row in rows]
        sol = solve_affine(Matrix.from_rows(dense), rhs)
        ref = reference.solve_affine(dense, rhs, n)
        assert (sol is None) == (ref is None)
        if sol is not None:
            assert list(sol.particular) == ref[0]
            pivots = reference.eliminate(reference._fractions(dense))
            assert all(sol.particular[k] == 0 for k in range(n) if k not in pivots)
            checked += 1
    assert checked > 100


# sparse systems with int or rational entries and some zero rows and columns
entries = st.one_of(st.integers(-4, 4), st.fractions(min_value=-6, max_value=6, max_denominator=5).map(Q))


@st.composite
def sparse_systems(draw, rhs=False):
    n = draw(st.integers(1, 6))
    keys = n + 1 if rhs else n
    rows = draw(st.lists(st.dictionaries(st.integers(0, keys - 1), entries, max_size=keys), max_size=6))
    return rows, n


def dense(rows, n):
    return [[Q(row.get(k, 0)) for k in range(n)] for row in rows]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sparse_systems(rhs=True))
def test_kernel_rows_match_the_reference_kernel(system):
    rows, n = system
    kernel = kernel_rows(rows, n)
    want = reference.kernel(dense(rows, n), n)
    assert [[Q(row.get(k, 0), den) for k in range(n)] for _, row, den in kernel] == want
    # the rows are pure ints, and the key n (a right-hand side) is ignored
    assert all(type(x) is int for _, row, den in kernel for x in (den, *row.values()))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sparse_systems(rhs=True))
def test_solve_rows_matches_the_reference_solve_affine(system):
    rows, n = system
    sol = solve_rows(rows, n)
    want = reference.solve_affine(dense(rows, n), [row.get(n, 0) for row in rows], n)
    if want is None:
        assert sol is None
    else:
        particular, homogeneous = sol
        assert [particular.get(k, 0) for k in range(n)] == want[0]
        assert [list(v) for v in homogeneous.basis] == want[1]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sparse_systems())
def test_kernel_rows_are_canonical_kernel_vectors(system):
    rows, n = system
    kernel = kernel_rows(rows, n)
    pivots = [p for p, _, _ in kernel]
    assert pivots == sorted(set(pivots))
    for p, row, den in kernel:
        # den at the pivot, nothing before it and nothing at another pivot
        assert den > 0 and row[p] == den
        assert all(k >= p for k in row)
        assert not any(k in row for k in pivots if k != p)
        assert all(x for x in row.values())
        # in the kernel
        assert all(sum(c * row.get(k, 0) for k, c in eq.items()) == 0 for eq in rows)
    assert len(kernel) == n - reference.rank(dense(rows, n))
