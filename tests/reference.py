"""Reference exact linear algebra for the tests.

Textbook Gauss-Jordan elimination over ``fractions.Fraction`` on dense
rows: it shares no code with ``pbwforge.linalg``, so comparisons against
it check the library's fraction-free engine from outside.

The degree converters lay a homogeneous element out as a dense vector,
words in lexicographic order, and the filtered converters an element of
F^n, degree blocks in increasing order and words lexicographically in
each.

The ideal references at the end are the all-products loops that the
level-by-level ideal builders replace: every spanning product, placed
word by word, goes through ``SparseEchelon.insert``.  They share the
elimination with the library and check how the spans are built.  Last
comes a copy of the library's earlier, heap-driven elimination loop,
which the present loop must match pivot for pivot and entry for entry.

The family references after it are the Yang-Mills and super Yang-Mills
constructors and the seeded symmetric sampler as they were written
before they summed ints over one denominator: one rational operation per
term.  The integer constructors must match them in value and in type.
"""

import heapq
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, lcm

from pbwforge.linalg import SparseEchelon, solve_rows
from pbwforge.rationals import HALF, ZERO, rational
from pbwforge.tensors import GradedMap, TensorElement, filtered_dim, word_index, words


def eliminate(rows, col_limit=None):
    """Gauss-Jordan elimination of the dense ``rows`` in place, to RREF;
    returns the pivot columns.

    Pivoting takes the first row with a nonzero entry, columns in order.
    ``col_limit`` restricts the pivot search (for augmented systems); row
    operations always span the full width.
    """
    if not rows:
        return []
    limit = len(rows[0]) if col_limit is None else col_limit
    pivots = []
    r = 0
    for c in range(limit):
        src = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = 1 / rows[r][c]
        # only the nonzero entries of the pivot row take part in row operations
        support = [(j, x * inv) for j, x in enumerate(rows[r]) if x]
        for j, x in support:
            rows[r][j] = x
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f != 0:
                row = rows[i]
                for j, y in support:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows):
    """(reduced rows, pivot columns) of the dense ``rows``, zero rows dropped."""
    rows = _fractions(rows)
    pivots = eliminate(rows)
    return rows[: len(pivots)], pivots


def rank(rows):
    return len(rref(rows)[1])


def residual(reduced, pivots, v):
    """``v`` minus its combination of the RREF rows ``reduced``: zero on
    every pivot, and zero everywhere iff ``v`` lies in their span."""
    out = [Fraction(x) for x in v]
    for row, p in zip(reduced, pivots):
        f = out[p]
        if f:
            out = [y - f * x for x, y in zip(row, out)]
    return out


def kernel(rows, n):
    """RREF rows of the null space of the dense ``rows`` with ``n`` columns."""
    reduced, pivots = rref(rows)
    return _null_space(reduced, pivots, n)


def _null_space(reduced, pivots, n):
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[fc]
        basis.append(v)
    return rref(basis)[0]


def solve_affine(rows, rhs, n):
    """(particular solution, RREF rows of the homogeneous solutions) of
    M x = rhs, or None when infeasible."""
    aug = _fractions(list(row) + [b] for row, b in zip(rows, rhs))
    pivots = eliminate(aug, col_limit=n)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, p in zip(aug, pivots):
        x[p] = row[n]
    return x, _null_space(aug, pivots, n)


def inverse(rows):
    """Inverse of the square dense ``rows``, or None when singular."""
    n = len(rows)
    aug = _fractions(list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows))
    pivots = eliminate(aug, col_limit=n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in aug]


def mat_vec(m, v):
    """The product of the ``Matrix`` m with the dense vector v."""
    if m.data and len(v) != m.cols:
        raise ValueError(f"length {len(v)} vector against {m.cols} columns")
    return tuple(sum((x * y for x, y in zip(row, v) if x), ZERO) for row in m.data)


def flatten_graded_map(m):
    """Column-stacked coefficients of a graded map: the degree-j block is
    ``u[k * dim_v**j + word_index(w)]``, k indexing the relation basis and
    w running over degree-j words."""
    block = m.dim_v**m.target_degree
    out = [ZERO] * (block * len(m.images))
    for k, img in enumerate(m.images):
        for w, c in img.terms.items():
            out[k * block + word_index(w, m.dim_v)] = c
    return tuple(out)


def unflatten_graded_map(dim_v, source_dim, target_degree, coeffs):
    block = dim_v**target_degree
    images = tuple(
        from_degree_vector(dim_v, target_degree, coeffs[k * block : (k + 1) * block])
        for k in range(source_dim)
    )
    return GradedMap(dim_v, target_degree, images)


def to_degree_vector(x, degree):
    """The dense coordinates of the homogeneous ``x`` in V^(tensor degree)."""
    if not x.is_homogeneous(degree):
        raise ValueError("element is not homogeneous of the requested degree")
    vec = [ZERO] * x.dim_v**degree
    for w, c in x.terms.items():
        vec[word_index(w, x.dim_v)] = c
    return tuple(vec)


def from_degree_vector(dim_v, degree, vec):
    terms = {}
    for w in words(dim_v, degree):
        c = rational(vec[word_index(w, dim_v)])
        if c != 0:
            terms[w] = c
    return TensorElement(dim_v, terms)


def filtered_offset(dim_v, degree):
    """Offset of the degree block inside filtered coordinates."""
    return sum(dim_v**i for i in range(degree))


def filtered_index(word, dim_v):
    return filtered_offset(dim_v, len(word)) + word_index(word, dim_v)


def to_filtered_vector(x, max_degree):
    """The dense filtered coordinates of ``x`` in F^max_degree."""
    if x.max_degree > max_degree:
        raise ValueError("element exceeds the requested filtration level")
    vec = [ZERO] * filtered_dim(x.dim_v, max_degree)
    for w, c in x.terms.items():
        vec[filtered_index(w, x.dim_v)] = c
    return tuple(vec)


def from_filtered_vector(dim_v, max_degree, vec):
    terms = {}
    for deg in range(max_degree + 1):
        off = filtered_offset(dim_v, deg)
        for w in words(dim_v, deg):
            c = rational(vec[off + word_index(w, dim_v)])
            if c != 0:
                terms[w] = c
    return TensorElement(dim_v, terms)


def ideal_span_dims(relations, dim_v, cutoff):
    """(dim of the span intersect F^n for n = 0..cutoff, rank) of the span
    of every product a p b with |a| + N + |b| <= cutoff, keyed as in
    ``pbwforge.pbw.IdealSpan``: by decreasing degree, then lexicographically."""
    degree = max(p.max_degree for p in relations)
    start = [sum(dim_v**e for e in range(d + 1, cutoff + 1)) for d in range(cutoff + 1)]
    echelon = SparseEchelon()
    for total in range(cutoff - degree + 1):
        for i in range(total + 1):
            for left in words(dim_v, i):
                for right in words(dim_v, total - i):
                    for p in relations:
                        echelon.insert(
                            {
                                start[len(w) + total] + word_index(left + w + right, dim_v): c
                                for w, c in p.terms.items()
                            }
                        )
    dims = [sum(1 for k in echelon.rows if k >= start[n]) for n in range(cutoff + 1)]
    return dims, echelon.rank


def keyed_rows(relations):
    """The elements ``relations`` as ``pbwforge.pbw.IdealSpan`` takes them:
    integer rows {(degree, word index): c}, each element's denominators
    cleared over their lcm."""
    rows = []
    for p in relations:
        den = lcm(*(c.denominator for c in p.terms.values()))
        rows.append({(len(w), word_index(w, p.dim_v)): int(c * den) for w, c in p.terms.items()})
    return rows


def graded_dims(a, n_max):
    """dim V^n - dim I_n for n = 0..n_max, each I_n the rank of every
    product u r v with |u| + N + |v| = n."""
    dims = []
    for n in range(n_max + 1):
        echelon = SparseEchelon()
        for i in range(n - a.degree + 1):
            for left in words(a.dim_v, i):
                for right in words(a.dim_v, n - a.degree - i):
                    for r in a.relation_basis:
                        echelon.insert(
                            {word_index(left + w + right, a.dim_v): c for w, c in r.terms.items()}
                        )
        dims.append(a.dim_v**n - echelon.rank)
    return dims


def eliminate_pivots_heap(rows, v, full):
    """The heap-driven elimination loop that ``linalg._eliminate_pivots``
    replaced, kept as the reference for its pivots and rows: the pivots of
    ``rows`` are eliminated from the int dict ``v`` in place, in
    increasing key order, each key popped from a heap of ``v``'s keys
    and of the keys eliminations add.  With ``full`` every pivot key is
    eliminated and None is returned; without it the loop returns the
    least key of ``v`` with no row (None when ``v`` reduces to zero)."""
    heap = sorted(v)
    while heap:
        k = heapq.heappop(heap)
        c = v.get(k)
        if not c:
            continue
        row = rows.get(k)
        if row is None:
            if full:
                continue
            return k
        a = row[k]
        if a != 1:
            g = gcd(a, c)
            if g != a:
                scale = a // g
                for vk in v:
                    v[vk] *= scale
            c //= g
        for rk, rc in row.items():
            nv = v.get(rk, 0) - c * rc
            if nv:
                if rk not in v and rk > k:
                    heapq.heappush(heap, rk)
                v[rk] = nv
            else:
                v.pop(rk, None)
    return None


def ym_coefficients(metric):
    """The YM relation array W[rho][lam][mu][nu] from g^-1, term by term."""
    n = metric.dim
    G = metric.g_inv.data
    r = range(n)
    return tuple(
        tuple(
            tuple(
                tuple(G[rho][lam] * G[mu][nu] + G[rho][nu] * G[lam][mu] - 2 * G[rho][mu] * G[lam][nu] for nu in r)
                for mu in r
            )
            for lam in r
        )
        for rho in r
    )


def sym_coefficients(metric):
    """The SYM relation array Wt[rho][lam][mu][nu] from g^-1, term by term."""
    n = metric.dim
    G = metric.g_inv.data
    r = range(n)
    return tuple(
        tuple(tuple(tuple(G[rho][lam] * G[mu][nu] - G[rho][nu] * G[lam][mu] for nu in r) for mu in r) for lam in r)
        for rho in r
    )


def b_family_block(b, metric, sign=1):
    """j3[a][b][c] = sign * (g^{bc} u_a - g^{ac} u_b) with u = g^-1 b."""
    n = metric.dim
    G = metric.g_inv.data
    u = [sum((G[a][r] * b[r] for r in range(n)), ZERO) for a in range(n)]
    return tuple(
        tuple(tuple(sign * (G[b_][c] * u[a] - G[a][c] * u[b_]) for c in range(n)) for b_ in range(n))
        for a in range(n)
    )


def current_from_parameters(p, metric):
    """(j3, j2, j1) = (omega3 + s3 + the b-family block, s2 - omega3 b / 2, s1)."""
    n = p.dim
    bj3 = b_family_block(p.b, metric)
    r = range(n)
    j3 = tuple(tuple(tuple(p.omega3[a][b_][c] + p.s3[a][b_][c] + bj3[a][b_][c] for c in r) for b_ in r) for a in r)
    j2 = []
    for a in r:
        row = []
        for b_ in r:
            acc = p.s2[a][b_]
            for k in r:
                acc = acc - HALF * p.omega3[a][b_][k] * p.b[k]
            row.append(acc)
        j2.append(tuple(row))
    return j3, tuple(j2), tuple(p.s1)


def super_current_from_parameters(b, omega2, metric):
    """(j3, j2, j1) = (minus the b-family block, omega2, omega2 b / 2)."""
    n = metric.dim
    b = tuple(rational(x) for x in b)
    j2 = tuple(tuple(rational(omega2[a][b_]) for b_ in range(n)) for a in range(n))
    j1 = tuple(HALF * sum((j2[a][r] * b[r] for r in range(n)), ZERO) for a in range(n))
    return b_family_block(b, metric, -1), j2, j1


def swap_sign_holds(t, n, rank, sign):
    """Whether every swap of two indices multiplies ``t`` by ``sign``."""

    def entry(idx):
        x = t
        for i in idx:
            x = x[i]
        return x

    for idx in product(range(n), repeat=rank):
        for p in range(rank - 1):
            other = entry(idx[:p] + (idx[p + 1], idx[p]) + idx[p + 2 :])
            if entry(idx) != (other if sign == 1 else -other):
                return False
    return True


def random_rational(rng, bound=20):
    """p/q with p drawn first from [-bound, bound], then q from [1, bound]."""
    return rational(rng.randint(-bound, bound)) / rational(rng.randint(1, bound))


def orthogonal_symmetric_sample(rng, n, rank, b, bound=20):
    """A symmetric tensor s with s(..., b) = 0: one draw c_i per row y_i of
    the contraction's kernel from ``solve_rows``, accumulated as sum c_i y_i
    one product at a time."""
    multisets = list(combinations_with_replacement(range(n), rank))
    col = {m: i for i, m in enumerate(multisets)}
    rows = [
        {col[tuple(sorted(free + (r,)))]: b[r] for r in range(n) if b[r] != 0}
        for free in combinations_with_replacement(range(n), rank - 1)
    ]
    coords = [ZERO] * len(multisets)
    for _, row in solve_rows(rows, len(coords))[1].rows:
        c = random_rational(rng, bound)
        for k, y in row.items():
            coords[k] += c * y

    def entries(prefix):
        if len(prefix) == rank:
            return coords[col[tuple(sorted(prefix))]]
        return tuple(entries(prefix + (a,)) for a in range(n))

    return entries(())
