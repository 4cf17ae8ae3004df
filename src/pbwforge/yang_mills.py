"""Yang-Mills algebras and their currents.

The cubic algebra on generators nabla_0..nabla_s has one relation per
generator, with coefficients built from a nondegenerate symmetric
bilinear form.  A current attaches inhomogeneous tails to the relations;
the closed-form regular family is parametrized by a covector b, a
totally antisymmetric 3-tensor, and symmetric tensors orthogonal to b.

Index convention: in the degree-2 coefficient array ``j3[mu][nu][rho]``
the LAST index labels the relation; e.g. the tail of the relation with
label rho contains j3[mu][nu][rho] * nabla_mu (x) nabla_nu.  All raising
and lowering of indices goes explicitly through the metric.  For the
physics form of the current (built from field strengths only), see
:func:`physics_current`; completed with its two orthogonality
constraints it contains a generalization of Ohm's law.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement, permutations, product
from math import lcm
from typing import NamedTuple, Sequence

from .algebra import AlgebraPresentation, permutation_sign
from .linalg import Frozen, FrozenValue, Matrix, inverse, reduce_rows
from .pbw import DeformationMap
from .rationals import ONE, ZERO, cleared, ratio, rational
from .tensors import TensorElement, commutator


class Metric(Frozen):
    """Nondegenerate symmetric bilinear form g with its exact inverse, also
    held as ints over one denominator (``integer_inverse``)."""

    _fields = ("g",)

    def __init__(self, g: Matrix) -> None:
        n = g.rows
        if g.cols != n:
            raise ValueError("metric must be square")
        for i in range(n):
            for j in range(n):
                if g.data[i][j] != g.data[j][i]:
                    raise ValueError("metric must be symmetric")
        self._set("g", g)
        self.g_inv  # raises ValueError when the metric is degenerate

    @classmethod
    def from_rows(cls, rows) -> "Metric":
        return cls(Matrix.from_rows(rows))

    @classmethod
    def euclidean(cls, dim: int) -> "Metric":
        return cls(Matrix.identity(dim))

    @classmethod
    def minkowski(cls, dim: int) -> "Metric":
        rows = [[(-ONE if i == 0 else ONE) if i == j else ZERO for j in range(dim)] for i in range(dim)]
        return cls(Matrix.from_rows(rows))

    @property
    def dim(self) -> int:
        return self.g.rows

    @cached_property
    def g_inv(self) -> Matrix:
        inv = inverse(self.g)
        if inv is None:
            raise ValueError("metric is degenerate")
        return inv

    @cached_property
    def integer_inverse(self) -> tuple:
        """g^{-1} as (rows, den): int rows with g^{ab} = rows[a][b] / den,
        den the lcm of its denominators."""
        nums, den = cleared(x for row in self.g_inv.data for x in row)
        return reshape(nums, self.dim, 2), den


def reshape(flat: list, n: int, rank: int) -> tuple:
    """The rank-``rank`` array of nested tuples, ``n`` per axis, whose
    entries in index order are ``flat``."""
    for _ in range(rank - 1):
        flat = [tuple(flat[i : i + n]) for i in range(0, len(flat), n)]
    return tuple(flat)


def ym_coefficients(metric: Metric) -> tuple:
    """The relation coefficient array W[rho][lam][mu][nu]."""
    n = metric.dim
    G, d = metric.integer_inverse
    den = d * d
    return tuple(
        tuple(
            tuple(
                tuple(
                    ratio(G[rho][lam] * G[mu][nu] + G[rho][nu] * G[lam][mu] - 2 * G[rho][mu] * G[lam][nu], den)
                    for nu in range(n)
                )
                for mu in range(n)
            )
            for lam in range(n)
        )
        for rho in range(n)
    )


def cubic_relations(w) -> tuple:
    """The relations W^rho = W[rho][lam][mu][nu] e_lam (x) e_mu (x) e_nu of a
    coefficient array, one per label rho."""
    n = len(w)
    basis = []
    for rho in range(n):
        terms = {}
        for lam in range(n):
            for mu in range(n):
                for nu in range(n):
                    if w[rho][lam][mu][nu] != 0:
                        terms[(lam, mu, nu)] = w[rho][lam][mu][nu]
        basis.append(TensorElement.from_terms(n, terms))
    return tuple(basis)


def build_cubic(s: int, metric: Metric, coefficients) -> AlgebraPresentation:
    """The cubic presentation on s+1 generators with the relations of a
    coefficient array built from ``metric`` (YM or SYM)."""
    if s < 1:
        raise ValueError("need at least two generators (s >= 1)")
    if metric.dim != s + 1:
        raise ValueError("metric dimension must be s + 1")
    return AlgebraPresentation(s + 1, 3, cubic_relations(coefficients))


def build_ym(s: int, metric: Metric) -> AlgebraPresentation:
    """The cubic Yang-Mills presentation on s+1 generators."""
    return build_cubic(s, metric, ym_coefficients(metric))


def relations_from_nested_commutators(metric: Metric) -> tuple:
    """The same relations written as g^{lam mu} g^{nu rho} [x_lam,[x_mu,x_nu]]."""
    n = metric.dim
    G = metric.g_inv.data
    gens = [TensorElement.generator(n, i) for i in range(n)]
    out = []
    for rho in range(n):
        acc = TensorElement.zero(n)
        for lam in range(n):
            for mu in range(n):
                for nu in range(n):
                    c = G[lam][mu] * G[nu][rho]
                    if c != 0:
                        acc = acc + commutator(gens[lam], commutator(gens[mu], gens[nu])).scale(c)
        out.append(acc)
    return tuple(out)


class IdentityReport(NamedTuple):
    cyclic_invariance: bool       # W^{lam mu nu rho} = W^{rho lam mu nu}
    two_sided_overlap: bool       # sum W^rho (x) e_rho = sum e_rho (x) W^rho
    cyclic_sum_zero: bool         # W^{rho lam mu nu} + W^{rho nu lam mu} + W^{rho mu nu lam} = 0
    commutator_form: bool         # relations match the nested-commutator expansion
    overlap_is_line: bool         # dim W_4 = 1, spanned by the two-sided element

    @property
    def all_pass(self) -> bool:
        return (
            self.cyclic_invariance
            and self.two_sided_overlap
            and self.cyclic_sum_zero
            and self.commutator_form
            and self.overlap_is_line
        )


def overlap_identities(w, sign: int, presentation=None) -> tuple:
    """(relations, two_sided, overlap_is_line) for a coefficient array.

    two_sided is the identity sum e_rho (x) W^rho = sign * sum W^rho (x)
    e_rho.  overlap_is_line says that dim W_4 = 1 with W_4 spanned by the
    two-sided element: sum W^rho (x) e_rho for sign +1 (Yang-Mills), sum
    e_rho (x) W^rho for sign -1 (super Yang-Mills).  ``presentation``,
    when given, must have exactly these relations; W is then read from its
    overlap core, which the PBW checks and the classifier share.
    """
    n = len(w)
    basis = cubic_relations(w)
    if presentation is not None and presentation.relation_basis != basis:
        raise ValueError("the presentation has other relations than the coefficient array")
    right = TensorElement.zero(n)
    left = TensorElement.zero(n)
    for rho, r in enumerate(basis):
        e = TensorElement.generator(n, rho)
        right = right + r.tensor(e)
        left = left + e.tensor(r)
    two_sided = left == right.scale(sign)
    element = right if sign == 1 else left
    try:
        a = presentation if presentation is not None else AlgebraPresentation(n, 3, basis)
        wspace = a.overlap.space
        overlap_ok = wspace.dim == 1 and not element.is_zero() and not reduce_rows(wspace.rows, element.indexed())
    except ValueError:
        overlap_ok = False
    return basis, two_sided, overlap_ok


def verify_identities(metric: Metric, coefficients=None, presentation=None) -> IdentityReport:
    """Check the structural identities of the Yang-Mills relation tensor.

    ``coefficients`` overrides the relation array (used as a negative
    control with a deliberately corrupted tensor).  ``presentation`` is
    the Yang-Mills presentation of ``metric`` when the caller has built
    it; its overlap core is reused (see :func:`overlap_identities`).
    """
    n = metric.dim
    w = coefficients if coefficients is not None else ym_coefficients(metric)
    idx = range(n)
    cyclic = all(
        w[l][m][nu][r] == w[r][l][m][nu] for r in idx for l in idx for m in idx for nu in idx
    )
    cyclic_sum = all(
        w[r][l][m][nu] + w[r][nu][l][m] + w[r][m][nu][l] == 0
        for r in idx
        for l in idx
        for m in idx
        for nu in idx
    )
    basis, two_sided, overlap_ok = overlap_identities(w, 1, presentation)
    commutator_ok = basis == relations_from_nested_commutators(metric) if coefficients is None else True
    return IdentityReport(cyclic, two_sided, cyclic_sum, commutator_ok, overlap_ok)


def nested_zeros(dim: int, rank: int):
    """A rank-``rank`` array of zeros as nested lists, ``dim`` per axis."""
    if rank == 0:
        return ZERO
    return [nested_zeros(dim, rank - 1) for _ in range(dim)]


def freeze(x):
    """Nested lists as nested tuples."""
    if isinstance(x, list):
        return tuple(freeze(e) for e in x)
    return x


def check_shape(t, n: int, rank: int, name: str, of: str) -> None:
    """Raise ValueError unless the nested sequences ``t`` have ``n``
    entries along each of their ``rank`` axes.  Only lengths are read, one
    per row, never an entry."""
    rows = (t,)
    for axis in range(rank):
        if axis:
            rows = tuple(chain.from_iterable(rows))
        try:
            lengths = set(map(len, rows))
        except TypeError:  # a number where a row belongs
            lengths = None
        if lengths != {n}:
            raise ValueError(f"{name} must have shape {(n,) * rank} for {of}")


class _CurrentFields(NamedTuple):
    j3: tuple  # j3[mu][nu][rho]
    j2: tuple  # j2[lam][rho]
    j1: tuple  # j1[rho]


class Current(_CurrentFields):
    """Inhomogeneous tails J^rho = j3 part + j2 part + j1 part.

    The shapes are checked at construction: j3 is n x n x n and j2 n x n,
    with n = len(j1).
    """

    __slots__ = ()

    def __new__(cls, j3: tuple, j2: tuple, j1: tuple) -> "Current":
        of = f"a j1 of length {len(j1)}"
        check_shape(j3, len(j1), 3, "j3", of)
        check_shape(j2, len(j1), 2, "j2", of)
        return super().__new__(cls, j3, j2, j1)

    @property
    def dim(self) -> int:
        return len(self.j1)

    def tails(self) -> tuple:
        """J^rho as tensor elements of F^2, indexed by the relation label."""
        n = self.dim
        out = []
        for rho in range(n):
            terms = {(): self.j1[rho]}
            for mu in range(n):
                terms[(mu,)] = self.j2[mu][rho]
                for nu in range(n):
                    terms[(mu, nu)] = self.j3[mu][nu][rho]
            out.append(TensorElement(n, {w: c for w, c in terms.items() if c}))
        return tuple(out)


def swap_sign_holds(t, n: int, rank: int, sign: int) -> bool:
    """Whether the rank-``rank`` array ``t`` (``n`` per axis) takes the
    factor ``sign`` under each swap of two adjacent indices: total symmetry
    for sign 1, total antisymmetry for -1, since the adjacent
    transpositions generate the symmetric group.  A swap and its inverse
    give the same condition, so each pair of indices is read once."""
    for idx in product(range(n), repeat=rank):
        entry = _entry(t, idx)
        for p in range(rank - 1):
            if idx[p] <= idx[p + 1]:
                other = _entry(t, idx[:p] + (idx[p + 1], idx[p]) + idx[p + 2 :])
                # rationals in lowest terms: equal iff numerators and denominators are
                if entry.numerator != sign * other.numerator or entry.denominator != other.denominator:
                    return False
    return True


def _entry(t, idx: tuple):
    for i in idx:
        t = t[i]
    return t


class CurrentParameters(FrozenValue):
    """Parameters (b, omega3, s3, s2, s1) of the closed-form current family.

    The shapes (n = len(b) per axis) and the symmetries of omega3, s3 and
    s2 are enforced at construction.  The orthogonality of s3, s2 and s1
    against b is not: a family member that breaks it is still a current,
    and the PBW checks decide it.
    """

    _fields = ("b", "omega3", "s3", "s2", "s1")

    def __init__(self, b: tuple, omega3: tuple, s3: tuple, s2: tuple, s1: tuple) -> None:
        n = len(b)
        of = f"a b of length {n}"
        for name, t, rank in (("omega3", omega3, 3), ("s3", s3, 3), ("s2", s2, 2), ("s1", s1, 1)):
            check_shape(t, n, rank, name, of)
        if not swap_sign_holds(omega3, n, 3, -1):
            raise ValueError("omega3 must be totally antisymmetric")
        if not swap_sign_holds(s3, n, 3, 1):
            raise ValueError("s3 must be totally symmetric")
        if not swap_sign_holds(s2, n, 2, 1):
            raise ValueError("s2 must be symmetric")
        self._set("b", b)
        self._set("omega3", omega3)
        self._set("s3", s3)
        self._set("s2", s2)
        self._set("s1", s1)

    @property
    def dim(self) -> int:
        return len(self.b)


def flatten(t, rank: int) -> list:
    """The entries of a rank-``rank`` array of nested sequences, in index order."""
    for _ in range(rank - 1):
        t = [x for row in t for x in row]
    return list(t)


def _b_block(b: Sequence, metric: Metric, sign: int) -> tuple:
    """The entries of :func:`b_family_block` in index order, as (ints,
    d^2 bd) with g^{-1} = G / d (``integer_inverse``) and bd the lcm of
    the denominators of b."""
    G, d = metric.integer_inverse
    b_nums, bd = cleared(b)
    n = len(G)
    u = [sum(G[a][r] * b_nums[r] for r in range(n)) for a in range(n)]
    return [sign * (G[b_][c] * u[a] - G[a][c] * u[b_]) for a in range(n) for b_ in range(n) for c in range(n)], d * d * bd


def b_family_block(b: Sequence, metric: Metric, sign: int = 1) -> tuple:
    """The b-family top block j3[a][b][c] = sign * (g^{ar} g^{bc} - g^{ac}
    g^{br}) b_r = sign * (g^{bc} u_a - g^{ac} u_b) with u = g^{-1} b; the
    super family's is the negative (sign -1)."""
    nums, den = _b_block(b, metric, sign)
    return reshape([ratio(x, den) for x in nums], metric.dim, 3)


def current_from_parameters(p: CurrentParameters, metric: Metric) -> Current:
    """Assemble the closed-form current from its parameters: j3 = omega3 +
    s3 + the b-family block, j2 = s2 - omega3 b / 2 and j1 = s1, each
    entry an int sum over one denominator."""
    n = p.dim
    if metric.dim != n:
        raise ValueError("metric dimension mismatch")
    m = n**3
    nums, den = cleared(flatten(p.omega3, 3) + flatten(p.s3, 3) + flatten(p.s2, 2))
    omega3, s3, s2 = nums[:m], nums[m : 2 * m], nums[2 * m :]
    block, block_den = _b_block(p.b, metric, 1)
    common = lcm(den, block_den)
    f, g = common // den, common // block_den
    j3 = [ratio((omega3[i] + s3[i]) * f + block[i] * g, common) for i in range(m)]
    # j2[a][b] = (2 bd s2[a][b] - omega3[a][b][r] b_nums[r]) / (2 den bd)
    b_nums, bd = cleared(p.b)
    j2 = [ratio(2 * bd * s2[i] - sum(omega3[i * n + r] * b_nums[r] for r in range(n)), 2 * den * bd) for i in range(n * n)]
    return Current(reshape(j3, n, 3), reshape(j2, n, 2), tuple(p.s1))


def current_to_deformation(c: Current, a: AlgebraPresentation) -> DeformationMap:
    """Deformation with phi(W^rho) = J^rho, per the relation-label convention."""
    return _read_current(c, a)


def _read_current(c: Current, a: AlgebraPresentation) -> DeformationMap:
    """The deformation of ``a`` whose tail of relation rho is J^rho.

    The arrays are read straight into integer parts over the lcm of the
    denominators: j1[rho] at word index 0 of degree 0, j2[mu][rho] at index
    mu and j3[mu][nu][rho] at index mu dim + nu, zeros dropped, in the order
    of :func:`~pbwforge.pbw.deformation_from_tails` on ``c.tails()``.  Each
    numerator and denominator is read once, as an int.
    """
    n = a.dim_v
    if c.dim != n or len(a.relation_basis) != n:
        raise ValueError("current shape does not match the presentation")
    # (degree, word index, the coefficients over rho) of each word, words in order
    columns = [(0, 0, c.j1)]
    columns += [(1, mu, column) for mu, column in enumerate(c.j2)]
    columns += [(2, mu * n + nu, column) for mu, block in enumerate(c.j3) for nu, column in enumerate(block)]
    ratios = []  # (degree, rho, word index, numerator, denominator) of each nonzero coefficient
    for j, i, column in columns:
        for rho, x in enumerate(column):
            num = x.numerator
            if num:
                ratios.append((j, rho, i, num, x.denominator))
    den = lcm(*{ratio[4] for ratio in ratios})
    parts = [[[] for _ in range(n)] for _ in range(max(a.degree, 3))]
    for j, rho, i, num, d in ratios:
        parts[j][rho].append((i, num * (den // d)))
    if any(any(part) for part in parts[a.degree :]):
        raise ValueError("tails must lie in F^(N-1)")
    return DeformationMap(a, den, tuple(parts[: a.degree]))


def flatten_top_block(j3, dim: int) -> tuple:
    """Flatten a j3 coefficient array into stage-1 classifier coordinates:
    u[k * dim^2 + mu * dim + nu] = j3[mu][nu][k]."""
    out = []
    for k in range(dim):
        for mu in range(dim):
            for nu in range(dim):
                out.append(rational(j3[mu][nu][k]))
    return tuple(out)


def b_family_generators(metric: Metric, sign: int = 1) -> list:
    """The b-family blocks at the unit covectors b = e_0 .. e_s, flattened
    into stage-1 coordinates (``sign`` as in :func:`b_family_block`)."""
    n = metric.dim
    units = [tuple(ONE if r == rp else ZERO for r in range(n)) for rp in range(n)]
    return [flatten_top_block(b_family_block(b, metric, sign), n) for b in units]


def iym_family_generators(metric: Metric) -> list:
    """Generators of the regular family's top block: the b-family, the
    antisymmetric 3-tensors, and the symmetric 3-tensors, flattened into
    stage-1 coordinates."""
    n = metric.dim
    gens = b_family_generators(metric)
    for combo in combinations(range(n), 3):
        j3 = nested_zeros(n, 3)
        for perm in permutations(combo):
            j3[perm[0]][perm[1]][perm[2]] = ONE * permutation_sign(perm)
        gens.append(flatten_top_block(j3, n))
    for combo in combinations_with_replacement(range(n), 3):
        j3 = nested_zeros(n, 3)
        for perm in set(permutations(combo)):
            j3[perm[0]][perm[1]][perm[2]] = ONE
        gens.append(flatten_top_block(j3, n))
    return gens


def physics_current(
    b: Sequence, omega3, s1: Sequence, metric: Metric
) -> tuple[Current, dict]:
    """Current built from field strengths only: b_lam F^{lam mu} +
    omega^{lam rho mu} F_{lam rho} + s^mu 1.

    Returns the expanded current together with a report of the two
    orthogonality constraints (b against omega3 and against s1) that the
    regularity theorem imposes on this form.
    """
    n = metric.dim
    b = tuple(rational(x) for x in b)
    s1 = tuple(rational(x) for x in s1)
    if not swap_sign_holds(omega3, n, 3, -1):
        raise ValueError("omega3 must be totally antisymmetric")
    G = metric.g_inv.data
    j3 = nested_zeros(n, 3)
    for mu in range(n):
        # b_lam F^{lam mu} = b_lam g^{lam a} g^{mu b} (e_a e_b - e_b e_a)
        for lam in range(n):
            if b[lam] == 0:
                continue
            for a in range(n):
                for b_ in range(n):
                    coeff = b[lam] * G[lam][a] * G[mu][b_]
                    if coeff != 0:
                        j3[a][b_][mu] = j3[a][b_][mu] + coeff
                        j3[b_][a][mu] = j3[b_][a][mu] - coeff
        # omega^{lam rho mu} F_{lam rho} = omega^{lam rho mu} (e_lam e_rho - e_rho e_lam)
        for lam in range(n):
            for rho in range(n):
                coeff = omega3[lam][rho][mu]
                if coeff != 0:
                    j3[lam][rho][mu] = j3[lam][rho][mu] + coeff
                    j3[rho][lam][mu] = j3[rho][lam][mu] - coeff
    current = Current(freeze(j3), freeze(nested_zeros(n, 2)), s1)
    constraints = {
        "b_omega_orthogonal": all(
            sum((b[lam] * omega3[lam][mu][nu] for lam in range(n)), ZERO) == 0
            for mu in range(n)
            for nu in range(n)
        ),
        "b_s_orthogonal": sum((b[lam] * s1[lam] for lam in range(n)), ZERO) == 0,
    }
    return current, constraints
