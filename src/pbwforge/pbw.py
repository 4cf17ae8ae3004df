"""PBW property of filtered deformations U = T(V)/({x - phi(x)}).

The theorem-based checker evaluates three conditions on the overlap
space W = (R tensor V) intersect (V tensor R): the top-level bracket
image must land in R, the intermediate composites must vanish, and the
scalar composite must vanish.  A deformation is its tails, one per
relation basis vector, held as ints over one denominator and split by
degree, each word keyed by its index (``DeformationMap.parts``;
:func:`deformation_from_tails` is the one converter from rational
tails).  Every bracket is one sparse integer combination of tails read
off the presentation's overlap core (``AlgebraPresentation.overlap``),
with a letter put before or after a word by index arithmetic
(:func:`~pbwforge.tensors.add_images`), so W and its side
decompositions are computed once per presentation, not once per
deformation.  The lower conditions are written once, as
:func:`level_numerators`: the checker tests that its integers vanish,
and the classifier solves the same integers on unit parts for the
unknown lower blocks.  Because the
deformed relations are graphs {x - phi(x)}, the ideal meets F^(N-1)
trivially by construction; that condition needs no computation.

The top brackets, their relation coordinates and residuals modulo R
(``AlgebraPresentation.relation_frame``, an integer product and one
sparse difference each; the residuals are also the classifier's stage-1
equations), the level residuals and the conservation check use only
ring operations on the numerators, and a rational is built only for an
output: a j1 witness or a conservation residual that is read.  The
conservation law decides from the degree-N part of the divergence, whose
coefficients the relations force; the canonical residual
(``linalg.residual``) is computed only when read.  It reads neither W
nor the brackets, so it stays an independent certificate.

The brute-force oracle is independent of the other two: it spans the
filtered ideal by explicit products up to a degree cutoff and compares
quotient dimensions against the graded algebra.  It can refute the PBW
property definitively at a finite cutoff, but can only ever report
bounded consistency in the positive direction.  Its quotients and its
expected dimensions both come from the one ideal builder
(:class:`~pbwforge.algebra.IdealSpan`), on the deformed relations and on
R; it reads only the relations, never W or the brackets.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .algebra import AlgebraPresentation, IdealSpan, graded_dims
from .linalg import Frozen, residual
from .rationals import times
from .tensors import (
    ResourceGuardError,  # noqa: F401  (re-exported for callers of the oracle)
    TensorElement,
    add_combination,
    add_images,
    filtered_dim,
    word_index,
    word_table,
)


class DeformationMap(Frozen):
    """phi(r_k) = tails[k] in F^(N-1), one tail per vector r_k of the
    algebra's distinguished relation basis, held as integers.

    ``parts[j][k]`` holds the (word index, int) pairs of the degree-j part
    of tails[k], the index in the lexicographic basis of V^(tensor j) and
    every int over the one denominator ``den``; parts[j] is the graded map
    phi_j : R -> V^(tensor j).  The chain and the conservation law read
    only these ints, so a numerator needs only ring operations.
    :func:`deformation_from_tails` builds them from rational tails.  The
    deformed relations r_k - tails[k] form a graph over R, so the ideal's
    intersection with F^(N-1) is automatically zero.
    """

    _fields = ("algebra", "den", "parts")

    def __init__(self, algebra: AlgebraPresentation, den: int, parts: tuple) -> None:
        self._set("algebra", algebra)
        self._set("den", den)
        self._set("parts", parts)

    @cached_property
    def tails(self) -> tuple:
        """The tails as rationals, built on first read (outputs)."""
        dim_v = self.algebra.dim_v
        tables = [word_table(dim_v, j) for j in range(len(self.parts))]
        return tuple(
            TensorElement.from_integers(
                dim_v, {table[i]: x for table, part in zip(tables, self.parts) for i, x in part[k]}, self.den
            )
            for k in range(len(self.algebra.relation_basis))
        )

    @cached_property
    def _top(self) -> tuple:
        """(den, numerators, coords) for the top bracket (phi_(N-1) tensor I
        - I tensor phi_(N-1))(x) = numerators / den of each x in W, in overlap
        basis order, the numerators keyed by degree-N word index, with coords
        its relation coordinates as (den, ints)
        (:meth:`~pbwforge.linalg.BasisCoordinates.integer_coordinates`), or
        None outside R; computed once per deformation."""
        a = self.algebra
        frame = a.relation_frame
        top = []
        for bracket_den, entries in a.overlap.entries:
            terms = add_images({}, self.parts[-1], entries, a.dim_v, a.degree - 1)
            coords, rest = frame.integer_coordinates(terms)
            bracket_den *= self.den
            top.append((bracket_den, terms, None if rest else (frame.den * bracket_den, coords)))
        return tuple(top)

    @property
    def inner_coords(self) -> tuple:
        """Relation coordinates of each top bracket as (den, ints), in
        overlap basis order; raises ValueError when some top bracket is not in R."""
        coords = tuple(c for _, _, c in self._top)
        if None in coords:
            raise ValueError("element is not in the relation space")
        return coords

    def deformed_relations(self) -> tuple:
        """The relations r_k - tails[k], in relation basis order."""
        return tuple(r - t for r, t in zip(self.algebra.relation_basis, self.tails))


def level_numerators(a: AlgebraPresentation, coords: Sequence, den: int, parts, j: int) -> list:
    """The level-j residual on each overlap vector x_i, in overlap basis
    order: phi_j(c_i) + (phi_(j-1) tensor I - I tensor phi_(j-1))(x_i) for
    j >= 1 and phi_0(c_i) for j = 0, where c_i = ``coords[i]``, as (den,
    ints), are the relation coordinates of the top bracket of x_i and
    phi_j is ``parts[j]`` over ``den`` (the layout of
    :attr:`DeformationMap.parts`).  Each residual is (den, {word index:
    int}) in degree j, one integer sum over a common denominator, zeros
    dropped.  The deformation is PBW at level j iff every residual
    vanishes; for fixed c_i they are linear in the parts, which the
    classifier solves for.
    """
    out = []
    for (coord_den, c), (bracket_den, entries) in zip(coords, a.overlap.entries):
        coord_den *= den
        bracket_den *= den
        common = lcm(coord_den, bracket_den) if j else coord_den
        terms = add_combination({}, parts[j], c, common // coord_den)
        if j:
            add_images(terms, parts[j - 1], entries, a.dim_v, j - 1, common // bracket_den)
        out.append((common, {i: x for i, x in terms.items() if x}))
    return out


def deformation_from_tails(
    algebra: AlgebraPresentation, tails: Sequence[TensorElement]
) -> DeformationMap:
    """Build the deformation with phi(r_k) = tails[k] in F^(N-1): the tails
    cleared once, over one lcm of all their denominators, and split by degree."""
    if len(tails) != len(algebra.relation_basis):
        raise ValueError("one tail per relation basis vector is required")
    for t in tails:
        if t.dim_v != algebra.dim_v:
            raise ValueError("tail over the wrong generator space")
        if t.max_degree >= algebra.degree:
            raise ValueError("tails must lie in F^(N-1)")
    den = lcm(*(c.denominator for t in tails for c in t.terms.values()))
    parts = tuple([[] for _ in tails] for _ in range(algebra.degree))
    for k, t in enumerate(tails):
        for w, c in t.terms.items():
            parts[len(w)][k].append((word_index(w, algebra.dim_v), times(c, den)))
    return DeformationMap(algebra, den, parts)


def check_j1(d: DeformationMap) -> tuple[bool, Optional[TensorElement]]:
    """Top condition: the bracket image of the overlap space lies in R.

    Returns (holds, witness); the witness is an offending image vector.
    """
    a = d.algebra
    for den, terms, coords in d._top:
        if coords is None:
            table = word_table(a.dim_v, a.degree)
            return False, TensorElement.from_integers(a.dim_v, {table[i]: x for i, x in terms.items()}, den)
    return True, None


def check_j2(d: DeformationMap, j: int) -> bool:
    """Level-j condition: every residual of :func:`level_numerators` at
    level j is zero.  Requires the top
    condition (each top bracket must lie in R); violating that
    precondition raises ValueError.
    """
    if not 1 <= j <= d.algebra.degree - 1:
        raise ValueError(f"level must be in 1..{d.algebra.degree - 1}")
    return not any(terms for _, terms in level_numerators(d.algebra, d.inner_coords, d.den, d.parts, j))


def check_j3(d: DeformationMap) -> bool:
    """Scalar condition: phi_0 of the bracket vanishes on the overlap space.
    Requires the top condition, as :func:`check_j2` does."""
    return not any(terms for _, terms in level_numerators(d.algebra, d.inner_coords, d.den, d.parts, 0))


class PbwVerdict(NamedTuple):
    j1_holds: bool
    j2_holds: tuple  # one entry per level j = 1..N-1; None = not applicable
    j3_holds: Optional[bool]
    witness: Optional[TensorElement]
    overall: bool


def pbw_verdict(d: DeformationMap) -> PbwVerdict:
    """Conjunction of all conditions; equals the PBW property whenever the
    homogeneous part is Koszul (an assumption the caller asserts)."""
    n = d.algebra.degree
    j1, witness = check_j1(d)
    if not j1:
        return PbwVerdict(False, (None,) * (n - 1), None, witness, False)
    j2 = tuple(check_j2(d, j) for j in range(1, n))
    j3 = check_j3(d)
    return PbwVerdict(True, j2, j3, None, all(j2) and j3)


class OracleResult(NamedTuple):
    n_max: int
    cutoff: int
    quotient_dims: tuple  # dim F^n / J_n for n = 0..n_max
    expected_dims: tuple  # cumulative graded dims of the homogeneous algebra
    verdict: str  # "FAIL" | "CONSISTENT" | "INCONCLUSIVE"
    failure_degree: Optional[int]


def brute_force_oracle(d: DeformationMap, n_max: int, cutoff: Optional[int] = None) -> OracleResult:
    """Compare filtered quotient dimensions with the graded algebra.

    FAIL (a quotient is strictly smaller than the graded count) is a
    definitive refutation of the PBW property.  CONSISTENT means every
    quotient matches up to the cutoff: bounded evidence, not a proof.
    INCONCLUSIVE means the cutoff was too low for the span to reach the
    full filtered ideal in some degree.
    """
    if cutoff is None:
        cutoff = n_max + 1
    if cutoff < n_max:
        raise ValueError("cutoff must be at least n_max")
    a = d.algebra
    # the deformed relations r_k - tails[k] times frame.lcm den as int rows keyed
    # (degree, word index): R's integer rows and the deformation's parts
    frame = a.relation_frame
    relations = []
    for k, row in enumerate(frame.rows):
        terms = {(a.degree, i): d.den * c for i, c in row.items()}
        for j, images in enumerate(d.parts):
            terms.update(((j, i), -frame.lcm * c) for i, c in images[k])
        relations.append(terms)
    span = IdealSpan(relations, a.dim_v, cutoff)
    quotients = []
    expected = []
    running = 0
    failure = None
    for n, dim in enumerate(graded_dims(a, n_max)):
        q = filtered_dim(a.dim_v, n) - span.intersection_dim(n)
        running += dim
        quotients.append(q)
        expected.append(running)
        if q < running and failure is None:
            failure = n
    if failure is not None:
        verdict = "FAIL"
    elif all(q == e for q, e in zip(quotients, expected)):
        verdict = "CONSISTENT"
    else:
        verdict = "INCONCLUSIVE"
    return OracleResult(n_max, cutoff, tuple(quotients), tuple(expected), verdict, failure)


class ConservationResult(Frozen):
    """Whether the divergence of a current reduces to zero modulo the
    deformed relations.  ``residual``, the canonical remainder
    (:func:`~pbwforge.linalg.residual`), is computed on first read, so a
    caller that reads only ``conserved`` never pays for it.  ``divergence``
    is the divergence times the deformation's den, by degree:
    divergence[j] is its degree-j part keyed by word index."""

    _fields = ("conserved", "deformation", "divergence")

    def __init__(self, conserved: bool, deformation: DeformationMap, divergence: dict) -> None:
        self._set("conserved", conserved)
        self._set("deformation", deformation)
        self._set("divergence", divergence)

    @cached_property
    def residual(self) -> TensorElement:
        d = self.deformation
        a = d.algebra
        if self.conserved:
            return TensorElement.zero(a.dim_v)
        # the deformed relations frame.lcm den (r_k - tails[k]), keyed (degree, word
        # index): lowest degree first, lexicographic within each degree
        frame = a.relation_frame
        relations = [{(a.degree, i): d.den * c for i, c in row.items()} for row in frame.rows]
        for j, images in enumerate(d.parts):
            for row, image in zip(relations, images):
                row.update(((j, i), -frame.lcm * c) for i, c in image)
        divergence = {(j, i): c for j, part in enumerate(self.divergence) for i, c in part.items()}
        res = residual(relations, divergence, d.den)
        return TensorElement(a.dim_v, {word_table(a.dim_v, j)[i]: c for (j, i), c in res.items()})


def conservation_residual(d: DeformationMap) -> ConservationResult:
    """Divergence [e_rho, J^rho] of the current, reduced modulo the
    deformed relations.

    Requires a Yang-Mills-form presentation: one relation per generator,
    with the two-sided overlap identity sum(e_rho (x) r^rho) =
    sum(r^rho (x) e_rho) holding exactly.  The divergence then reduces to
    zero iff the deformation satisfies the PBW conditions.

    The divergence lies in F^N, and the top parts of the deformed
    relations r_k - tails[k] are R's basis, so it lies in their span iff
    its degree-N part has relation coordinates a and its lower part is
    -sum a_k tails[k]: one exact comparison on the deformation's ints
    (``DeformationMap.parts``) and R's integer rows
    (``AlgebraPresentation.relation_frame``).
    """
    a = d.algebra
    if not a.two_sided_identity:
        raise ValueError("conservation requires one relation per generator and the two-sided identity")
    # the divergence sum_rho (e_rho J^rho - J^rho e_rho) times den, by degree:
    # its degree-(j + 1) part comes from the degree-j parts
    sides = [(rho, "left", rho, 1) for rho in range(a.dim_v)]
    sides += [(rho, "right", rho, -1) for rho in range(a.dim_v)]
    divergence = [{}] + [add_images({}, images, sides, a.dim_v, j) for j, images in enumerate(d.parts)]
    frame = a.relation_frame
    coords, rest = frame.integer_coordinates(divergence[-1])
    if not rest:
        # the coefficients are coords / (frame.den den); scaled by frame.den den^2,
        # each lower part must cancel
        scale = frame.den * d.den
        for part, images in zip(divergence, d.parts):
            if any(add_combination({i: scale * c for i, c in part.items() if c}, images, coords).values()):
                break
        else:
            return ConservationResult(True, d, ())
    return ConservationResult(False, d, tuple(divergence))
