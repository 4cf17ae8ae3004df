"""PBW property of filtered deformations U = T(V)/({x - phi(x)}).

The theorem-based checker evaluates three conditions on the overlap
space W = (R tensor V) intersect (V tensor R): the top-level bracket
image must land in R, the intermediate composites must vanish, and the
scalar composite must vanish.  A deformation is its tails, one per
relation basis vector, held as ints over one denominator and split by
degree (``DeformationMap.parts``; :func:`deformation_from_tails` is the
one converter from rational tails).  Every bracket is one sparse integer
combination of tails read off the presentation's overlap core
(``AlgebraPresentation.overlap``), so W and its side decompositions are
computed once per presentation, not once per deformation.  The lower
conditions are written once, as :func:`level_numerators`: the checker
tests that its integers vanish, and the classifier solves the same
integers on unit parts for the unknown lower blocks.  Because the
deformed relations are graphs {x - phi(x)}, the ideal meets F^(N-1)
trivially by construction; that condition needs no computation.

The top brackets, their relation coordinates
(``AlgebraPresentation.relation_frame``, an integer product and one
exact comparison each), the level residuals and the conservation check
use only ring operations on the numerators, and a rational is built only
for an output: a j1 witness, a conservation residual that is read, or
the tails for the oracle.  The conservation law decides from the
degree-N part of the divergence, whose coefficients the relations force;
the canonical residual (``linalg.residual``) is computed only when read.
It reads neither W nor the brackets, so it stays an independent
certificate.

The brute-force oracle is fully independent: it spans the filtered ideal
by explicit products up to a degree cutoff and compares quotient
dimensions against the graded algebra.  It can refute the PBW property
definitively at a finite cutoff, but can only ever report bounded
consistency in the positive direction.  Its span (:class:`IdealSpan`)
is built level by level: each level takes the left shifts of the level
below and that level's other rows, the latter as they stand wherever no
shift has their pivot, and eliminates only those rows that meet a
shift's pivot and the products p b of its own right-word length.  It
never builds a row p b whose right word b = u lt u'' contains a leading
word lt of the relations at least as long as p (induction on b,
Bergman's normal-word argument, *Adv. Math.* 29 (1978)).  Both rules
read only the relations, never W or the brackets.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .algebra import AlgebraPresentation, graded_dim, left_shifts, primitive_terms, reducible_words
from .linalg import Frozen, SparseEchelon, residual
from .rationals import times
from .tensors import (
    ResourceGuardError,  # noqa: F401  (re-exported for callers of the oracle)
    TensorElement,
    add_images,
    filtered_dim,
    guard_tensor_dim,
)


class DeformationMap(Frozen):
    """phi(r_k) = tails[k] in F^(N-1), one tail per vector r_k of the
    algebra's distinguished relation basis, held as integers.

    ``parts[j][k]`` holds the (word, int) pairs of the degree-j part of
    tails[k], every int over the one denominator ``den``; parts[j] is the
    graded map phi_j : R -> V^(tensor j).  The chain and the conservation
    law read only these ints, so a numerator needs only ring operations.
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
        """The tails as rationals, built on first read (outputs and the oracle)."""
        dim_v = self.algebra.dim_v
        return tuple(
            TensorElement.from_integers(dim_v, {w: x for part in self.parts for w, x in part[k]}, self.den)
            for k in range(len(self.algebra.relation_basis))
        )

    @cached_property
    def _top(self) -> tuple:
        """(den, numerators, coords) for the top bracket (phi_(N-1) tensor I
        - I tensor phi_(N-1))(x) = numerators / den of each x in W, in overlap
        basis order, with coords its relation coordinates as (den, ints)
        (:meth:`~pbwforge.linalg.BasisCoordinates.integer_coordinates`), or
        None outside R; computed once per deformation."""
        frame = self.algebra.relation_frame
        top = []
        for bracket_den, entries in self.algebra.overlap.entries:
            terms = add_images({}, self.parts[-1], entries)
            coords = frame.integer_coordinates(terms)
            bracket_den *= self.den
            top.append((bracket_den, terms, None if coords is None else (frame.den * bracket_den, coords)))
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
    :attr:`DeformationMap.parts`).  Each residual is (den, {word: int}),
    one integer sum over a common denominator, zeros dropped.  The
    deformation is PBW at level j iff every residual vanishes; for fixed
    c_i they are linear in the parts, which the classifier solves for.
    """
    out = []
    for (coord_den, c), (bracket_den, entries) in zip(coords, a.overlap.entries):
        coord_den *= den
        bracket_den *= den
        common = lcm(coord_den, bracket_den) if j else coord_den
        terms = add_images({}, parts[j], [(k, (), (), ck) for k, ck in enumerate(c) if ck], common // coord_den)
        if j:
            add_images(terms, parts[j - 1], entries, common // bracket_den)
        out.append((common, {w: x for w, x in terms.items() if x}))
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
    den = lcm(*(int(c.denominator) for t in tails for c in t.terms.values()))
    parts = tuple([[] for _ in tails] for _ in range(algebra.degree))
    for k, t in enumerate(tails):
        for w, c in t.terms.items():
            parts[len(w)][k].append((w, times(c, den)))
    return DeformationMap(algebra, den, parts)


def check_j1(d: DeformationMap) -> tuple[bool, Optional[TensorElement]]:
    """Top condition: the bracket image of the overlap space lies in R.

    Returns (holds, witness); the witness is an offending image vector.
    """
    for den, terms, coords in d._top:
        if coords is None:
            return False, TensorElement.from_integers(d.algebra.dim_v, terms, den)
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


class IdealSpan:
    """Echelon basis of span{a p b : |a| + N + |b| <= cutoff} in F^cutoff.

    A word w of degree d has the integer key start[d] + word_index(w),
    with start[cutoff] = 0 and each lower degree's block placed after the
    block of the degree above, so keys order words by decreasing degree,
    then lexicographically.  Basis rows whose pivot key is at least
    start[n], the rows with pivot in degree <= n, then span exactly the
    intersection with F^n.

    The span is built level by level.  With J_t the span of the a p b
    with |a| + |b| <= t,

        J_t = V tensor J_(t-1) + span(carried) + span{p b : |b| = t},

    where ``carried`` holds the echelon rows of J_(t-1) that are not left
    shifts.  The echelon rows of J_(t-1) are the left shifts of those of
    J_(t-2), which lie in V tensor J_(t-2), inside V tensor J_(t-1), and
    the carried rows; so J_(t-1), which holds every p b with |b| < t, lies
    in the right-hand side, and J_t = V tensor J_(t-1) + J_(t-1) +
    span{p b : |b| = t} is all of it.  Prefixing a letter keeps the key
    order, so the left shifts of the echelon rows of J_(t-1) are echelon
    rows of V tensor J_(t-1) as they stand
    (:func:`~pbwforge.algebra.left_shifts`, each key's place read from a
    table built once per span).  A carried row whose pivot no shift has
    is stored as it stands, and the others are inserted; so each level
    eliminates only those and the rows p b with |b| = t, each relation a
    primitive integer row placed by index arithmetic.

    Leading words.  The pivot words of J_0, the span of the relations,
    are the leading words lt(q) of its echelon rows q.  Row p b is never
    built when b = u lt(q) u'' with |lt(q)| >= max(deg p, 1); every pivot
    is unchanged.  Write q = c lt(q) + q', every word of q' after lt(q)
    in the key order (shorter, or as long and lexicographically later).
    Then c p b = p u q u'' - p u q' u''.  The first term is a combination
    of rows w u p_i u'' over the words w of p and relations p_i; as
    |w| <= |lt(q)|, |w u| + |u''| <= |b| = t, so each lies in
    V tensor J_(t-1), or is p_i u'' with a shorter right word when w u
    is empty, in J_(t-1) inside J_t.  The second term is a combination of
    rows p b' with b' shorter than b, again in J_(t-1), or as long and
    lexicographically later.  Induction on b in that well-founded order
    puts p b in J_t: Bergman's normal words (*Adv. Math.* 29 (1978)),
    used as a product criterion.  The length bound matters: without it
    the first term can leave J_t, and the span of x y x + 2 y and
    (1/3) y y + x + 5 over two letters would lose 5 dimensions at
    cutoff 6.  The rule reads only the relations.
    """

    def __init__(self, relations: Sequence[TensorElement], dim_v: int, cutoff: int):
        if any(p.dim_v != dim_v for p in relations):
            raise ValueError("relation over the wrong generator space")
        # no relations span the zero ideal: every level is empty
        degree = max((r.max_degree for r in relations), default=0)
        if cutoff < degree:
            raise ValueError("cutoff below the relation degree")
        guard_tensor_dim(dim_v, cutoff)
        self.dim_v = dim_v
        self.cutoff = cutoff
        self.start = start = [0] * (cutoff + 1)
        for d in range(cutoff - 1, -1, -1):
            start[d] = start[d + 1] + dim_v ** (d + 1)
        # place[k] = (start[d + 1] + index(w), dim^d) for the word w of degree
        # d < cutoff with key k, so key(x w) = start[d + 1] + x dim^d + index(w)
        place = [None] * dim_v**cutoff
        for d in range(cutoff - 1, -1, -1):
            place += [(start[d + 1] + i, dim_v**d) for i in range(dim_v**d)]

        rows = [primitive_terms(p) for p in relations]
        self.echelon = echelon = SparseEchelon()
        carried = {}  # the echelon rows of J_(t-1) that are not left shifts
        skip = [[[False]]] * len(rows)  # level 0 has only the empty right word
        for t in range(cutoff - degree + 1):
            shifts = left_shifts(echelon.rows, dim_v, place)
            echelon.rows = shifts | {p: row for p, row in carried.items() if p not in shifts}
            for p, row in carried.items():
                if p in shifts:
                    echelon.insert(row)
            right_size = dim_v**t
            # key of w b = start[|w| + t] + index(w) dim^t + index(b)
            placed = [[(start[m + t] + wi * right_size, c) for m, wi, c in terms] for terms in rows]
            for right in range(right_size):
                for j, terms in enumerate(placed):
                    if not skip[j][t][right]:
                        echelon.insert({base + right: c for base, c in terms})
            carried = {p: row for p, row in echelon.rows.items() if p not in shifts}
            if t == 0:
                # the leading words are the pivots of J_0, as (degree, word index);
                # relation j skips only those at least as long as itself (and never
                # the empty word)
                leading = [next((d, k - start[d]) for d in range(cutoff + 1) if start[d] <= k) for k in echelon.rows]
                masks = {
                    n: reducible_words([w for w in leading if w[0] >= max(n, 1)], dim_v, cutoff - degree)
                    for n in {p.max_degree for p in relations}
                }
                skip = [masks[p.max_degree] for p in relations]

    def intersection_dim(self, n: int) -> int:
        """dim of span intersect F^n."""
        if n > self.cutoff:
            raise ValueError("n exceeds the cutoff")
        return sum(1 for p in self.echelon.rows if p >= self.start[n])


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
    # the deformed relations r_k - tails[k] times frame.lcm den, with int
    # coefficients: R's integer rows and the deformation's parts, no rational
    frame = a.relation_frame
    relations = []
    for k, row in enumerate(frame.rows):
        terms = {w: d.den * c for w, c in row.items()}
        for images in d.parts:
            terms.update((w, -frame.lcm * c) for w, c in images[k])
        relations.append(TensorElement(a.dim_v, terms))
    span = IdealSpan(relations, a.dim_v, cutoff)
    quotients = []
    expected = []
    running = 0
    failure = None
    for n in range(n_max + 1):
        q = filtered_dim(a.dim_v, n) - span.intersection_dim(n)
        running += graded_dim(a, n)
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
    is the divergence times the deformation's den, keyed by word."""

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
        # the deformed relations frame.lcm den (r_k - tails[k]), keyed (degree, word)
        frame = a.relation_frame
        relations = [{(a.degree, w): d.den * c for w, c in row.items()} for row in frame.rows]
        for images in d.parts:
            for row, image in zip(relations, images):
                row.update(((len(w), w), -frame.lcm * c) for w, c in image)
        divergence = {(len(w), w): c for w, c in self.divergence.items()}
        res = residual(relations, divergence, d.den)
        return TensorElement(a.dim_v, {w: c for (_, w), c in res.items()})


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
    top, low = {}, {}  # the divergence times den, its degree-N part apart
    for j, images in enumerate(d.parts):
        divergence = top if j == a.degree - 1 else low
        for rho, image in enumerate(images):
            for w, c in image:
                left, right = (rho,) + w, w + (rho,)
                divergence[left] = divergence.get(left, 0) + c
                divergence[right] = divergence.get(right, 0) - c
    frame = a.relation_frame
    coords = frame.integer_coordinates(top)
    if coords is not None:
        # the coefficients are coords / (frame.den den); scaled by frame.den den^2,
        # the lower parts must cancel
        rest = {w: frame.den * d.den * c for w, c in low.items() if c}
        entries = [(k, (), (), ck) for k, ck in enumerate(coords) if ck]
        for images in d.parts:
            add_images(rest, images, entries)
        if not any(rest.values()):
            return ConservationResult(True, d, {})
    return ConservationResult(False, d, top | low)
