"""Homogeneous N-algebras T(V)/(R): the ideal span, graded dimensions,
the overlap space W = (R tensor V) intersect (V tensor R), and the
overlap core shared by the PBW checker and the classifier.

:class:`IdealSpan` is the one ideal builder.  The oracle runs it on the
deformed relations, and graded dimensions and ideal components read it
on R's rows: each a r b is homogeneous, so J intersect F^m = I_0 + ... +
I_m with I_m the degree-m block, and dim A_m = dim V^m - dim I_m.  No
Hilbert-series assumption ever enters the computation.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from functools import cached_property
from itertools import combinations, permutations
from math import lcm
from typing import Sequence

from .linalg import BasisCoordinates, Frozen, SparseEchelon, Subspace
from .rationals import ONE, ZERO, times
from .tensors import (
    TensorElement,
    guard_tensor_dim,
    side_decompose,
    side_tensor,
    word_table,
)


class AlgebraPresentation(Frozen):
    """Generators V of dimension s+1 and a relation space R in V^(tensor N).

    ``relation_basis`` is the distinguished ordered basis of R; relation
    coordinates everywhere refer to this ordering.
    """

    _fields = ("dim_v", "degree", "relation_basis")

    def __init__(self, dim_v: int, degree: int, relation_basis: tuple) -> None:
        if dim_v < 1:
            raise ValueError("need at least one generator")
        if degree < 2:
            raise ValueError("relation degree must be at least 2")
        for r in relation_basis:
            if r.dim_v != dim_v:
                raise ValueError("relation with mismatched generator count")
            if not r.is_homogeneous(degree) or r.is_zero():
                raise ValueError("relations must be nonzero and homogeneous of degree N")
        self._set("dim_v", dim_v)
        self._set("degree", degree)
        self._set("relation_basis", relation_basis)
        self.relation_frame  # raises ValueError when the basis is linearly dependent

    @cached_property
    def relation_frame(self) -> BasisCoordinates:
        """R's basis as integer rows keyed by the index of a degree-N word,
        and relation coordinates in it."""
        return BasisCoordinates([r.indexed() for r in self.relation_basis])

    @cached_property
    def relation_space(self) -> Subspace:
        return Subspace.from_sparse((r.indexed() for r in self.relation_basis), self.dim_v**self.degree)

    def relation_coords(self, x: TensorElement):
        """Coordinates of x in the distinguished relation basis.

        A call is one integer product and one exact sparse comparison
        (:meth:`~pbwforge.linalg.BasisCoordinates.coordinates`).
        Raises ValueError when x is not in R.
        """
        coords = self.relation_frame.coordinates(x.indexed()) if x.is_homogeneous(self.degree) else None
        if coords is None:
            raise ValueError("element is not in the relation space")
        return coords

    @cached_property
    def two_sided_identity(self) -> bool:
        """Whether sum e_rho (x) r_rho = sum r_rho (x) e_rho for a relation
        basis with one relation r_rho per generator e_rho."""
        total: dict = {}
        for rho, r in enumerate(self.relation_basis):
            for w, c in r.terms.items():
                total[(rho,) + w] = total.get((rho,) + w, ZERO) + c
                total[w + (rho,)] = total.get(w + (rho,), ZERO) - c
        return len(self.relation_basis) == self.dim_v and not any(total.values())

    @cached_property
    def overlap(self) -> "OverlapData":
        """The overlap core of this presentation, built on first use."""
        return OverlapData(self)


class LeftShift(Mapping):
    """x row as a read-only view of ``row`` (a dict or a view): key k of
    ``row`` is read at ``place[k]``, the key of x w for the word w of k.
    Only ``as_dict`` copies; the length and values are those of ``row``."""

    __slots__ = ("row", "place")

    def __init__(self, row, place: Sequence) -> None:
        self.row, self.place = row, place

    def as_dict(self) -> dict:
        place, row = self.place, self.row
        return {place[k]: c for k, c in (row if row.__class__ is dict else row.as_dict()).items()}

    def __len__(self) -> int:
        return len(self.row)

    def __iter__(self):
        return map(self.place.__getitem__, self.row)

    def __getitem__(self, key):
        return self.as_dict()[key]

    def items(self):
        return self.as_dict().items()

    def values(self):
        return self.row.values()


def left_shifts(rows: dict, place: Sequence) -> dict:
    """The views x row (:class:`LeftShift`) of every row and letter x, by pivot.

    ``rows`` are the pivot -> row dict of a :class:`SparseEchelon` whose
    key order is kept by prefixing a letter, and ``place[x][k]`` is the
    key of x w for the word w of key k, a table the caller builds once
    per key space.  So x row is again primitive with a positive pivot
    entry at x pivot, and shifts of distinct rows or by distinct letters
    have distinct pivots: the result is an echelon with no elimination.
    """
    return {table[p]: LeftShift(row, table) for p, row in rows.items() for table in place}


def reducible_words(leading, dim_v: int, k_max: int) -> list:
    """red[k][b] for k = 0..k_max: whether the word of length k and index
    b contains one of the ``leading`` words as a factor.

    ``leading`` holds (length, word index) pairs with length >= 1.  A
    factor is a suffix of a prefix, and the prefix of length k-1 of b has
    index b // dim, so red[k][b] = red[k-1][b // dim] or (b mod dim^L) is
    a leading word of length L <= k.
    """
    by_length = {}
    for length, index in leading:
        by_length.setdefault(length, set()).add(index)
    red = [[False]]
    for k in range(1, k_max + 1):
        prev = red[-1]
        tests = [(dim_v**length, words) for length, words in by_length.items() if length <= k]
        red.append(
            [prev[b // dim_v] or any(b % size in words for size, words in tests) for b in range(dim_v**k)]
        )
    return red


class IdealSpan:
    """Echelon basis of span{a p b : |a| + N + |b| <= cutoff} in F^cutoff,
    the engine's one ideal builder.

    A word w of degree d has the integer key start[d] + word_index(w),
    with start[cutoff] = 0 and each lower degree's block placed after the
    block of the degree above, so keys order words by decreasing degree,
    then lexicographically.  Basis rows whose pivot key is at least
    start[n], the rows with pivot in degree <= n, then span exactly the
    intersection with F^n.  A key of a relation's int row that is no pair
    of ints 0 <= m <= cutoff, 0 <= i < dim_v^m raises ValueError.

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
    rows of V tensor J_(t-1), stored as views until first reduced by
    (:func:`left_shifts`, each key's place read from a
    table built once per span).  A carried row whose pivot no shift has
    is stored as it stands, and the others are inserted; so each level
    eliminates only those and the rows p b with |b| = t, each relation an
    int row {(degree, word index): c} placed by index arithmetic.

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

    def __init__(self, relations: Sequence[dict], dim_v: int, cutoff: int):
        guard_tensor_dim(dim_v, cutoff)
        for key in (key for p in relations for key in p):
            m, i = key if type(key) is tuple and len(key) == 2 else (None, None)
            # a degree above the cutoff is reported below, as the relation's degree
            if type(m) is not int or type(i) is not int or m < 0 or i < 0 or m <= cutoff and i >= dim_v**m:
                raise ValueError(f"key {key!r} is no (degree, word index) of a word over {dim_v} letters")
        degrees = [max((m for m, _ in p), default=0) for p in relations]
        # no relations span the zero ideal: every level is empty
        degree = max(degrees, default=0)
        if cutoff < degree:
            raise ValueError("cutoff below the relation degree")
        self.dim_v = dim_v
        self.cutoff = cutoff
        self.start = start = [0] * (cutoff + 1)
        for d in range(cutoff - 1, -1, -1):
            start[d] = start[d + 1] + dim_v ** (d + 1)
        # place[x][k] = start[d + 1] + x dim^d + index(w), the key of x w for the
        # word w of degree d < cutoff with key k
        place = [[None] * dim_v**cutoff for _ in range(dim_v)]
        for d in range(cutoff - 1, -1, -1):
            for x, table in enumerate(place):
                table += range(start[d + 1] + x * dim_v**d, start[d + 1] + (x + 1) * dim_v**d)

        self.echelon = echelon = SparseEchelon()
        carried = {}  # the echelon rows of J_(t-1) that are not left shifts
        skip = [[[False]]] * len(relations)  # level 0 has only the empty right word
        for t in range(cutoff - degree + 1):
            shifts = left_shifts(echelon.rows, place)
            echelon.rows = shifts | {p: row for p, row in carried.items() if p not in shifts}
            for p, row in carried.items():
                if p in shifts:
                    echelon.insert(row)
            right_size = dim_v**t
            # key of w b = start[|w| + t] + index(w) dim^t + index(b)
            placed = [[(start[m + t] + wi * right_size, c) for (m, wi), c in p.items()] for p in relations]
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
                    for n in set(degrees)
                }
                skip = [masks[n] for n in degrees]

    def intersection_dim(self, n: int) -> int:
        """dim of span intersect F^n."""
        if n > self.cutoff:
            raise ValueError("n exceeds the cutoff")
        return sum(1 for p in self.echelon.rows if p >= self.start[n])


def _graded_span(a: AlgebraPresentation, n: int) -> IdealSpan:
    """The span of R's rows to a cutoff of at least n >= N, kept on the
    presentation; rebuilt at n only for n above its cutoff (which moves every key)."""
    span = a.__dict__.get("_graded_span")
    if span is None or span.cutoff < n:
        span = IdealSpan([{(a.degree, i): c for i, c in row.items()} for row in a.relation_frame.rows], a.dim_v, n)
        a._set("_graded_span", span)
    return span


def graded_dims(a: AlgebraPresentation, n: int) -> list:
    """Exact dimensions dim A_0, ..., dim A_n of A = T(V)/(R): dim V^m minus
    the pivots of the span of R in degree m, the keys from start[m] up to
    start[m - 1] (to the end for m = 0).  Below N no span is built; the
    resource guard runs on every call, cached or not."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    guard_tensor_dim(a.dim_v, n)
    if n < a.degree:
        return [a.dim_v**m for m in range(n + 1)]
    span = _graded_span(a, n)
    pivots = sorted(span.echelon.rows)
    ends = [len(pivots)] + [bisect_left(pivots, span.start[m]) for m in range(n + 1)]
    return [a.dim_v**m - ends[m] + ends[m + 1] for m in range(n + 1)]


def graded_dim(a: AlgebraPresentation, n: int) -> int:
    """Exact dimension of the degree-n part of T(V)/(R) (:func:`graded_dims`)."""
    return graded_dims(a, n)[n]


def ideal_component(a: AlgebraPresentation, n: int) -> Subspace:
    """Degree-n component of the two-sided ideal (R), in canonical form."""
    guard_tensor_dim(a.dim_v, n)
    size = a.dim_v**n
    span = _graded_span(a, max(n, a.degree))
    base, rows = span.start[n], span.echelon.rows
    return Subspace.from_sparse(({k - base: c for k, c in rows[p].items()} for p in rows if base <= p < base + size), size)


def overlap_space(a: AlgebraPresentation) -> Subspace:
    """(R tensor V) intersect (V tensor R) inside V^(tensor N+1)."""
    guard_tensor_dim(a.dim_v, a.degree + 1)
    r = a.relation_space
    if r.dim == 0:
        return Subspace.zero(a.dim_v ** (a.degree + 1))
    right = side_tensor(r, a.dim_v, "right", degree=a.degree)
    left = side_tensor(r, a.dim_v, "left", degree=a.degree)
    return right.intersect(left)


class OverlapData:
    """The overlap space W of a presentation with its side decompositions.

    Everything the PBW conditions and the classifier need from W depends
    on the presentation alone, so it is computed once here: the canonical
    basis x_i of W (``vectors``) and, per x_i, the nonzero coefficients
    of x_i in R (tensor) V and in V (tensor) R (:func:`side_decompose` on
    the one ``relation_frame``, whatever dim W is) as ints over one
    denominator (``entries``, the input of
    :func:`~pbwforge.tensors.add_images`): the coefficient c of
    r_k (tensor) e_lam is the entry (k, "right", lam, c), and that of
    e_lam (tensor) r_k the entry (k, "left", lam, -c).  Summed over the
    images of a map phi, they give (phi tensor I - I tensor phi)(x_i).
    The checker reads them on a deformation's integer parts, and the
    classifier on unit parts, through the same top brackets and level
    residuals (:func:`pbwforge.pbw.level_numerators`).
    """

    def __init__(self, a: AlgebraPresentation):
        w = overlap_space(a)
        self.space = w
        ws = word_table(a.dim_v, a.degree + 1)
        self.vectors = tuple(TensorElement(a.dim_v, {ws[k]: row[k] for k in sorted(row)}) for _, row in w.rows)
        # per overlap vector, (k, side, lam, c) for each nonzero entry, the left
        # ones negated, each kept as an int over the vector's common denominator
        # den: (den, entries)
        self.entries = []
        for x in self.vectors:
            r = side_decompose(x, a.relation_frame, "right", a.degree)
            l = side_decompose(x, a.relation_frame, "left", a.degree)
            entries = [(k, "right", lam, c) for k, row in enumerate(r.data) for lam, c in enumerate(row) if c]
            entries += [(k, "left", lam, -c) for k, row in enumerate(l.data) for lam, c in enumerate(row) if c]
            den = lcm(*(e[3].denominator for e in entries))
            self.entries.append((den, [(k, side, lam, times(c, den)) for k, side, lam, c in entries]))


def permutation_sign(perm: Sequence[int]) -> int:
    """+1 or -1 by the parity of the inversions of ``perm``."""
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def build_antisymmetrizer_relations(dim_v: int, degree: int) -> AlgebraPresentation:
    """Relations spanned by full antisymmetrizations of N distinct letters.

    For N=2 this presents the symmetric algebra on the generators.  When
    N > dim_v the relation space is empty (the free algebra).
    """
    basis = []
    for combo in combinations(range(dim_v), degree):
        terms = {}
        for perm in permutations(combo):
            terms[perm] = ONE * permutation_sign(perm)
        basis.append(TensorElement.from_terms(dim_v, terms))
    return AlgebraPresentation(dim_v, degree, tuple(basis))
