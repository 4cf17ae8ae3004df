"""Homogeneous N-algebras T(V)/(R): graded ideal components, graded
dimensions, the overlap space W = (R tensor V) intersect (V tensor R), and
the overlap core shared by the PBW checker and the classifier.

Graded dimensions are exact quotient dimensions dim V^n - dim I_n, with
the ideal component built degree by degree from the recurrence
I_n = V tensor I_(n-1) + R tensor V^(n-N): the left shifts of the echelon
rows of I_(n-1) are kept as views, and only the rows r b are
eliminated.  A row r b whose right word b = u lt u'' contains a leading
word lt, a pivot word of I_N, is never built.  With q the echelon row of
pivot lt, q = c lt + q' and c r b = r u q u'' - r u q' u'': the first
term lies in V tensor I_(n-1), and the second is a combination of rows
r b' with b' lexicographically later, so induction on b puts r b in the
span of the rows kept (Bergman's normal words, *Adv. Math.* 29 (1978)).
:func:`reducible_words` marks those right words.  The filtered ideal
span (``pbw.IdealSpan``) skips the same rows, and carries its other rows
of the level below as they stand wherever no left shift has their
pivot.  No Hilbert-series assumption ever enters the computation.
"""

from __future__ import annotations

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
    def ideal_rows(self) -> list:
        """Echelon rows of I_0, I_1, ... as far as :func:`graded_dim` has
        needed them; filled on demand, kept for the presentation's life."""
        return [{}]

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


def _ideal_component_rows(a: AlgebraPresentation, n: int) -> dict:
    """Echelon rows of I_n, keyed by word index, from
    I_m = V tensor I_(m-1) + R tensor V^(m-N), one degree m at a time
    (left shifts as views), skipping every r b whose right word b
    contains a pivot word of I_N."""
    levels = a.ideal_rows
    while len(levels) <= n:
        m = len(levels)
        size = a.dim_v ** (m - 1)
        echelon = SparseEchelon()
        echelon.rows = left_shifts(levels[-1], [range(x * size, (x + 1) * size) for x in range(a.dim_v)])
        if m >= a.degree:
            k = m - a.degree
            right = a.dim_v**k
            leading = [(a.degree, w) for w in levels[a.degree]] if k else []
            skip = reducible_words(leading, a.dim_v, k)[k]
            for row in a.relation_frame.rows:
                for b in range(right):
                    if not skip[b]:
                        echelon.insert({wi * right + b: c for wi, c in row.items()})
        levels.append(echelon.rows)
    return levels[n]


def ideal_component(a: AlgebraPresentation, n: int) -> Subspace:
    """Degree-n component of the two-sided ideal (R), in canonical form."""
    guard_tensor_dim(a.dim_v, n)
    return Subspace.from_sparse(_ideal_component_rows(a, n).values(), a.dim_v**n)


def graded_dim(a: AlgebraPresentation, n: int) -> int:
    """Exact dimension of the degree-n part of T(V)/(R).

    The ideal components are built once per presentation
    (``AlgebraPresentation.ideal_rows``), so a later call in a degree
    already reached costs no elimination; the resource guard still runs
    on every call.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    guard_tensor_dim(a.dim_v, n)
    return a.dim_v**n - len(_ideal_component_rows(a, n))


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
