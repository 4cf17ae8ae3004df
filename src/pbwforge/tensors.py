"""Tensor powers of V with word-indexed bases and the filtration F^n.

A word is a tuple of generator indices; the words of degree n enumerate
the canonical basis of V^(tensor n) in lexicographic order, fixed once
and used globally so canonical subspace forms are comparable across
modules.  Elements of F^n are keyed (degree, word) where an order is
needed (:func:`filtered_terms`): lowest degree first, lexicographic
within each degree.  The integer layers key a word of degree n by its
index in that basis (:func:`word_index`), so a letter is prefixed or
appended by index arithmetic; :func:`word_table` turns an index back
into its word where a rational element is built for a caller.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import product
from typing import Iterator, Mapping, Sequence

from .linalg import BasisCoordinates, FrozenValue, Matrix, Subspace
from .rationals import ONE, ZERO, Q, rational

Word = tuple  # tuple of generator indices

DEFAULT_DIM_LIMIT = 10_000
DIM_LIMIT_ENV = "PBWFORGE_MAX_TENSOR_DIM"


class ResourceGuardError(RuntimeError):
    """A computation would exceed the configured tensor-dimension limit."""


def tensor_dim_limit() -> int:
    """The limit from the environment, or the default; raises ValueError
    when it is set to anything but a decimal integer >= 1."""
    raw = os.environ.get(DIM_LIMIT_ENV)
    if not raw:
        return DEFAULT_DIM_LIMIT
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{DIM_LIMIT_ENV} must be an integer >= 1, got {raw!r}")
    return int(raw)


def guard_tensor_dim(dim_v: int, degree: int) -> None:
    """Raise ResourceGuardError when V^(tensor degree) exceeds the limit.

    Called wherever a task sizes a tensor space: ideal components, the
    overlap space and the filtered ideal span.  For dim_v >= 2 every
    degree from the limit's bit length on exceeds it (2^degree > limit),
    so the power is built only below that; the message prints no integer
    longer than 64 bits (:func:`_shown`).
    """
    limit = tensor_dim_limit()
    if dim_v >= 2 and degree >= limit.bit_length() or dim_v**degree > limit:
        raise ResourceGuardError(
            f"tensor space of dimension {_shown(dim_v)}^{_shown(degree)} exceeds the limit {limit}"
        )


def _shown(n: int) -> str:
    """``n`` in decimal, or its bit length when it has more than 64 bits."""
    return str(n) if n.bit_length() <= 64 else f"({n.bit_length()}-bit integer)"


def words(dim_v: int, degree: int) -> Iterator[Word]:
    """All words of the given degree in lexicographic order."""
    return product(range(dim_v), repeat=degree)


def word_index(word: Word, dim_v: int) -> int:
    """Position of ``word`` in the lexicographic basis of its tensor power."""
    idx = 0
    for letter in word:
        if not 0 <= letter < dim_v:
            raise ValueError(f"letter {letter} out of range for dim_v={dim_v}")
        idx = idx * dim_v + letter
    return idx


@lru_cache(maxsize=64)
def word_table(dim_v: int, degree: int) -> tuple:
    """The words of the given degree in lexicographic order: the word of
    index i is ``word_table(dim_v, degree)[i]``."""
    return tuple(words(dim_v, degree))


def filtered_dim(dim_v: int, max_degree: int) -> int:
    """Dimension of F^n = direct sum of tensor powers 0..max_degree."""
    return sum(dim_v**i for i in range(max_degree + 1))


def filtered_terms(x: "TensorElement") -> dict:
    """The terms of ``x`` keyed (degree, word), in the filtered coordinates' order."""
    return {(len(w), w): c for w, c in x.terms.items()}


class TensorElement(FrozenValue):
    """Element of the filtered free algebra, as sparse word -> coefficient.

    Mixed degrees are allowed (and essential: the deformed relations
    x - phi(x) live in F^N, not in a single tensor power).  Zero
    coefficients are never stored.  Elements compare by value; the terms
    are a dict, so an element is not hashable.
    """

    _fields = ("dim_v", "terms")

    def __init__(self, dim_v: int, terms: Mapping) -> None:
        self._set("dim_v", dim_v)
        self._set("terms", terms)

    @classmethod
    def from_terms(cls, dim_v: int, terms: Mapping) -> "TensorElement":
        clean = {}
        for word, coeff in terms.items():
            c = rational(coeff)
            if c != 0:
                for letter in word:
                    if not 0 <= letter < dim_v:
                        raise ValueError(f"letter {letter} out of range")
                clean[tuple(word)] = c
        return cls(dim_v, clean)

    @classmethod
    def from_integers(cls, dim_v: int, terms: Mapping, den: int) -> "TensorElement":
        """The element with coefficient x / den at each (word, int x) of
        ``terms``: one division per nonzero term."""
        return cls(dim_v, {w: Q(x, den) for w, x in terms.items() if x})

    @classmethod
    def zero(cls, dim_v: int) -> "TensorElement":
        return cls(dim_v, {})

    @classmethod
    def unit(cls, dim_v: int) -> "TensorElement":
        return cls(dim_v, {(): ONE})

    @classmethod
    def generator(cls, dim_v: int, i: int) -> "TensorElement":
        if not 0 <= i < dim_v:
            raise ValueError(f"generator index {i} out of range")
        return cls(dim_v, {(i,): ONE})

    @property
    def max_degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, degree: int) -> bool:
        return all(len(w) == degree for w in self.terms)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            old = terms.get(w)
            nc = c if old is None else old + c
            if nc:
                terms[w] = nc
            else:
                del terms[w]
        return TensorElement(self.dim_v, terms)

    def __neg__(self) -> "TensorElement":
        return TensorElement(self.dim_v, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def scale(self, factor) -> "TensorElement":
        f = rational(factor)
        if f == 0:
            return TensorElement.zero(self.dim_v)
        return TensorElement(self.dim_v, {w: f * c for w, c in self.terms.items()})

    def tensor(self, other: "TensorElement") -> "TensorElement":
        """Concatenation (tensor) product; bilinear and associative."""
        self._check(other)
        terms: dict = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa + wb
                nc = terms.get(w, ZERO) + ca * cb
                if nc:
                    terms[w] = nc
                else:
                    terms.pop(w, None)
        return TensorElement(self.dim_v, terms)

    def indexed(self) -> dict:
        """The terms keyed by word index: a homogeneous element's sparse
        coordinates in the lexicographic basis of its tensor power."""
        return {word_index(w, self.dim_v): c for w, c in self.terms.items()}

    def _check(self, other: "TensorElement") -> None:
        if self.dim_v != other.dim_v:
            raise ValueError(f"dim_v mismatch: {self.dim_v} vs {other.dim_v}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.dim_v == other.dim_v
            and dict(self.terms) == dict(other.terms)
        )


def commutator(a: TensorElement, b: TensorElement) -> TensorElement:
    return a.tensor(b) - b.tensor(a)


def anticommutator(a: TensorElement, b: TensorElement) -> TensorElement:
    return a.tensor(b) + b.tensor(a)


def side_tensor(sub: Subspace, dim_v: int, side: str, degree: int) -> Subspace:
    """R (tensor) V or V (tensor) R: extend a pure-degree subspace one letter.

    ``sub`` must be a subspace of V^(tensor n) coordinates; the result
    lives in V^(tensor n+1).  No elimination runs: with b_i the canonical
    rows of ``sub`` and p_i their pivots, b_i (tensor) e_lam has its unit
    pivot at p_i * dim_v + lam (right) or lam * dim^n + p_i (left), and no
    other extension is nonzero there, so the extensions sorted by pivot
    are already the canonical rows; each row's keys are placed directly.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    size = dim_v**degree
    if sub.ambient_dim != size:
        raise ValueError("subspace ambient is not a tensor power of the given dim_v")
    if side == "right":
        rows = [
            (p * dim_v + lam, {k * dim_v + lam: c for k, c in row.items()}) for p, row in sub.rows for lam in range(dim_v)
        ]
    else:
        rows = [
            (lam * size + p, {lam * size + k: c for k, c in row.items()}) for lam in range(dim_v) for p, row in sub.rows
        ]
    return Subspace(size * dim_v, tuple(rows))


class GradedMap(FrozenValue):
    """A linear map from R into V^(tensor target_degree), by its images.

    ``images[k]`` is the image of the k-th distinguished relation basis
    vector, homogeneous of the target degree; a map is applied as a sparse
    combination of its images.  Which ordered basis ``images`` refers to
    is the owner's contract (see ``classify.solve_stage2plus``).
    """

    _fields = ("dim_v", "target_degree", "images")

    def __init__(self, dim_v: int, target_degree: int, images: tuple) -> None:
        for img in images:
            if img.dim_v != dim_v or not img.is_homogeneous(target_degree):
                raise ValueError(f"image is not in V^(tensor {target_degree})")
        self._set("dim_v", dim_v)
        self._set("target_degree", target_degree)
        self._set("images", images)


def add_images(terms: dict, images, entries, dim_v: int, degree: int, scale: int = 1) -> dict:
    """Add scale c images[k] (tensor) e_letter (side "right") or scale c
    e_letter (tensor) images[k] (side "left") to the int dict ``terms`` for
    every (k, side, letter, c) of ``entries``, where images[k] is a list of
    (word index, int) pairs of the given degree (a part of
    ``pbw.DeformationMap.parts``).  The word of index i extends to index
    i dim_v + letter on the right and letter dim_v^degree + i on the left,
    so ``terms`` is keyed by word index in degree + 1: int products only,
    no division.  Returns ``terms``, zeros included."""
    size = dim_v**degree
    get = terms.get
    for k, side, letter, c in entries:
        c *= scale
        mul, add = (dim_v, letter) if side == "right" else (1, letter * size)
        for i, x in images[k]:
            key = i * mul + add
            terms[key] = get(key, 0) + c * x
    return terms


def add_combination(terms: dict, images, coeffs, scale: int = 1) -> dict:
    """Add scale sum_k coeffs[k] images[k] to the int dict ``terms``, with
    images[k] a list of (key, int) pairs: the image of the combination
    sum_k coeffs[k] r_k under a map given by its images.  Returns
    ``terms``, zeros included."""
    get = terms.get
    for ck, image in zip(coeffs, images):
        if ck:
            ck *= scale
            for i, x in image:
                terms[i] = get(i, 0) + ck * x
    return terms


def side_decompose(x: TensorElement, relations: BasisCoordinates, side: str, degree: int) -> Matrix:
    """Write x in R (tensor) V (side='right') or V (tensor) R (side='left').

    ``relations`` is the frame of R's basis r_k in V^(tensor degree), keyed
    by word index (for a presentation, its ``relation_frame``), so every
    word of x must have degree + 1.  Returns the coefficient matrix
    c[k][lam] with x = sum c[k][lam] r_k (tensor) e_lam (right) or e_lam
    (tensor) r_k (left).  Raises ValueError when x is not in the stated
    subspace; this is the explicit change of basis the evaluation of
    phi (tensor) I requires.  The system splits by the letter lam: column
    lam of c is the relation coordinates of the slice of x on the words
    that end (right) or start (left) with lam, one
    :meth:`~pbwforge.linalg.BasisCoordinates.coordinates` call each.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    parts: list = [{} for _ in range(x.dim_v)]
    for w, c in x.terms.items():
        if len(w) != degree + 1:
            raise ValueError(f"element is not in the {side}-side relation product space")
        lam, rest = (w[-1], w[:-1]) if side == "right" else (w[0], w[1:])
        parts[lam][word_index(rest, x.dim_v)] = c
    columns = []
    for part in parts:
        coords = relations.coordinates(part)
        if coords is None:
            raise ValueError(f"element is not in the {side}-side relation product space")
        columns.append(coords)
    return Matrix(tuple(zip(*columns)))


def apply_graded_side(
    images: Sequence[TensorElement],
    relation_basis: Sequence[TensorElement],
    x: TensorElement,
    side: str,
) -> TensorElement:
    """Evaluate phi (tensor) I (side='right') or I (tensor) phi (side='left'),
    where phi sends the k-th relation basis vector to ``images[k]``.

    ``x`` must lie in R (tensor) V resp. V (tensor) R, with R spanned by
    the homogeneous ``relation_basis``; it is first factorized against
    that basis, whose frame each call builds (ValueError otherwise), then
    phi acts on the relation factor.  This is the direct evaluation; the
    checker and the classifier use ``AlgebraPresentation.overlap``, whose
    side decompositions are computed once per presentation, and the tests
    compare the two.
    """
    dim_v = x.dim_v
    degree = max((r.max_degree for r in relation_basis), default=0)
    coeffs = side_decompose(x, BasisCoordinates([r.indexed() for r in relation_basis]), side, degree)
    result = TensorElement.zero(dim_v)
    for k, image in enumerate(images):
        for lam in range(dim_v):
            c = coeffs.data[k][lam]
            if c == 0:
                continue
            e = TensorElement.generator(dim_v, lam)
            piece = image.tensor(e) if side == "right" else e.tensor(image)
            result = result + piece.scale(c)
    return result
