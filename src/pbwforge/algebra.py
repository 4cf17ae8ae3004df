"""Homogeneous N-algebras T(V)/(R): graded ideal components, graded
dimensions, the overlap space W = (R tensor V) intersect (V tensor R), and
the overlap core shared by the PBW checker and the classifier.

Graded dimensions are always computed by brute quotient dimension (rank
of an explicit spanning set of the ideal component); no Hilbert-series
assumption ever enters the computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Sequence

from .linalg import BasisCoordinates, SparseEchelon, Subspace
from .rationals import ONE, ZERO
from .tensors import (
    GradedMap,
    TensorElement,
    guard_tensor_dim,
    side_decompose,
    side_tensor,
    word_index,
    words,
)


@dataclass(frozen=True, eq=False)
class AlgebraPresentation:
    """Generators V of dimension s+1 and a relation space R in V^(tensor N).

    ``relation_basis`` is the distinguished ordered basis of R; relation
    coordinates everywhere refer to this ordering.
    """

    dim_v: int
    degree: int
    relation_basis: tuple

    def __post_init__(self) -> None:
        if self.dim_v < 1:
            raise ValueError("need at least one generator")
        if self.degree < 2:
            raise ValueError("relation degree must be at least 2")
        for r in self.relation_basis:
            if r.dim_v != self.dim_v:
                raise ValueError("relation with mismatched generator count")
            if not r.is_homogeneous(self.degree) or r.is_zero():
                raise ValueError("relations must be nonzero and homogeneous of degree N")
        self.relation_space  # raises ValueError when the basis is linearly dependent

    @cached_property
    def relation_space(self) -> Subspace:
        return self._relation_coordinates.span

    @cached_property
    def _relation_coordinates(self) -> BasisCoordinates:
        return BasisCoordinates(
            [r.to_degree_vector(self.degree) for r in self.relation_basis],
            self.dim_v**self.degree,
        )

    def relation_coords(self, x: TensorElement):
        """Coordinates of x in the distinguished relation basis.

        The relation basis is eliminated once per presentation; a call is
        a membership test and a substitution.  Raises ValueError when x
        is not in R.
        """
        coords = self._relation_coordinates.coordinates(x.to_degree_vector(self.degree))
        if coords is None:
            raise ValueError("element is not in the relation space")
        return coords

    @cached_property
    def overlap(self) -> "OverlapData":
        """The overlap core of this presentation, built on first use."""
        return OverlapData(self)


def _ideal_spanning_words(a: AlgebraPresentation, n: int):
    """Yield sparse vectors u (x) r (x) v spanning the degree-n ideal part."""
    dim = a.dim_v
    for i in range(n - a.degree + 1):
        k = n - a.degree - i
        for left in words(dim, i):
            for right in words(dim, k):
                for r in a.relation_basis:
                    yield {
                        word_index(left + w + right, dim): c
                        for w, c in r.terms.items()
                    }


def ideal_component(a: AlgebraPresentation, n: int) -> Subspace:
    """Degree-n component of the two-sided ideal (R), in canonical form."""
    guard_tensor_dim(a.dim_v, n)
    size = a.dim_v**n
    if n < a.degree:
        return Subspace.zero(size)
    return Subspace.from_sparse(_ideal_spanning_words(a, n), size)


def ideal_component_dim(a: AlgebraPresentation, n: int) -> int:
    """dim of the degree-n ideal component, via sparse echelon (fast path)."""
    guard_tensor_dim(a.dim_v, n)
    if n < a.degree:
        return 0
    ech = SparseEchelon()
    ech.extend(_ideal_spanning_words(a, n))
    return ech.rank


def graded_dim(a: AlgebraPresentation, n: int) -> int:
    """Exact dimension of the degree-n part of T(V)/(R)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return a.dim_v**n - ideal_component_dim(a, n)


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
    basis x_i of W (``vectors``) and the coefficient matrices of each x_i
    in R (tensor) V (``right``) and in V (tensor) R (``left``), in the
    layout of :func:`side_decompose`.  ``brackets(phi)`` evaluates (phi
    tensor I - I tensor phi)(x_i) from those matrices and the images of
    phi.  The checker reads it on a deformation's tails; the classifier
    reads it on unit images, through the same level residuals
    (:func:`pbwforge.pbw.level_residuals`).
    """

    def __init__(self, a: AlgebraPresentation):
        w = overlap_space(a)
        self.space = w
        self.dim_v = a.dim_v
        self.source_dim = len(a.relation_basis)
        self.vectors = tuple(
            TensorElement.from_degree_vector(a.dim_v, a.degree + 1, row) for row in w.basis
        )
        self.right = tuple(side_decompose(x, a.relation_basis, "right") for x in self.vectors)
        self.left = tuple(side_decompose(x, a.relation_basis, "left") for x in self.vectors)

    def brackets(self, phi: GradedMap) -> tuple:
        """(phi tensor I - I tensor phi)(x_i) for every overlap vector x_i:
        the sum over k, lam of right[k][lam] phi(r_k) (x) e_lam minus
        left[k][lam] e_lam (x) phi(r_k)."""
        if len(phi.images) != self.source_dim:
            raise ValueError(f"{len(phi.images)} images against {self.source_dim} relations")
        out = []
        for cr, cl in zip(self.right, self.left):
            terms: dict = {}
            for image, rrow, lrow in zip(phi.images, cr.data, cl.data):
                for w, c in image.terms.items():
                    for lam in range(self.dim_v):
                        if rrow[lam]:
                            terms[w + (lam,)] = terms.get(w + (lam,), ZERO) + rrow[lam] * c
                        if lrow[lam]:
                            terms[(lam,) + w] = terms.get((lam,) + w, ZERO) - lrow[lam] * c
            out.append(TensorElement(self.dim_v, {w: c for w, c in terms.items() if c}))
        return tuple(out)


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
