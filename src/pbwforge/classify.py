"""Staged classification of all PBW deformations of a presentation.

Stage 1 solves the top condition as an exact linear system for the
degree-(N-1) coefficient block.  The lower conditions are bilinear in
(top block, lower blocks), so the full classification proceeds by fixing
a concrete stage-1 point and solving each lower level as an affine
linear system, then comparing the resulting spaces against a supplied
closed-form family by two-sided inclusion.  Neither stage writes the
conditions again: the columns of each system are the checker's own
conditions evaluated on unit blocks, the top brackets of the overlap core
(``AlgebraPresentation.overlap``) for stage 1 and
:func:`pbwforge.pbw.level_residuals` for the lower levels.

Coefficient coordinates: the degree-j block of a deformation is
flattened as ``u[k * dim_v**j + word_index(w)]`` where k indexes the
distinguished relation basis and w runs over degree-j words (see
:func:`pbwforge.tensors.flatten_graded_map`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import AlgebraPresentation
from .linalg import Matrix, Subspace, Vector, kernel, solve_affine
from .pbw import graded_part, level_residuals
from .rationals import ONE, ZERO
from .tensors import TensorElement, words
from .tensors import GradedMap, flatten_graded_map, unflatten_graded_map  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class StageSolution:
    stage: str
    parameters: Subspace  # solution directions in coefficient coordinates
    particular: Optional[Vector]
    feasible: bool


def _unit_blocks(a: AlgebraPresentation, j: int):
    """The tails of the maps r_k -> w, r_l -> 0 (l != k) over the degree-j
    words w, in ``flatten_graded_map`` order: one per coordinate of the
    degree-j block."""
    zero = TensorElement.zero(a.dim_v)
    k_count = len(a.relation_basis)
    for k in range(k_count):
        for w in words(a.dim_v, j):
            yield tuple(TensorElement(a.dim_v, {w: ONE}) if l == k else zero for l in range(k_count))


def solve_stage1(a: AlgebraPresentation) -> StageSolution:
    """All top-degree blocks satisfying the first PBW condition.

    Returns the exact solution subspace of the coefficient space of
    dimension dim_v^(N-1) * dim R.
    """
    dim = a.dim_v
    top = a.degree - 1
    k_count = len(a.relation_basis)
    cols = k_count * dim**top
    if k_count == 0:
        return StageSolution("stage1", Subspace.full(0), (), True)
    r = a.relation_space
    # one tuple of top brackets per unit block, one bracket per overlap vector
    columns = [a.overlap.brackets(graded_part(dim, unit, top)) for unit in _unit_blocks(a, top)]
    eq_rows = []
    for brackets in zip(*columns):
        # condition: the residual of the image modulo R vanishes.  The
        # residual is linear, so its matrix has the residuals of the
        # unit blocks as columns; zero rows constrain nothing.
        residuals = [r.reduce(b.to_degree_vector(a.degree)) for b in brackets]
        eq_rows.extend(row for row in zip(*residuals) if any(row))
    if not eq_rows:
        return StageSolution("stage1", Subspace.full(cols), (ZERO,) * cols, True)
    sol = kernel(Matrix.from_rows(eq_rows))
    return StageSolution("stage1", sol, (ZERO,) * cols, True)


def solve_stage2plus(a: AlgebraPresentation, phi_top: GradedMap) -> list:
    """Solve the lower conditions for a fixed top block.

    The unknowns are all lower blocks phi_(N-2), ..., phi_0 jointly.  For
    a fixed top block the residuals of :func:`pbwforge.pbw.level_residuals`
    are affine in them, so the whole descent is one affine system: each
    column is the residuals of one unit block, and the right-hand side is
    minus the residuals of phi_top.  Equations are added level by level and
    the accumulated system is re-solved after each, which attributes an
    infeasibility to the first level whose equations make the system
    unsolvable.  The scalar condition is folded into level 1; "level0" in
    the returned list reports it.  Each level's entry carries the slice of
    the joint solution for the block that level determines.  Raises
    ValueError when phi_top does not satisfy the top condition.
    """
    n = a.degree
    # inner images and their relation coordinates (requires stage-1 point)
    inner_coords = [a.relation_coords(img) for img in a.overlap.brackets(phi_top)]

    sizes = [len(a.relation_basis) * a.dim_v**j for j in range(n - 1)]
    offsets = [sum(sizes[:j]) for j in range(n - 1)]
    units = [unit for j in range(n - 1) for unit in _unit_blocks(a, j)]

    def residual_coords(tails, j: int) -> list:
        parts = {i: graded_part(a.dim_v, tails, i) for i in (j - 1, j) if i >= 0}
        return [c for res in level_residuals(a, inner_coords, parts, j) for c in res.to_degree_vector(j)]

    eq_rows: list = []
    rhs: list = []
    levels = list(range(n - 1, 0, -1))
    sol = None
    for j in levels:
        # the scalar condition (level 0) is folded into level 1
        for level in (j, 0) if j == 1 else (j,):
            eq_rows.extend(zip(*(residual_coords(unit, level) for unit in units)))
            rhs.extend(-c for c in residual_coords(phi_top.images, level))
        sol = solve_affine(Matrix.from_rows(eq_rows), tuple(rhs)) if eq_rows else None
        if eq_rows and sol is None:
            return [StageSolution(f"level{j}", Subspace.zero(sizes[j - 1]), None, False)]

    def block_slice(j: int) -> StageSolution:
        off, size = offsets[j], sizes[j]
        if sol is None:
            return StageSolution(f"level{j + 1}", Subspace.full(size), (ZERO,) * size, True)
        particular = sol.particular[off : off + size]
        params = Subspace.from_spanning(
            [row[off : off + size] for row in sol.homogeneous.basis], size
        )
        return StageSolution(f"level{j + 1}", params, particular, True)

    solutions = [block_slice(j - 1) for j in levels]
    low = solutions[-1] if solutions else StageSolution("level1", Subspace.zero(0), None, True)
    solutions.append(StageSolution("level0", low.parameters, low.particular, True))
    return solutions


@dataclass(frozen=True)
class FamilyComparison:
    family_dim: int
    solution_dim: int
    family_in_solutions: bool
    solutions_in_family: bool

    @property
    def equal(self) -> bool:
        return self.family_in_solutions and self.solutions_in_family


def family_equals_solutions(
    a: AlgebraPresentation,
    family_generators: Sequence,
    stage1: Optional[StageSolution] = None,
) -> FamilyComparison:
    """Two-sided inclusion between the stage-1 solution space and the span
    of a parametrized family, given by generator coefficient vectors of
    the top-degree block.  ``stage1``, when given, is ``solve_stage1(a)``
    as the caller already computed it."""
    vectors = [tuple(g) for g in family_generators]
    if stage1 is None:
        stage1 = solve_stage1(a)
    sols = stage1.parameters
    family = Subspace.from_spanning(vectors, sols.ambient_dim)
    forward = all(sols.contains(v) for v in vectors)
    backward = all(family.contains(row) for row in sols.basis)
    return FamilyComparison(family.dim, sols.dim, forward, backward)
