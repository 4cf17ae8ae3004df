"""Staged classification of all PBW deformations of a presentation.

Stage 1 solves the top condition as an exact linear system for the
degree-(N-1) coefficient block.  The lower conditions are bilinear in
(top block, lower blocks), so the full classification proceeds by fixing
a concrete stage-1 point and solving each lower level as an affine
linear system, then comparing the resulting spaces against a supplied
closed-form family by two-sided inclusion.  Both stages read the overlap
vectors and bracket matrices from the presentation's overlap core
(``AlgebraPresentation.overlap``), the same object the PBW checker uses.

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
from .rationals import ZERO
from .tensors import GradedMap, flatten_graded_map, unflatten_graded_map  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class StageSolution:
    stage: str
    parameters: Subspace  # solution directions in coefficient coordinates
    particular: Optional[Vector]
    feasible: bool


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
    eq_rows = []
    for bm in a.overlap.bracket_matrices(top):
        # condition: the residual of the image modulo R vanishes.  The
        # residual is linear, so its matrix has the residuals of the
        # columns of B as columns; zero rows constrain nothing.
        residuals = [r.reduce(col) for col in bm.transpose()]
        eq_rows.extend(row for row in zip(*residuals) if any(row))
    if not eq_rows:
        return StageSolution("stage1", Subspace.full(cols), (ZERO,) * cols, True)
    sol = kernel(Matrix.from_rows(eq_rows))
    return StageSolution("stage1", sol, (ZERO,) * cols, True)


def solve_stage2plus(a: AlgebraPresentation, phi_top: GradedMap) -> list:
    """Solve the lower conditions for a fixed top block.

    The unknowns are all lower blocks phi_(N-2), ..., phi_0 jointly: each
    level-j condition couples the blocks j and j-1 linearly, so the whole
    descent is one affine system.  Equations are added level by level and
    the accumulated system is re-solved after each, which attributes an
    infeasibility to the first level whose equations make the system
    unsolvable.  The scalar condition is folded into level 1; "level0" in
    the returned list reports it.  Each level's entry carries the slice of
    the joint solution for the block that level determines.  Raises
    ValueError when phi_top does not satisfy the top condition.
    """
    dim = a.dim_v
    n = a.degree
    core = a.overlap
    # inner images and their relation coordinates (requires stage-1 point)
    inner_coords = [a.relation_coords(img) for img in core.brackets(phi_top)]

    k_count = len(a.relation_basis)
    sizes = [k_count * dim**j for j in range(n - 1)]
    offsets = [sum(sizes[:j]) for j in range(n - 1)]
    total = sum(sizes)
    eq_rows: list = []
    rhs: list = []
    levels = list(range(n - 1, 0, -1))
    sol = None
    for j in levels:
        off = offsets[j - 1]
        for bm, coords in zip(core.bracket_matrices(j - 1), inner_coords):
            if j == n - 1:
                const_vec = phi_top.apply_coords(coords).to_degree_vector(j)
            for i in range(dim**j):
                row = [ZERO] * total
                for c in range(sizes[j - 1]):
                    row[off + c] = bm.data[i][c]
                if j == n - 1:
                    rhs.append(-const_vec[i])
                else:
                    # the phi_j term, linear in the unknown degree-j block
                    offj = offsets[j]
                    for k in range(k_count):
                        row[offj + k * dim**j + i] += coords[k]
                    rhs.append(ZERO)
                eq_rows.append(row)
        if j == 1:
            # fold in the scalar condition: phi_0 kills every inner image
            for coords in inner_coords:
                row = [ZERO] * total
                for k in range(k_count):
                    row[offsets[0] + k] += coords[k]
                eq_rows.append(row)
                rhs.append(ZERO)
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
