"""Staged classification of all PBW deformations of a presentation.

Stage 1 solves the top condition as an exact linear system for the
degree-(N-1) coefficient block.  The lower conditions are bilinear in
(top block, lower blocks), so the full classification proceeds by fixing
a concrete stage-1 point and solving each lower level as an affine
linear system, then comparing the resulting spaces against a supplied
closed-form family by two-sided inclusion.  Neither stage writes the
conditions again: the columns of each system are the checker's own
integer statements on the integer parts of unit blocks, the top brackets
summed from the overlap core's entries (``AlgebraPresentation.overlap``)
for stage 1 and :func:`pbwforge.pbw.level_numerators` for the lower
levels, each row cleared of its denominators.

Coefficient coordinates: the degree-j block of a deformation is
flattened as ``u[k * dim_v**j + word_index(w)]`` where k indexes the
distinguished relation basis and w runs over degree-j words (see
:func:`pbwforge.tensors.flatten_graded_map`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .algebra import AlgebraPresentation
from .linalg import Matrix, Subspace, Vector, kernel, reduce_rows, rref_rows, solve_affine
from .pbw import deformation_from_tails, level_numerators
from .rationals import ZERO
from .tensors import add_images, words
from .tensors import GradedMap, flatten_graded_map, unflatten_graded_map  # noqa: F401  (re-exported)


class StageSolution(NamedTuple):
    stage: str
    parameters: Subspace  # solution directions in coefficient coordinates
    particular: Optional[Vector]
    feasible: bool


def _unit_blocks(a: AlgebraPresentation, j: int):
    """The integer images of the maps r_k -> w, r_l -> 0 (l != k) over the
    degree-j words w, in ``flatten_graded_map`` order: one per coordinate
    of the degree-j block."""
    for k in range(len(a.relation_basis)):
        for w in words(a.dim_v, j):
            yield [[(w, 1)] if l == k else [] for l in range(len(a.relation_basis))]


def solve_stage1(a: AlgebraPresentation) -> StageSolution:
    """All top-degree blocks satisfying the first PBW condition.

    Returns the exact solution subspace of the coefficient space of
    dimension dim_v^(N-1) * dim R.
    """
    top = a.degree - 1
    cols = len(a.relation_basis) * a.dim_v**top
    if cols == 0:
        return StageSolution("stage1", Subspace.full(0), (), True)
    r = rref_rows(a.relation_frame.rows)
    units = list(_unit_blocks(a, top))
    eq_rows = []
    for _, entries in a.overlap.entries:
        # condition: the top bracket's residual modulo R vanishes.  Both are
        # linear, so the matrix has the residuals of the unit blocks' integer
        # brackets as columns, over the vector's one denominator
        residuals = [reduce_rows(r, add_images({}, unit, entries)) for unit in units]
        eq_rows.extend([res.get(w, 0) for res in residuals] for w in sorted(set().union(*residuals)))
    sol = kernel(Matrix.from_rows(eq_rows)) if eq_rows else Subspace.full(cols)
    return StageSolution("stage1", sol, (ZERO,) * cols, True)


def solve_stage2plus(a: AlgebraPresentation, phi_top: GradedMap) -> list:
    """Solve the lower conditions for a fixed top block.

    The unknowns are all lower blocks phi_(N-2), ..., phi_0 jointly.  For
    a fixed top block the residuals of :func:`pbwforge.pbw.level_numerators`
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
    top = deformation_from_tails(a, phi_top.images)
    coords = top.inner_coords  # the relation coordinates of the top brackets, or ValueError
    sizes = [len(a.relation_basis) * a.dim_v**j for j in range(n - 1)]
    offsets = [sum(sizes[:j]) for j in range(n - 1)]
    # (degree, integer parts) of each unit block, in flattened coefficient order
    empty = [[] for _ in a.relation_basis]
    units = [(j, [unit if i == j else empty for i in range(n)]) for j in range(n - 1) for unit in _unit_blocks(a, j)]

    eq_rows: list = []
    rhs: list = []
    levels = list(range(n - 1, 0, -1))
    sol = None
    for j in levels:
        # the scalar condition (level 0) is folded into level 1
        for level in (j, 0) if j == 1 else (j,):
            # a level reads the parts of degrees level and level - 1 only, so
            # every other unit block's column is zero
            live = [i for i, (degree, _) in enumerate(units) if degree in (level, level - 1)]
            columns = [level_numerators(a, coords, 1, units[i][1], level) for i in live]
            # one row per overlap vector and word: the unit columns share the
            # vector's denominator, the right-hand side has its own; both cleared
            rows = zip(level_numerators(a, coords, top.den, top.parts, level), *columns)
            for (top_den, top_terms), *cells in rows:
                den = cells[0][0]
                for w in sorted(set(top_terms).union(*(terms for _, terms in cells))):
                    row = [0] * len(units)
                    for i, (_, terms) in zip(live, cells):
                        row[i] = top_den * terms.get(w, 0)
                    eq_rows.append(row)
                    rhs.append(-den * top_terms.get(w, 0))
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


class FamilyComparison(NamedTuple):
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
