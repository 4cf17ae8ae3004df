"""Staged classification of all PBW deformations of a presentation.

Stage 1 solves the top condition as an exact linear system for the
degree-(N-1) coefficient block.  The lower conditions are bilinear in
(top block, lower blocks), so the full classification proceeds by fixing
a concrete stage-1 point and solving each lower level as an affine
linear system, then comparing the resulting spaces against a supplied
closed-form family by two-sided inclusion.  Neither stage writes the
conditions again: the columns of each system are the checker's own
integer statements on the integer parts of unit blocks: for stage 1 the
residuals modulo R (``AlgebraPresentation.relation_frame``) of the top
brackets summed from the overlap core's entries, for the lower levels
:func:`pbwforge.pbw.level_numerators`.  Each equation is a sparse row,
keyed by unknown, handed to the sparse kernel and affine cores of
:mod:`pbwforge.linalg`; no stage builds a dense matrix.

Coefficient coordinates: the degree-j block of a deformation is
flattened as ``u[k * dim_v**j + word_index(w)]`` where k indexes the
distinguished relation basis and w runs over degree-j words.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .algebra import AlgebraPresentation
from .linalg import Subspace, Vector, reduce_rows, solve_rows
from .pbw import deformation_from_tails, level_numerators
from .rationals import ZERO
from .tensors import GradedMap, add_images


class StageSolution(NamedTuple):
    stage: str
    parameters: Subspace  # solution directions in coefficient coordinates
    particular: Optional[Vector]
    feasible: bool


def _unit_blocks(a: AlgebraPresentation, j: int):
    """The integer images of the maps r_k -> w, r_l -> 0 (l != k) over the
    degree-j words w, by word index, in coefficient order: one per
    coordinate of the degree-j block."""
    for k in range(len(a.relation_basis)):
        for i in range(a.dim_v**j):
            yield [[(i, 1)] if l == k else [] for l in range(len(a.relation_basis))]


def solve_stage1(a: AlgebraPresentation) -> StageSolution:
    """All top-degree blocks satisfying the first PBW condition.

    Returns the exact solution subspace of the coefficient space of
    dimension dim_v^(N-1) * dim R.  The equations are the checker's: the
    ``rest`` of ``relation_frame.integer_coordinates`` on each unit
    block's top bracket, word by word, as that residual is linear.
    """
    top = a.degree - 1
    cols = len(a.relation_basis) * a.dim_v**top
    frame = a.relation_frame
    units = list(_unit_blocks(a, top))
    equations = []
    for _, entries in a.overlap.entries:
        by_word: dict = {}
        for i, unit in enumerate(units):
            for w, x in frame.integer_coordinates(add_images({}, unit, entries, a.dim_v, top))[1].items():
                by_word.setdefault(w, {})[i] = x
        equations += by_word.values()
    return StageSolution("stage1", solve_rows(equations, cols)[1], (ZERO,) * cols, True)


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

    # one sparse equation per overlap vector and word: the unit columns
    # share the vector's denominator, the right-hand side (key len(units))
    # has its own; both cleared
    equations: list = []
    levels = list(range(n - 1, 0, -1))
    for j in levels:
        # the scalar condition (level 0) is folded into level 1
        for level in (j, 0) if j == 1 else (j,):
            # a level reads the parts of degrees level and level - 1 only, so
            # every other unit block's column is zero
            live = [i for i, (degree, _) in enumerate(units) if degree in (level, level - 1)]
            columns = [level_numerators(a, coords, 1, units[i][1], level) for i in live]
            rows = zip(level_numerators(a, coords, top.den, top.parts, level), *columns)
            for (top_den, top_terms), *cells in rows:
                den = cells[0][0]
                for w in sorted(set(top_terms).union(*(terms for _, terms in cells))):
                    eq = {i: top_den * terms[w] for i, (_, terms) in zip(live, cells) if w in terms}
                    eq[len(units)] = -den * top_terms.get(w, 0)
                    equations.append(eq)
        sol = solve_rows(equations, len(units))
        if sol is None:
            return [StageSolution(f"level{j}", Subspace.zero(sizes[j - 1]), None, False)]
    particular, homogeneous = sol

    def block_slice(j: int) -> StageSolution:
        off, size = offsets[j], sizes[j]
        params = Subspace.from_sparse(
            ({k - off: c for k, c in row.items() if off <= k < off + size} for _, row in homogeneous.rows), size
        )
        particular_slice = tuple(particular.get(k, ZERO) for k in range(off, off + size))
        return StageSolution(f"level{j + 1}", params, particular_slice, True)

    solutions = [block_slice(j - 1) for j in levels]
    low = solutions[-1]
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
    if stage1 is None:
        stage1 = solve_stage1(a)
    sols = stage1.parameters
    family = Subspace.from_spanning(family_generators, sols.ambient_dim)
    forward = not any(reduce_rows(sols.rows, row) for _, row in family.rows)
    backward = not any(reduce_rows(family.rows, row) for _, row in sols.rows)
    return FamilyComparison(family.dim, sols.dim, forward, backward)
