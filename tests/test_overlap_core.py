"""The per-presentation overlap core against the direct side evaluation."""

import random

import pytest

import pbwforge.algebra as algebra
import pbwforge.classify as classify
import pbwforge.pbw as pbw
import pbwforge.tensors as tensors
from pbwforge.algebra import AlgebraPresentation, build_antisymmetrizer_relations, overlap_space
from pbwforge.linalg import Matrix
from pbwforge.rationals import rational
from pbwforge.sampling import random_rational, sample_current_parameters
from pbwforge.super_ym import build_sym
from pbwforge.tensors import GradedMap, TensorElement, apply_graded_side
from pbwforge.yang_mills import Metric, build_ym, current_from_parameters, current_to_deformation

# dim_v = 2, N = 3, with a five-dimensional overlap space
CUSTOM_CUBIC = (
    {(1, 0, 0): -1, (0, 1, 1): -1, (1, 1, 0): 2},
    {(0, 0, 0): 1, (1, 1, 1): "1/2"},
    {(1, 0, 0): "1/2", (1, 1, 1): 2, (1, 1, 0): -1},
    {(0, 1, 1): -1, (0, 0, 0): "1/2", (1, 1, 1): 2},
    {(1, 0, 1): "1/2"},
)


def custom_cubic():
    return AlgebraPresentation(2, 3, tuple(TensorElement.from_terms(2, t) for t in CUSTOM_CUBIC))


PRESENTATIONS = {
    "ym-s2": lambda: build_ym(2, Metric.euclidean(3)),
    "ym-s3": lambda: build_ym(3, Metric.minkowski(4)),
    "sym-s2": lambda: build_sym(2, Metric.minkowski(3)),
    "sym-s3": lambda: build_sym(3, Metric.euclidean(4)),
    "so3": lambda: build_antisymmetrizer_relations(3, 2),
    "custom-cubic": custom_cubic,
}


def random_graded_map(rng, a, j):
    rows = a.dim_v**j
    cols = len(a.relation_basis)
    return GradedMap(
        a.dim_v, cols, j,
        Matrix.from_rows([[random_rational(rng, 9) for _ in range(cols)] for _ in range(rows)]),
    )


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_core_brackets_match_side_evaluation(name):
    a = PRESENTATIONS[name]()
    core = a.overlap
    assert len(core.vectors) == overlap_space(a).dim > 0
    rng = random.Random(name)
    for j in range(a.degree):
        for _ in range(2):
            phi = random_graded_map(rng, a, j)
            brackets = core.brackets(phi)
            assert len(brackets) == len(core.vectors)
            for x, got in zip(core.vectors, brackets):
                want = apply_graded_side(phi, a.relation_basis, x, "right") - apply_graded_side(
                    phi, a.relation_basis, x, "left"
                )
                assert got == want


def test_side_decompose_runs_once_per_presentation(monkeypatch):
    calls = []
    real = tensors.side_decompose

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    for module in (tensors, algebra, pbw, classify):
        monkeypatch.setattr(module, "side_decompose", counting, raising=False)
    rng = random.Random(31)
    metric = Metric.euclidean(3)
    a = build_ym(2, metric)
    for violate in (None, "s2"):
        current = current_from_parameters(sample_current_parameters(rng, metric, violate=violate), metric)
        pbw.pbw_verdict(current_to_deformation(current, a))
    classify.solve_stage1(a)
    assert sorted(calls) == sorted(["left", "right"] * overlap_space(a).dim)


def test_top_bracket_outside_r_raises_in_check_j2():
    a = build_ym(2, Metric.euclidean(3))
    # phi(r_1) = e_0 (x) e_0, the lone j3[0][0][1] that breaks the top condition
    lone = TensorElement.from_terms(3, {(0, 0): rational(1)})
    top = GradedMap.from_images(3, 2, [TensorElement.zero(3), lone, TensorElement.zero(3)])
    d = pbw.DeformationMap(a, (None, None, top))
    assert not pbw.check_j1(d)[0]
    with pytest.raises(ValueError):
        pbw.check_j2(d, 1)
