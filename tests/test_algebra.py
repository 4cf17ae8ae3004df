import math

import pytest

from pbwforge.algebra import (
    AlgebraPresentation,
    build_antisymmetrizer_relations,
    graded_dim,
    ideal_component,
    overlap_space,
)
from pbwforge.tensors import TensorElement
from pbwforge.yang_mills import Metric, build_ym


def ideal_component_dim(a, n):
    return a.dim_v**n - graded_dim(a, n)


def test_relation_basis_must_be_independent():
    r = TensorElement.from_terms(2, {(0, 1): 1})
    with pytest.raises(ValueError):
        AlgebraPresentation(2, 2, (r, r.scale(2)))


def test_relation_basis_must_be_homogeneous():
    r = TensorElement.from_terms(2, {(0, 1): 1, (0,): 1})
    with pytest.raises(ValueError):
        AlgebraPresentation(2, 2, (r,))


def test_ideal_component_below_degree_is_zero():
    a = build_ym(2, Metric.euclidean(3))
    assert ideal_component(a, 2).dim == 0
    assert ideal_component_dim(a, 2) == 0


def test_ideal_component_at_degree_is_r():
    a = build_ym(2, Metric.euclidean(3))
    assert ideal_component(a, 3) == a.relation_space


def test_ym_ideal_component_degree4():
    # dim(R(x)V + V(x)R) = 9 + 9 - dim W_4 = 17
    a = build_ym(2, Metric.euclidean(3))
    assert ideal_component_dim(a, 4) == 17
    assert ideal_component(a, 4).dim == 17


def test_graded_dims_low_degrees():
    a = build_ym(2, Metric.euclidean(3))
    assert graded_dim(a, 0) == 1
    assert graded_dim(a, 1) == 3
    assert graded_dim(a, 3) == 24


def test_ym_hilbert_coefficients():
    a = build_ym(2, Metric.euclidean(3))
    assert [graded_dim(a, n) for n in range(6)] == [1, 3, 9, 24, 64, 168]


def test_graded_dim_submultiplicative():
    a = build_ym(2, Metric.minkowski(3))
    for n in range(1, 6):
        assert graded_dim(a, n) <= 3 * graded_dim(a, n - 1)


def test_overlap_space_empty_relations():
    a = build_antisymmetrizer_relations(2, 3)  # N=3 > dim: R = 0
    assert len(a.relation_basis) == 0
    assert overlap_space(a).dim == 0


def test_ym_overlap_is_line():
    for metric in (Metric.euclidean(2), Metric.euclidean(3), Metric.minkowski(4)):
        a = build_ym(metric.dim - 1, metric)
        w = overlap_space(a)
        assert w.dim == 1


def test_overlap_inside_both_sides():
    from pbwforge.tensors import side_tensor

    a = build_ym(2, Metric.euclidean(3))
    w = overlap_space(a)
    right = side_tensor(a.relation_space, 3, "right", degree=3)
    left = side_tensor(a.relation_space, 3, "left", degree=3)
    for row in w.basis:
        assert right.contains(row)
        assert left.contains(row)


def test_antisymmetrizer_dims():
    assert len(build_antisymmetrizer_relations(2, 2).relation_basis) == 1
    assert len(build_antisymmetrizer_relations(3, 2).relation_basis) == 3
    assert len(build_antisymmetrizer_relations(3, 3).relation_basis) == 1


def test_antisymmetrizer_single_commutator():
    a = build_antisymmetrizer_relations(2, 2)
    r = a.relation_basis[0]
    assert r == TensorElement.from_terms(2, {(0, 1): 1, (1, 0): -1})


def test_symmetric_algebra_graded_dims():
    # N=2 antisymmetrizers present S(V): dim A_n = C(n+s, s)
    for s in (1, 2):
        a = build_antisymmetrizer_relations(s + 1, 2)
        for n in range(7):
            assert graded_dim(a, n) == math.comb(n + s, s)


def test_relation_coords_round_trip():
    a = build_ym(2, Metric.euclidean(3))
    combo = a.relation_basis[0].scale(2) - a.relation_basis[2]
    coords = a.relation_coords(combo)
    assert list(coords) == [2, 0, -1]
    outside = TensorElement.from_terms(3, {(0, 0, 0): 1})
    with pytest.raises(ValueError):
        a.relation_coords(outside)
    # the frame is keyed by word index: a word of another degree is not in R,
    # though (1,) has the index of the relation word (0, 1)
    monomial = AlgebraPresentation(2, 2, (TensorElement.from_terms(2, {(0, 1): 1}),))
    assert list(monomial.relation_coords(monomial.relation_basis[0].scale(3))) == [3]
    with pytest.raises(ValueError):
        monomial.relation_coords(TensorElement.generator(2, 1))
