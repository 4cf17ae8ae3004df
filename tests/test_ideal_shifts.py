"""The level-by-level ideal builders against the all-products reference
loops, and the per-presentation cache of the graded ideal components."""

import random

import pytest
import reference

import pbwforge.pbw
from pbwforge.algebra import build_antisymmetrizer_relations, graded_dim, ideal_component
from pbwforge.linalg import SparseEchelon
from pbwforge.pbw import IdealSpan, ResourceGuardError, brute_force_oracle
from pbwforge.sampling import random_metric, sample_current_parameters, sample_super_parameters
from pbwforge.super_ym import build_sym, super_current_from_parameters, super_current_to_deformation
from pbwforge.yang_mills import (
    Current,
    Metric,
    build_ym,
    current_from_parameters,
    current_to_deformation,
)
from test_pbw import _custom_quadratic_deformation, so3_deformation

METRICS = {
    "euclidean": lambda: Metric.euclidean(3),
    "minkowski": lambda: Metric.minkowski(3),
    "random": lambda: random_metric(random.Random(17), 3),
}


def ym_deformation(metric_kind, category, seed=5):
    metric = METRICS[metric_kind]()
    violate = None if category == "ok" else category
    params = sample_current_parameters(random.Random(seed), metric, violate=violate)
    return current_to_deformation(current_from_parameters(params, metric), build_ym(2, metric))


def sym_deformation(category, seed=9):
    metric = Metric.euclidean(3)
    b, omega2 = sample_super_parameters(random.Random(seed), 3)
    c = super_current_from_parameters(b, omega2, metric)
    if category == "j2":
        j2 = tuple(tuple(c.j2[i][j] + (1 if i == j == 0 else 0) for j in range(3)) for i in range(3))
        c = Current(c.j3, j2, c.j1)
    elif category == "j1":
        c = Current(c.j3, c.j2, (c.j1[0] + 1,) + tuple(c.j1[1:]))
    return super_current_to_deformation(c, build_sym(2, metric))


SPAN_CASES = {
    **{
        f"ym-{kind}-{category}": (lambda kind=kind, category=category: ym_deformation(kind, category), 6)
        for kind in METRICS
        for category in ("ok", "s3", "s2", "s1")
    },
    **{f"sym-{category}": (lambda category=category: sym_deformation(category), 6) for category in ("ok", "j2", "j1")},
    "so3": (so3_deformation, 7),
    "so3-broken": (lambda: so3_deformation(broken=True), 7),
    "custom-quadratic": (lambda: _custom_quadratic_deformation(11), 5),
}


@pytest.mark.parametrize("case", sorted(SPAN_CASES))
def test_ideal_span_matches_all_products_loop(case):
    make, cutoff = SPAN_CASES[case]
    d = make()
    relations = d.deformed_relations()
    span = IdealSpan(relations, d.algebra.dim_v, cutoff)
    dims, rank = reference.ideal_span_dims(relations, d.algebra.dim_v, cutoff)
    assert [span.intersection_dim(n) for n in range(cutoff + 1)] == dims
    assert span.echelon.rank == rank


PRESENTATIONS = {
    "ym-s2": (lambda: build_ym(2, Metric.euclidean(3)), 7),
    "ym-s2-random": (lambda: build_ym(2, random_metric(random.Random(17), 3)), 7),
    "ym-s3-minkowski": (lambda: build_ym(3, Metric.minkowski(4)), 6),
    "sym-s2": (lambda: build_sym(2, Metric.minkowski(3)), 7),
    "symmetric-3": (lambda: build_antisymmetrizer_relations(3, 2), 7),
    "antisymmetrizer-4-3": (lambda: build_antisymmetrizer_relations(4, 3), 6),
    "symmetric-4": (lambda: build_antisymmetrizer_relations(4, 2), 6),
    "free-3": (lambda: build_antisymmetrizer_relations(3, 4), 7),
}


@pytest.mark.parametrize("case", sorted(PRESENTATIONS))
def test_graded_dims_match_all_products_loop(case):
    make, n_max = PRESENTATIONS[case]
    a = make()
    assert [graded_dim(a, n) for n in range(n_max + 1)] == reference.graded_dims(a, n_max)


@pytest.mark.parametrize("case", ["ym-s2", "sym-s2", "symmetric-4"])
def test_graded_dim_cache_is_order_independent(case):
    make, n_max = PRESENTATIONS[case]
    n_max = min(n_max, 6)
    fresh = [graded_dim(make(), n) for n in range(n_max + 1)]
    ascending = list(range(n_max + 1))
    shuffled = ascending[:]
    random.Random(3).shuffle(shuffled)
    for order in (ascending, ascending[::-1], shuffled):
        a = make()
        got = {n: graded_dim(a, n) for n in order}
        assert [got[n] for n in ascending] == fresh
    assert [a.dim_v**n - ideal_component(a, n).dim for n in ascending] == fresh


def test_resource_guard_holds_for_cached_degrees(monkeypatch):
    a = build_ym(2, Metric.euclidean(3))
    assert [graded_dim(a, n) for n in range(6)] == [1, 3, 9, 24, 64, 168]
    monkeypatch.setenv("PBWFORGE_MAX_TENSOR_DIM", str(3**4 - 1))
    assert graded_dim(a, 3) == 24
    for n in (4, 5, 6):
        with pytest.raises(ResourceGuardError):
            graded_dim(a, n)
        with pytest.raises(ResourceGuardError):
            ideal_component(a, n)


def test_second_oracle_on_the_presentation_eliminates_no_homogeneous_row(monkeypatch):
    inserts = {"graded": 0, "filtered": 0}
    inside = []
    original_insert = SparseEchelon.insert
    original_graded_dim = pbwforge.pbw.graded_dim

    def insert(self, vec):
        inserts["graded" if inside else "filtered"] += 1
        return original_insert(self, vec)

    def spy_graded_dim(a, n):
        inside.append(n)
        try:
            return original_graded_dim(a, n)
        finally:
            inside.pop()

    monkeypatch.setattr(SparseEchelon, "insert", insert)
    monkeypatch.setattr(pbwforge.pbw, "graded_dim", spy_graded_dim)
    first = ym_deformation("minkowski", "ok", seed=1)
    assert brute_force_oracle(first, 4, 5).verdict == "CONSISTENT"
    assert inserts["graded"] > 0 and inserts["filtered"] > 0
    inserts.update(graded=0, filtered=0)
    metric = Metric.minkowski(3)
    params = sample_current_parameters(random.Random(2), metric, violate="s2")
    second = current_to_deformation(current_from_parameters(params, metric), first.algebra)
    brute_force_oracle(second, 4, 5)
    assert inserts["graded"] == 0 and inserts["filtered"] > 0
