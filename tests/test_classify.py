import hashlib
import random

import pytest

from pbwforge.algebra import build_antisymmetrizer_relations
from pbwforge.classify import family_equals_solutions, solve_stage1, solve_stage2plus
from pbwforge.pbw import check_j1, deformation_from_tails, pbw_verdict
from pbwforge.rationals import format_rational, rational
from pbwforge.sampling import random_metric, random_rational
from pbwforge.super_ym import build_sym, isym_family_generators
from pbwforge.tensors import GradedMap, TensorElement
from pbwforge.yang_mills import Metric, build_ym, iym_family_generators
from reference import flatten_graded_map, unflatten_graded_map
from test_overlap_core import PRESENTATIONS


def test_flatten_round_trip():

    rng = random.Random(1)
    coeffs = tuple(rational(rng.randint(-9, 9)) for _ in range(3 * 9))
    m = unflatten_graded_map(3, 3, 2, coeffs)
    assert flatten_graded_map(m) == coeffs


def test_stage1_empty_relations_is_vacuous():
    a = build_antisymmetrizer_relations(2, 3)  # R = 0
    sol = solve_stage1(a)
    assert sol.feasible
    assert sol.parameters.dim == 0


def test_stage1_dim_ym_s1():
    # b (2) + antisymmetric omega (0 in two letters... none) + symmetric s3 (4)
    a = build_ym(1, Metric.euclidean(2))
    sol = solve_stage1(a)
    assert sol.parameters.dim == 6


def test_stage1_equals_family_ym():
    for metric in (Metric.euclidean(3), Metric.minkowski(3)):
        a = build_ym(2, metric)
        cmp = family_equals_solutions(a, iym_family_generators(metric))
        assert cmp.equal
        assert cmp.family_dim == cmp.solution_dim


def test_stage1_equals_family_super():
    for metric in (Metric.euclidean(3), Metric.minkowski(3)):
        a = build_sym(2, metric)
        cmp = family_equals_solutions(a, isym_family_generators(metric))
        assert cmp.equal
        # only the b-family survives at the top level
        assert cmp.solution_dim == metric.dim


def test_stage1_family_random_metric():
    rng = random.Random(5)
    metric = random_metric(rng, 3)
    assert family_equals_solutions(build_ym(2, metric), iym_family_generators(metric)).equal
    assert family_equals_solutions(build_sym(2, metric), isym_family_generators(metric)).equal


def _assemble(a, phi_top, levels):
    maps = [phi_top]
    k = len(a.relation_basis)
    for sol in levels:
        if sol.stage.startswith("level") and sol.stage != "level0":
            j = int(sol.stage[5:])
            maps.append(unflatten_graded_map(a.dim_v, k, j - 1, sol.particular))
    tails = [TensorElement.zero(a.dim_v)] * k
    for m in maps:
        tails = [t + image for t, image in zip(tails, m.images)]
    return deformation_from_tails(a, tuple(tails))


def test_stage2_closure_property():
    # whenever the staged solver reports feasible, the assembled point
    # passes the full verdict
    from pbwforge.sampling import sample_current_parameters
    from pbwforge.yang_mills import current_from_parameters, flatten_top_block

    rng = random.Random(11)
    metric = Metric.euclidean(3)
    a = build_ym(2, metric)
    stage1 = solve_stage1(a)
    for _ in range(3):
        p = sample_current_parameters(rng, metric)
        current = current_from_parameters(p, metric)
        coeffs = flatten_top_block(current.j3, 3)
        assert stage1.parameters.contains(coeffs)
        phi_top = unflatten_graded_map(3, 3, 2, coeffs)
        levels = solve_stage2plus(a, phi_top)
        assert all(sol.feasible for sol in levels)
        d = _assemble(a, phi_top, levels)
        assert pbw_verdict(d).overall


def test_stage2_infeasible_when_orthogonality_broken():
    # a stage-1 point whose symmetric block is not orthogonal to b is
    # feasible at the top but dies at level 2
    from pbwforge.sampling import sample_current_parameters
    from pbwforge.yang_mills import current_from_parameters, flatten_top_block

    rng = random.Random(13)
    metric = Metric.euclidean(3)
    a = build_ym(2, metric)
    p = sample_current_parameters(rng, metric, violate="s3")
    current = current_from_parameters(p, metric)
    coeffs = flatten_top_block(current.j3, 3)
    assert solve_stage1(a).parameters.contains(coeffs)
    levels = solve_stage2plus(a, unflatten_graded_map(3, 3, 2, coeffs))
    assert levels[0].stage == "level2"
    assert not levels[0].feasible


def test_stage2_rejects_top_outside_solutions():
    a = build_ym(2, Metric.euclidean(3))
    stage1 = solve_stage1(a)
    coeffs = [rational(0)] * stage1.parameters.ambient_dim
    coeffs[1] = rational(1)
    assert not stage1.parameters.contains(tuple(coeffs))
    with pytest.raises(ValueError):
        solve_stage2plus(a, unflatten_graded_map(3, 3, 2, tuple(coeffs)))


def test_stage2_super_forces_scalar_block():
    # for the super b-family the level-1 system pins the scalar tail
    metric = Metric.euclidean(3)
    a = build_sym(2, metric)
    gens = isym_family_generators(metric)
    phi_top = unflatten_graded_map(3, 3, 2, gens[0])
    levels = solve_stage2plus(a, phi_top)
    assert all(sol.feasible for sol in levels)
    d = _assemble(a, phi_top, levels)
    assert pbw_verdict(d).overall


def _stage_points(rng, space):
    """Three seeded points of the stage-1 space and, unless it is the
    whole coefficient space, one point outside it."""
    inside = []
    for _ in range(3):
        point = [rational(0)] * space.ambient_dim
        for row in space.basis:
            c = random_rational(rng, 9)
            point = [x + c * y for x, y in zip(point, row)]
        inside.append(tuple(point))
    outside = None
    while space.dim < space.ambient_dim and outside is None:
        candidate = tuple(random_rational(rng, 9) for _ in range(space.ambient_dim))
        if not space.contains(candidate):
            outside = candidate
    return inside, outside


def _serialize(sol):
    particular = None if sol.particular is None else [format_rational(c) for c in sol.particular]
    basis = [[format_rational(c) for c in row] for row in sol.parameters.basis]
    return (sol.stage, sol.parameters.ambient_dim, basis, particular, sol.feasible)


# sha256 of the serialized stage-1 and stage-2+ solutions on the overlap
# core presentations, recorded while the classifier built its equations
# from dense bracket matrices
CLASSIFIER_PINS = {
    "custom-cubic": "c976a8b3f0d9a1ac158c5df888e0b5e03a0c661a153c58e37a57069e83f60412",
    "so3": "6fc8018a2933abbe44cde33fd482de7fa31189789413a5e71d17e510df82910b",
    "sym-s2": "7378e2b85c8c29a8c78533a38f2d0d40c99c704037a5dc8563aa578d0d71b484",
    "sym-s3": "da882a60c7afa55312f9ff8218ccfd7a6895622b7b7757e6b679920b8859c916",
    "ym-s2": "2eafebe7ed5e62543f9dd17575febc105b42d57e120ed51033bf8b33106539db",
    "ym-s3": "f617f5bb95b260053af0d9070a4e6beb380277168a42b3d8b1b56b99266c637e",
}


@pytest.mark.parametrize("name", sorted(CLASSIFIER_PINS))
def test_classifier_matches_pinned_hash(name):
    a = PRESENTATIONS[name]()
    stage1 = solve_stage1(a)
    h = hashlib.sha256(repr(_serialize(stage1)).encode())
    inside, outside = _stage_points(random.Random(f"classify-{name}"), stage1.parameters)
    top = a.degree - 1
    # seeded top points are generic, so most die at some level; the origin
    # keeps every level feasible with a nonzero solution space
    for point in inside + [stage1.particular]:
        levels = solve_stage2plus(a, unflatten_graded_map(a.dim_v, len(a.relation_basis), top, point))
        h.update(repr([_serialize(sol) for sol in levels]).encode())
    if outside is not None:
        with pytest.raises(ValueError):
            solve_stage2plus(a, unflatten_graded_map(a.dim_v, len(a.relation_basis), top, outside))
    assert h.hexdigest() == CLASSIFIER_PINS[name]


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_stage1_space_is_the_top_condition(name):
    # the classifier's stage-1 space and the checker's j1 agree on every
    # top block: seeded points inside it, one outside it and unit blocks
    a = PRESENTATIONS[name]()
    space = solve_stage1(a).parameters
    inside, outside = _stage_points(random.Random(f"j1-{name}"), space)
    units = [tuple(rational(int(i == k)) for i in range(space.ambient_dim)) for k in range(space.ambient_dim)]
    points = inside + ([] if outside is None else [outside]) + units
    k = len(a.relation_basis)
    for u in points:
        phi = unflatten_graded_map(a.dim_v, k, a.degree - 1, u)
        d = deformation_from_tails(a, phi.images)
        assert check_j1(d)[0] == space.contains(u)


@pytest.mark.parametrize("family", ["ym", "sym"])
def test_the_classifier_builds_no_rational_unit_block(monkeypatch, family):
    # on a warmed presentation the stage-1 and stage-2+ systems are built
    # from the integer images of the unit blocks: no TensorElement and no
    # GradedMap is made, per unit block or at all
    metric = Metric.minkowski(3)
    build, generators = (build_ym, iym_family_generators) if family == "ym" else (build_sym, isym_family_generators)
    a = build(2, metric)
    stage1 = solve_stage1(a)
    phi_top = unflatten_graded_map(3, 3, 2, generators(metric)[0])
    levels = solve_stage2plus(a, phi_top)
    built = []
    for cls in (TensorElement, GradedMap):

        def spy(self, *args, real=cls.__init__, name=cls.__name__):
            built.append(name)
            real(self, *args)

        monkeypatch.setattr(cls, "__init__", spy)
    assert solve_stage1(a) == stage1
    assert solve_stage2plus(a, phi_top) == levels
    assert built == []
    assert all(sol.feasible for sol in levels)
