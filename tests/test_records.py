"""The behaviour of the package's records, pinned independently of how
each record class is written.

Value records compare and hash by their fields; the presentation, the
deformation, the conservation result and the metric compare by identity.
Every record refuses field assignment and deletion, and each validating
constructor raises the same ValueError message.
"""

import random

import pytest

from pbwforge.algebra import AlgebraPresentation
from pbwforge.classify import family_equals_solutions, solve_stage1
from pbwforge.linalg import Matrix, Subspace
from pbwforge.pbw import brute_force_oracle, conservation_residual, deformation_from_tails, pbw_verdict
from pbwforge.rationals import ONE, ZERO, Q
from pbwforge.sampling import sample_current_parameters, sample_super_parameters
from pbwforge.super_ym import shifted_generator_check, verify_super_identities
from pbwforge.tensors import GradedMap, TensorElement
from pbwforge.yang_mills import (
    Current,
    CurrentParameters,
    Metric,
    build_ym,
    current_from_parameters,
    current_to_deformation,
    iym_family_generators,
    verify_identities,
)


def frozen(record, field: str) -> None:
    """Assigning or deleting ``field`` raises AttributeError and leaves it as it was."""
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def value_equal(make) -> None:
    """Two records built by ``make`` are distinct objects that compare and hash equal."""
    x, y = make(), make()
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) and len({x, y}) == 1


def identity_equal(make) -> None:
    """Two records built by ``make`` from the same values differ; each
    equals only itself and hashes by identity."""
    x, y = make(), make()
    assert x == x and x != y
    assert len({x, y, x}) == 2


def ym_setup():
    metric = Metric.minkowski(3)
    a = build_ym(2, metric)
    params = sample_current_parameters(random.Random(3), metric)
    return metric, a, current_from_parameters(params, metric)


def test_matrix_is_a_value():
    value_equal(lambda: Matrix.from_rows([[1, 2], [3, 4]]))
    assert Matrix.from_rows([[1, 2]]) == Matrix(((Q(1), Q(2)),))
    assert Matrix.from_rows([[1, 2]]) != Matrix.from_rows([[2, 1]])
    assert Matrix.from_rows([[1]]) != ((Q(1),),)
    frozen(Matrix.identity(2), "data")
    with pytest.raises(ValueError, match="^ragged rows$"):
        Matrix(((ONE,), (ONE, ZERO)))


def test_subspace_is_a_value():
    value_equal(lambda: Subspace.from_spanning([[1, 1, 0], [0, 2, 2]], 3))
    x = Subspace.from_spanning([[1, 0], [0, 1]], 2)
    assert x.contains((ONE, ONE))
    assert x.basis == Matrix.identity(2)  # fills the cached dense view of x only
    assert x == Subspace.full(2) and hash(x) == hash(Subspace.full(2))
    assert Subspace.zero(2) != Subspace.zero(3)
    frozen(x, "ambient_dim")
    frozen(x, "rows")
    frozen(x, "basis")
    with pytest.raises(ValueError, match="^basis row length does not match ambient dimension$"):
        Subspace(2, ((0, {0: ONE}), (2, {2: ONE})))  # key 2 lies outside Q^2


def test_tensor_element_is_an_unhashable_value():
    x = TensorElement.from_terms(3, {(0, 1): 2, (2,): -1})
    assert x == TensorElement(3, {(2,): Q(-1), (0, 1): Q(2)})
    assert x != TensorElement(2, dict(x.terms))
    assert x != x.scale(2)
    with pytest.raises(TypeError):
        hash(x)  # the terms are a dict
    frozen(x, "dim_v")
    frozen(x, "terms")


def test_graded_map_is_a_value():
    images = (TensorElement.generator(2, 0), TensorElement.generator(2, 1))
    x = GradedMap(2, 1, images)
    assert x == GradedMap(2, 1, tuple(TensorElement.generator(2, i) for i in range(2)))
    assert x != GradedMap(2, 1, images[::-1])
    value_equal(lambda: GradedMap(2, 1, ()))
    frozen(x, "images")
    with pytest.raises(ValueError, match=r"^image is not in V\^\(tensor 2\)$"):
        GradedMap(2, 2, images)
    with pytest.raises(ValueError, match=r"^image is not in V\^\(tensor 1\)$"):
        GradedMap(3, 1, images)


def test_algebra_presentation_compares_by_identity():
    _, a, _ = ym_setup()
    identity_equal(lambda: AlgebraPresentation(a.dim_v, a.degree, a.relation_basis))
    frozen(a, "relation_basis")
    assert a.overlap is a.overlap  # cached properties still cache


BAD_PRESENTATIONS = [
    (0, 2, (), "need at least one generator"),
    (2, 1, (TensorElement.generator(2, 0),), "relation degree must be at least 2"),
    (2, 2, (TensorElement.from_terms(3, {(0, 1): 1}),), "relation with mismatched generator count"),
    (2, 2, (TensorElement.from_terms(2, {(0, 1): 1, (0,): 1}),), "relations must be nonzero and homogeneous of degree N"),
    (2, 2, (TensorElement.zero(2),), "relations must be nonzero and homogeneous of degree N"),
    (
        2,
        2,
        (TensorElement.from_terms(2, {(0, 1): 1}), TensorElement.from_terms(2, {(0, 1): 2})),
        "basis vectors are linearly dependent",
    ),
]


@pytest.mark.parametrize("dim_v, degree, basis, message", BAD_PRESENTATIONS, ids=[c[3] for c in BAD_PRESENTATIONS])
def test_algebra_presentation_validation(dim_v, degree, basis, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AlgebraPresentation(dim_v, degree, basis)


def test_metric_compares_by_identity():
    identity_equal(lambda: Metric.minkowski(3))
    m = Metric.euclidean(2)
    assert m.g_inv is m.g_inv
    frozen(m, "g")


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, 0, 0], [0, 1, 0]], "metric must be square"),
        ([[1, 0], [1, 1]], "metric must be symmetric"),
        ([[1, 1], [1, 1]], "metric is degenerate"),
    ],
)
def test_metric_validation_messages(rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Metric.from_rows(rows)


def test_deformation_and_conservation_compare_by_identity():
    _, a, current = ym_setup()
    identity_equal(lambda: current_to_deformation(current, a))
    d = current_to_deformation(current, a)
    identity_equal(lambda: deformation_from_tails(a, d.tails))
    assert d.tails is d.tails
    frozen(d, "parts")
    frozen(d, "den")
    identity_equal(lambda: conservation_residual(d))
    cons = conservation_residual(d)
    assert cons.residual is cons.residual
    frozen(cons, "conserved")


def test_current_parameters_are_values():
    metric = Metric.euclidean(3)
    value_equal(lambda: sample_current_parameters(random.Random(4), metric))
    p = sample_current_parameters(random.Random(4), metric)
    assert p == CurrentParameters(p.b, p.omega3, p.s3, p.s2, p.s1)
    assert p != sample_current_parameters(random.Random(5), metric)
    frozen(p, "b")
    frozen(p, "s1")
    # the symmetry messages are pinned by test_yang_mills.test_parameter_symmetry_enforced


def test_current_is_a_value():
    _, _, current = ym_setup()
    assert current == Current(current.j3, current.j2, current.j1)
    assert hash(current) == hash(Current(current.j3, current.j2, current.j1))
    assert current != Current(current.j3, current.j2, tuple(x + 1 for x in current.j1))
    frozen(current, "j1")


def test_result_records_are_values():
    metric, a, current = ym_setup()
    d = current_to_deformation(current, a)
    value_equal(lambda: pbw_verdict(d))
    value_equal(lambda: brute_force_oracle(d, 3, 4))
    value_equal(lambda: solve_stage1(a))
    value_equal(lambda: family_equals_solutions(a, iym_family_generators(metric)))
    value_equal(lambda: verify_identities(metric))
    value_equal(lambda: verify_super_identities(Metric.euclidean(3)))
    b, omega2 = sample_super_parameters(random.Random(6), 3)
    value_equal(lambda: shifted_generator_check(b, omega2, Metric.euclidean(3)))
    frozen(pbw_verdict(d), "overall")
    frozen(brute_force_oracle(d, 3, 4), "verdict")
    frozen(solve_stage1(a), "parameters")
    frozen(family_equals_solutions(a, iym_family_generators(metric)), "family_dim")
    frozen(verify_identities(metric), "cyclic_invariance")
    frozen(verify_super_identities(Metric.euclidean(3)), "anti_cyclic")
    frozen(shifted_generator_check(b, omega2, Metric.euclidean(3)), "shifted_form_matches")
