import random

import pytest
import reference

from pbwforge.algebra import overlap_space
from pbwforge.pbw import brute_force_oracle, pbw_verdict
from pbwforge.rationals import ONE, Q, rational
from pbwforge.sampling import random_metric, sample_super_parameters
from pbwforge.super_ym import (
    build_sym,
    centrality_check,
    quadratic_casimir,
    relations_from_mixed_brackets,
    shifted_generator_check,
    super_current_from_parameters,
    super_current_to_deformation,
    sym_coefficients,
    verify_super_identities,
)
from pbwforge.tensors import TensorElement
from pbwforge.yang_mills import Current, Metric, build_ym, current_to_deformation


def test_sym_coefficients_s1_identity_metric():
    w = sym_coefficients(Metric.euclidean(2))
    assert w[0][0][1][1] == 1
    assert w[0][1][1][0] == -1
    assert w[0][0][0][0] == 0


def test_relations_match_mixed_bracket_form():
    for metric in (Metric.euclidean(2), Metric.minkowski(3)):
        a = build_sym(metric.dim - 1, metric)
        assert tuple(a.relation_basis) == relations_from_mixed_brackets(metric)


def test_sym_relation_rank_minkowski():
    a = build_sym(2, Metric.minkowski(3))
    assert len(a.relation_basis) == 3
    assert a.relation_space.dim == 3


@pytest.mark.parametrize("s", [1, 2, 3])
def test_super_identities(s):
    rng = random.Random(100 + s)
    for metric in (Metric.euclidean(s + 1), Metric.minkowski(s + 1), random_metric(rng, s + 1)):
        report = verify_super_identities(metric)
        assert report.all_pass


@pytest.mark.parametrize("s", [1, 2])
def test_super_identities_with_the_presentation_agree(s):
    for metric in (Metric.euclidean(s + 1), Metric.minkowski(s + 1)):
        a = build_sym(s, metric)
        assert verify_super_identities(metric, presentation=a) == verify_super_identities(metric)
    with pytest.raises(ValueError):
        verify_super_identities(Metric.euclidean(s + 1), presentation=build_ym(s, Metric.euclidean(s + 1)))


def test_super_identities_negative_control():
    metric = Metric.euclidean(2)
    w = [[[list(r) for r in p] for p in x] for x in sym_coefficients(metric)]
    w[0][0][1][1] = w[0][0][1][1] + 1
    frozen = tuple(tuple(tuple(tuple(r) for r in p) for p in x) for x in w)
    report = verify_super_identities(metric, coefficients=frozen)
    assert not report.all_pass


def test_overlap_line_spanned_by_anti_two_sided_element():
    metric = Metric.minkowski(3)
    a = build_sym(2, metric)
    w = TensorElement.zero(3)
    for rho, r in enumerate(a.relation_basis):
        w = w + TensorElement.generator(3, rho).tensor(r)
    space = overlap_space(a)
    assert space.dim == 1
    assert space.contains(reference.to_degree_vector(w, 4))


def test_quadratic_element_central():
    metric = Metric.euclidean(3)
    a = build_sym(2, metric)
    assert centrality_check(a, metric, n_max=5)


def test_centrality_degree3_subspace_equality():
    from pbwforge.linalg import Subspace
    from pbwforge.tensors import commutator

    metric = Metric.euclidean(3)
    a = build_sym(2, metric)
    q = quadratic_casimir(metric)
    span = [
        reference.to_degree_vector(commutator(q, TensorElement.generator(3, i)), 3) for i in range(3)
    ]
    assert Subspace.from_spanning(span, 27) == a.relation_space


def test_family_forward():
    rng = random.Random(55)
    for metric in (Metric.euclidean(3), Metric.minkowski(3)):
        a = build_sym(2, metric)
        for _ in range(3):
            b, om = sample_super_parameters(rng, 3)
            c = super_current_from_parameters(b, om, metric)
            assert pbw_verdict(super_current_to_deformation(c, a)).overall


def test_super_and_ym_readers_are_distinct_and_agree():
    # two function objects, so a tracer can tell the families apart, over
    # one reader: the same den and parts for every super current
    assert super_current_to_deformation is not current_to_deformation
    rng = random.Random(56)
    for s in (1, 2, 3):
        metric = random_metric(rng, s + 1)
        a = build_sym(s, metric)
        for _ in range(2):
            c = super_current_from_parameters(*sample_super_parameters(rng, s + 1), metric)
            d, want = super_current_to_deformation(c, a), current_to_deformation(c, a)
            assert (d.den, d.parts) == (want.den, want.parts)


def test_family_forward_oracle_agrees():
    metric = Metric.euclidean(3)
    a = build_sym(2, metric)
    b = (Q(1), Q(0), Q(0))
    om = ((Q(0), Q(1), Q(0)), (Q(-1), Q(0), Q(0)), (Q(0), Q(0), Q(0)))
    d = super_current_to_deformation(super_current_from_parameters(b, om, metric), a)
    assert brute_force_oracle(d, 4, 5).verdict == "CONSISTENT"


def test_symmetric_part_in_j2_fails():
    metric = Metric.euclidean(3)
    a = build_sym(2, metric)
    b, om = (Q(1), Q(0), Q(0)), ((Q(0), Q(1), Q(0)), (Q(-1), Q(0), Q(0)), (Q(0), Q(0), Q(0)))
    c = super_current_from_parameters(b, om, metric)
    bad_j2 = tuple(
        tuple(c.j2[i][j] + (ONE if i == j == 0 else 0) for j in range(3)) for i in range(3)
    )
    bad = Current(c.j3, bad_j2, c.j1)
    assert not pbw_verdict(super_current_to_deformation(bad, a)).overall


def test_wrong_scalar_block_fails():
    metric = Metric.euclidean(3)
    a = build_sym(2, metric)
    b, om = (Q(1), Q(0), Q(0)), ((Q(0), Q(1), Q(0)), (Q(-1), Q(0), Q(0)), (Q(0), Q(0), Q(0)))
    c = super_current_from_parameters(b, om, metric)
    bad = Current(c.j3, c.j2, (c.j1[0] + 1, c.j1[1], c.j1[2]))
    v = pbw_verdict(super_current_to_deformation(bad, a))
    assert not v.overall


def test_scalar_condition_automatic_for_family():
    # the final scalar condition holds identically on the family
    rng = random.Random(77)
    metric = Metric.minkowski(3)
    a = build_sym(2, metric)
    for _ in range(5):
        b, om = sample_super_parameters(rng, 3)
        c = super_current_from_parameters(b, om, metric)
        v = pbw_verdict(super_current_to_deformation(c, a))
        assert v.j3_holds


def test_super_hilbert_matches_ym():
    from pbwforge.algebra import graded_dim

    a = build_sym(2, Metric.euclidean(3))
    assert [graded_dim(a, n) for n in range(6)] == [1, 3, 9, 24, 64, 168]


def test_antisymmetry_of_omega2_enforced():
    metric = Metric.euclidean(3)
    bad = ((Q(0), Q(1), Q(0)), (Q(1), Q(0), Q(0)), (Q(0), Q(0), Q(0)))
    with pytest.raises(ValueError):
        super_current_from_parameters((Q(1), Q(0), Q(0)), bad, metric)


def test_shifted_generators_trivial_case():
    metric = Metric.euclidean(3)
    zero2 = tuple((Q(0),) * 3 for _ in range(3))
    report = shifted_generator_check((Q(0),) * 3, zero2, metric)
    assert report.all_pass


@pytest.mark.parametrize("seed", range(4))
def test_shifted_generators_samples(seed):
    rng = random.Random(300 + seed)
    metric = Metric.euclidean(3) if seed % 2 else Metric.minkowski(3)
    b, om = sample_super_parameters(rng, 3)
    report = shifted_generator_check(b, om, metric)
    assert report.centrality_form_matches
    assert report.shifted_form_matches


def test_shifted_generators_wrong_factor_fails():
    rng = random.Random(9)
    metric = Metric.euclidean(3)
    b, om = sample_super_parameters(rng, 3)
    report = shifted_generator_check(b, om, metric, shift=rational(1))
    assert report.centrality_form_matches
    assert not report.shifted_form_matches
