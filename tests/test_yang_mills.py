import random

import pytest
import reference

from test_overlap_core import _perturbed, pinned_metrics

from pbwforge.algebra import build_antisymmetrizer_relations, overlap_space
from pbwforge.pbw import brute_force_oracle, conservation_residual, deformation_from_tails, pbw_verdict
from pbwforge.rationals import ONE, Q, rational
from pbwforge.sampling import (
    random_antisymmetric3,
    random_metric,
    sample_current_parameters,
    sample_super_parameters,
)
from pbwforge.sampling import random_rational
from pbwforge.super_ym import build_sym, super_current_from_parameters
from pbwforge.tensors import TensorElement, commutator
from pbwforge.yang_mills import (
    Current,
    CurrentParameters,
    Metric,
    build_ym,
    current_from_parameters,
    current_to_deformation,
    freeze,
    nested_zeros,
    physics_current,
    relations_from_nested_commutators,
    verify_identities,
    ym_coefficients,
)


def zero3(n):
    return tuple(tuple(tuple(Q(0) for _ in range(n)) for _ in range(n)) for _ in range(n))


def zero2(n):
    return tuple(tuple(Q(0) for _ in range(n)) for _ in range(n))


def test_metric_validation():
    with pytest.raises(ValueError):
        Metric.from_rows([[1, 0], [1, 1]])  # not symmetric
    with pytest.raises(ValueError):
        Metric.from_rows([[1, 1], [1, 1]])  # degenerate
    m = Metric.minkowski(4)
    assert m.g.data[0][0] == -1
    assert m.g.data[1][1] == 1


def test_metric_inverse_contracts_to_identity():
    rng = random.Random(2)
    m = random_metric(rng, 3)
    for i in range(3):
        for j in range(3):
            total = sum((m.g.data[i][k] * m.g_inv.data[k][j] for k in range(3)), Q(0))
            assert total == (ONE if i == j else 0)


def test_ym_coefficients_s1_identity_metric():
    w = ym_coefficients(Metric.euclidean(2))
    assert w[0][0][1][1] == 1
    assert w[0][1][0][1] == -2
    assert w[0][1][1][0] == 1
    assert w[0][0][0][0] == 0


def test_relations_match_nested_commutator_form():
    for metric in (Metric.euclidean(2), Metric.minkowski(3)):
        a = build_ym(metric.dim - 1, metric)
        assert tuple(a.relation_basis) == relations_from_nested_commutators(metric)


def test_ym_relation_rank():
    a = build_ym(2, Metric.minkowski(3))
    assert len(a.relation_basis) == 3
    assert a.relation_space.dim == 3


@pytest.mark.parametrize("s", [1, 2, 3])
def test_identities_all_metrics(s):
    rng = random.Random(s)
    metrics = [Metric.euclidean(s + 1), Metric.minkowski(s + 1), random_metric(rng, s + 1)]
    for metric in metrics:
        report = verify_identities(metric)
        assert report.all_pass


@pytest.mark.parametrize("s", [1, 2])
def test_identities_with_the_presentation_agree(s):
    # W read from the presentation's overlap core gives the same report
    for metric in (Metric.euclidean(s + 1), Metric.minkowski(s + 1)):
        a = build_ym(s, metric)
        assert verify_identities(metric, presentation=a) == verify_identities(metric)
    with pytest.raises(ValueError):
        verify_identities(Metric.euclidean(s + 1), presentation=build_ym(s, Metric.minkowski(s + 1)))


def test_identities_negative_control():
    metric = Metric.euclidean(2)
    w = [list(map(list, plane)) for plane in ym_coefficients(metric)]
    w = [[[list(r) for r in p] for p in x] for x in w]
    w[0][0][1][1] = w[0][0][1][1] + 1
    frozen = tuple(tuple(tuple(tuple(r) for r in p) for p in x) for x in w)
    report = verify_identities(metric, coefficients=frozen)
    assert not report.all_pass
    assert not report.cyclic_invariance


def test_two_sided_identity_as_commutator():
    # [e_rho, W^rho] = 0 identically in degree 4
    metric = Metric.minkowski(3)
    a = build_ym(2, metric)
    acc = TensorElement.zero(3)
    for rho, r in enumerate(a.relation_basis):
        acc = acc + commutator(TensorElement.generator(3, rho), r)
    assert acc.is_zero()


def test_w_spans_overlap():
    metric = Metric.euclidean(3)
    a = build_ym(2, metric)
    w = TensorElement.zero(3)
    for rho, r in enumerate(a.relation_basis):
        w = w + r.tensor(TensorElement.generator(3, rho))
    space = overlap_space(a)
    assert space.dim == 1
    assert space.contains(reference.to_degree_vector(w, 4))


def test_current_parameters_symmetry_enforced():
    n = 3
    bad = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    bad[0][0][1] = Q(1)  # not antisymmetric
    with pytest.raises(ValueError):
        CurrentParameters((Q(1),) * n, tuple(tuple(tuple(r) for r in x) for x in bad), zero3(n), zero2(n), (Q(0),) * n)


# one bad array per case: (parameter, nonzero entries, message); each
# rank-3 array obeys the rule under one adjacent swap and breaks it under the other
BAD_SYMMETRY = [
    ("omega3", {(0, 1, 2): 1, (1, 0, 2): -1}, "omega3 must be totally antisymmetric"),
    ("omega3", {(0, 1, 2): 1, (0, 2, 1): -1}, "omega3 must be totally antisymmetric"),
    ("s3", {(0, 0, 1): 1}, "s3 must be totally symmetric"),
    ("s3", {(0, 1, 1): 1}, "s3 must be totally symmetric"),
    ("s2", {(0, 1): 1}, "s2 must be symmetric"),
    ("omega2", {(0, 1): 1, (1, 0): 1}, "omega2 must be antisymmetric"),
    ("omega2", {(2, 2): 1}, "omega2 must be antisymmetric"),
]


def test_array_shapes_are_checked_in_the_library():
    n, z = 3, Q(0)
    b, s1 = (Q(1), z, z), (z,) * n
    flat = tuple(z for _ in range(n * n))  # a number where a row belongs
    with pytest.raises(ValueError, match=r"s2 must have shape \(3, 3\) for a b of length 3"):
        CurrentParameters(b, zero3(n), zero3(n), flat, s1)
    with pytest.raises(ValueError, match=r"omega3 must have shape \(3, 3, 3\)"):
        CurrentParameters(b, zero3(n)[:2], zero3(n), zero2(n), s1)
    with pytest.raises(ValueError, match=r"s1 must have shape \(3,\)"):
        CurrentParameters(b, zero3(n), zero3(n), zero2(n), s1 + (z,))
    with pytest.raises(ValueError, match=r"j3 must have shape \(3, 3, 3\) for a j1 of length 3"):
        Current(zero3(n)[:2], zero2(n), s1)
    with pytest.raises(ValueError, match=r"j2 must have shape \(3, 3\)"):
        Current(zero3(n), zero2(n) + (s1,), s1)
    with pytest.raises(ValueError, match=r"b must have shape \(3,\) for a metric of dimension 3"):
        super_current_from_parameters(b[:2], zero2(n), Metric.euclidean(n))
    with pytest.raises(ValueError, match=r"omega2 must have shape \(3, 3\)"):
        super_current_from_parameters(b, tuple(row[:2] for row in zero2(n)), Metric.euclidean(n))


@pytest.mark.parametrize("name, entries, message", BAD_SYMMETRY)
def test_parameter_symmetry_enforced(name, entries, message):
    n = 3
    t = nested_zeros(n, len(next(iter(entries))))
    for idx, c in entries.items():
        row = t
        for i in idx[:-1]:
            row = row[i]
        row[idx[-1]] = Q(c)
    bad = freeze(t)
    with pytest.raises(ValueError, match=message):
        if name == "omega2":
            super_current_from_parameters((Q(1), Q(0), Q(0)), bad, Metric.euclidean(n))
        else:
            given = {"omega3": zero3(n), "s3": zero3(n), "s2": zero2(n), name: bad}
            CurrentParameters((Q(1),) * n, given["omega3"], given["s3"], given["s2"], (Q(0),) * n)


def test_zero_parameters_zero_current():
    metric = Metric.euclidean(3)
    p = CurrentParameters((Q(0),) * 3, zero3(3), zero3(3), zero2(3), (Q(0),) * 3)
    c = current_from_parameters(p, metric)
    assert all(x == 0 for x in c.j1)
    assert all(c.j2[i][j] == 0 for i in range(3) for j in range(3))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_tails_equal_the_from_terms_construction(s):
    # seeded YM and SYM currents, with rational and zero entries: each tail
    # keeps its nonzero entries as they stand, which is what from_terms
    # gives after coercing every entry
    rng = random.Random(f"tails-{s}")
    n = s + 1
    metric = random_metric(rng, n)
    currents = [
        current_from_parameters(sample_current_parameters(rng, metric, violate=v), metric)
        for v in (None, "s3", "s1")
    ]
    currents.append(super_current_from_parameters(*sample_super_parameters(rng, n), metric))
    zero = CurrentParameters((Q(0),) * n, zero3(n), zero3(n), zero2(n), (Q(0),) * n)
    currents.append(current_from_parameters(zero, metric))
    entries = []
    for c in currents:
        want = []
        for rho in range(n):
            terms = {(): c.j1[rho]}
            terms.update({(mu,): c.j2[mu][rho] for mu in range(n)})
            terms.update({(mu, nu): c.j3[mu][nu][rho] for mu in range(n) for nu in range(n)})
            entries.extend(terms.values())
            want.append(TensorElement.from_terms(n, terms))
        got = c.tails()
        assert got == tuple(want)
        assert all(type(x) is type(ONE) and x for t in got for x in t.terms.values())
    assert 0 in entries and any(x.denominator != 1 for x in entries)
    assert currents[-1].tails() == (TensorElement.zero(n),) * n


def test_theorem_forward_samples():
    rng = random.Random(41)
    for metric in (Metric.euclidean(3), Metric.minkowski(3)):
        a = build_ym(2, metric)
        for _ in range(3):
            p = sample_current_parameters(rng, metric)
            d = current_to_deformation(current_from_parameters(p, metric), a)
            assert pbw_verdict(d).overall


@pytest.mark.parametrize("violate", ["s3", "s2", "s1"])
def test_theorem_reverse_samples(violate):
    rng = random.Random(hash(violate) % 1000)
    metric = Metric.euclidean(3)
    a = build_ym(2, metric)
    for _ in range(3):
        p = sample_current_parameters(rng, metric, violate=violate)
        d = current_to_deformation(current_from_parameters(p, metric), a)
        assert not pbw_verdict(d).overall


def test_current_round_trip():
    rng = random.Random(4)
    metric = Metric.euclidean(3)
    a = build_ym(2, metric)
    p = sample_current_parameters(rng, metric)
    c = current_from_parameters(p, metric)
    d = current_to_deformation(c, a)
    tails = c.tails()
    for k in range(3):
        assert d.tails[k] == tails[k]


def test_nonconserved_current_oracle_failure():
    # family j3 for b=(1,0,0) with the scalar tail set to b breaks
    # conservation and collapses the filtered quotient one degree up
    metric = Metric.euclidean(3)
    a = build_ym(2, metric)
    p = CurrentParameters((Q(1), Q(0), Q(0)), zero3(3), zero3(3), zero2(3), (Q(0),) * 3)
    base = current_from_parameters(p, metric)
    bad = Current(base.j3, base.j2, (Q(1), Q(0), Q(0)))
    d = current_to_deformation(bad, a)
    assert not conservation_residual(d).conserved
    assert brute_force_oracle(d, 3, 4).verdict == "FAIL"


def test_physics_current_regular_when_constraints_hold():
    metric = Metric.euclidean(4)
    n = 4
    b = (Q(1), Q(0), Q(0), Q(0))
    om = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for perm, sign in (((1, 2, 3), 1), ((2, 3, 1), 1), ((3, 1, 2), 1),
                       ((2, 1, 3), -1), ((1, 3, 2), -1), ((3, 2, 1), -1)):
        om[perm[0]][perm[1]][perm[2]] = Q(sign)
    om = tuple(tuple(tuple(r) for r in x) for x in om)
    s1 = (Q(0), Q(1), Q(0), Q(0))
    current, constraints = physics_current(b, om, s1, metric)
    assert constraints["b_omega_orthogonal"]
    assert constraints["b_s_orthogonal"]
    a = build_ym(3, metric)
    assert pbw_verdict(current_to_deformation(current, a)).overall


def test_physics_current_violating_constraint_not_regular():
    metric = Metric.euclidean(4)
    n = 4
    b = (Q(1), Q(0), Q(0), Q(0))
    om = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)):
        om[perm[0]][perm[1]][perm[2]] = Q(sign)
    om = tuple(tuple(tuple(r) for r in x) for x in om)
    current, constraints = physics_current(b, om, (Q(0),) * n, metric)
    assert not constraints["b_omega_orthogonal"]
    a = build_ym(3, metric)
    assert not pbw_verdict(current_to_deformation(current, a)).overall


def test_physics_current_inside_family_shape():
    # the expanded j3 always lies in the span of the closed-form family
    from pbwforge.classify import solve_stage1
    from pbwforge.yang_mills import flatten_top_block

    rng = random.Random(6)
    metric = Metric.minkowski(3)
    a = build_ym(2, metric)
    stage1 = solve_stage1(a)
    for _ in range(3):
        b = tuple(rational(rng.randint(-5, 5)) for _ in range(3))
        om = random_antisymmetric3(rng, 3)
        current, _ = physics_current(b, om, (Q(0),) * 3, metric)
        assert stage1.parameters.contains(flatten_top_block(current.j3, 3))


def _random_current(rng, n, zero_block=None):
    # every entry a small random rational, about a third of them zero
    def draw():
        return random_rational(rng, 9) if rng.random() < 0.7 else Q(0)

    j3 = freeze([[[draw() for _ in range(n)] for _ in range(n)] for _ in range(n)])
    j2 = freeze([[draw() for _ in range(n)] for _ in range(n)])
    j1 = tuple(draw() for _ in range(n))
    if zero_block == "j3":
        j3 = zero3(n)
    elif zero_block == "j2":
        j2 = zero2(n)
    elif zero_block == "j1":
        j1 = (Q(0),) * n
    return Current(j3, j2, j1)


def _same_deformation(d, want):
    # the same den and the same parts in the same order, all plain ints
    assert (d.den, d.parts) == (want.den, want.parts)
    assert type(d.den) is int
    assert all(type(i) is int and type(x) is int for images in d.parts for image in images for i, x in image)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_current_read_into_parts_matches_the_tails(s):
    # the direct read of the arrays against clearing the rational tails,
    # and the tails read back from the parts against the parts
    for name, metric in pinned_metrics(s).items():
        rng = random.Random(f"direct-{s}-{name}")
        n = s + 1
        ym, sym = build_ym(s, metric), build_sym(s, metric)
        admissible = current_from_parameters(sample_current_parameters(rng, metric), metric)
        cases = [
            (ym, admissible),
            (ym, current_from_parameters(sample_current_parameters(rng, metric, violate="s3"), metric)),
            (ym, _perturbed(admissible, rng, "j1")),
            (sym, super_current_from_parameters(*sample_super_parameters(rng, n), metric)),
            (ym, Current(zero3(n), zero2(n), (Q(0),) * n)),
        ]
        cases += [(a, _random_current(rng, n, block)) for a in (ym, sym) for block in (None, "j3", "j2", "j1")]
        for a, current in cases:
            d = current_to_deformation(current, a)
            _same_deformation(d, deformation_from_tails(a, current.tails()))
            _same_deformation(deformation_from_tails(a, d.tails), d)


def test_current_read_into_parts_of_a_quadratic_presentation():
    # three relations on three generators of degree 2: a current with a
    # degree-2 part is rejected, as its tails are, and one without is read
    a = build_antisymmetrizer_relations(3, 2)
    rng = random.Random(7)
    with pytest.raises(ValueError):
        current_to_deformation(_random_current(rng, 3), a)
    with pytest.raises(ValueError):
        deformation_from_tails(a, _random_current(rng, 3).tails())
    current = _random_current(rng, 3, "j3")
    _same_deformation(current_to_deformation(current, a), deformation_from_tails(a, current.tails()))
