import hashlib
import math
from fractions import Fraction
import random
import sys

import pytest
import reference

import pbwforge.algebra as algebra
import pbwforge.linalg as linalg
import pbwforge.pbw as pbw
import pbwforge.rationals as rationals
import pbwforge.tensors as tensors
import pbwforge.yang_mills as yang_mills
from test_overlap_core import _perturbed, pinned_metrics, verdict_cases

from pbwforge.algebra import AlgebraPresentation, build_antisymmetrizer_relations
from pbwforge.linalg import Matrix, Subspace, inverse
from pbwforge.pbw import (
    DeformationMap,
    IdealSpan,
    ResourceGuardError,
    brute_force_oracle,
    check_j1,
    check_j2,
    check_j3,
    conservation_residual,
    deformation_from_tails,
    pbw_verdict,
)
from pbwforge.rationals import Q, format_rational, rational
from pbwforge.sampling import sample_current_parameters
from pbwforge.super_ym import build_sym
from pbwforge.tensors import GradedMap, TensorElement, word_index, word_table, words
from pbwforge.yang_mills import (
    Current,
    CurrentParameters,
    Metric,
    build_ym,
    current_from_parameters,
    current_to_deformation,
    freeze,
)


def so3_deformation(broken=False):
    a = build_antisymmetrizer_relations(3, 2)
    e = [TensorElement.generator(3, i) for i in range(3)]
    # relation order (0,1), (0,2), (1,2); the broken tail violates Jacobi
    tails = (e[2], -e[1], e[1] if broken else e[0])
    return deformation_from_tails(a, tails)


def zero3(n):
    return tuple(tuple(tuple(Q(0) for _ in range(n)) for _ in range(n)) for _ in range(n))


def zero2(n):
    return tuple(tuple(Q(0) for _ in range(n)) for _ in range(n))


def b_family_current(metric, b):
    p = CurrentParameters(b, zero3(metric.dim), zero3(metric.dim), zero2(metric.dim), (Q(0),) * metric.dim)
    return current_from_parameters(p, metric)


def test_zero_deformation_passes():
    a = build_ym(2, Metric.euclidean(3))
    d = deformation_from_tails(a, tuple(TensorElement.zero(3) for _ in range(3)))
    v = pbw_verdict(d)
    assert v.overall
    assert v.witness is None


def test_so3_passes():
    v = pbw_verdict(so3_deformation())
    assert v.overall


def test_non_jacobi_bracket_fails():
    v = pbw_verdict(so3_deformation(broken=True))
    assert not v.overall


def test_so3_oracle_matches_symmetric_algebra():
    import math

    res = brute_force_oracle(so3_deformation(), 6, 7)
    assert res.verdict == "CONSISTENT"
    expected = []
    total = 0
    for n in range(7):
        total += math.comb(n + 2, 2)
        expected.append(total)
    assert list(res.quotient_dims) == expected


def test_broken_bracket_oracle_fails():
    res = brute_force_oracle(so3_deformation(broken=True), 4, 5)
    assert res.verdict == "FAIL"
    assert res.failure_degree is not None


def test_check_j1_witness_not_in_r():
    # a lone j^{001}=1 coefficient breaks the top condition
    metric = Metric.euclidean(3)
    a = build_ym(2, metric)
    j3 = [[[Q(0)] * 3 for _ in range(3)] for _ in range(3)]
    j3[0][0][1] = Q(1)
    c = Current(tuple(tuple(tuple(r) for r in x) for x in j3), zero2(3), (Q(0),) * 3)
    d = current_to_deformation(c, a)
    ok, witness = check_j1(d)
    assert not ok
    assert witness is not None and not witness.is_zero()
    with pytest.raises(ValueError):
        a.relation_coords(witness)


def test_check_j2_level_feasibility():
    rng = random.Random(3)
    metric = Metric.euclidean(3)
    a = build_ym(2, metric)
    good = current_to_deformation(
        current_from_parameters(sample_current_parameters(rng, metric), metric), a
    )
    assert check_j1(good)[0]
    assert check_j2(good, 2)
    assert check_j2(good, 1)
    assert check_j3(good)
    bad = current_to_deformation(
        current_from_parameters(sample_current_parameters(rng, metric, violate="s3"), metric), a
    )
    assert check_j1(bad)[0]
    assert not check_j2(bad, 2)


def test_scalar_condition_fail_collapses_ideal():
    metric = Metric.euclidean(3)
    a = build_ym(2, metric)
    base = b_family_current(metric, (Q(1), Q(0), Q(0)))
    bad = Current(base.j3, base.j2, (Q(1), Q(0), Q(0)))
    d = current_to_deformation(bad, a)
    v = pbw_verdict(d)
    assert not v.overall
    assert v.j3_holds is False
    res = brute_force_oracle(d, 3, 4)
    assert res.verdict == "FAIL"
    # at cutoff 3 the collapse is invisible: bounded evidence only
    assert brute_force_oracle(d, 3, 3).verdict == "CONSISTENT"


def test_verdict_invariant_under_basis_remix():
    rng = random.Random(9)
    metric = Metric.euclidean(3)
    a = build_ym(2, metric)
    for violate in (None, "s2"):
        p = sample_current_parameters(rng, metric, violate=violate)
        current = current_from_parameters(p, metric)
        d = current_to_deformation(current, a)
        # remix the relation basis by a random invertible matrix
        while True:
            m = Matrix.from_rows(
                [[rational(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            )
            if inverse(m) is not None:
                break
        tails = current.tails()
        new_basis = []
        new_tails = []
        for k in range(3):
            r = TensorElement.zero(3)
            t = TensorElement.zero(3)
            for i in range(3):
                r = r + a.relation_basis[i].scale(m.data[k][i])
                t = t + tails[i].scale(m.data[k][i])
            new_basis.append(r)
            new_tails.append(t)
        remixed = AlgebraPresentation(3, 3, tuple(new_basis))
        d2 = deformation_from_tails(remixed, tuple(new_tails))
        assert pbw_verdict(d2).overall == pbw_verdict(d).overall


@pytest.mark.parametrize("t", ["2", "-1/3", "7/5"])
def test_verdict_invariant_under_filtration_rescaling(t):
    # phi_j -> t^(N-j) phi_j preserves all conditions
    rng = random.Random(17)
    metric = Metric.euclidean(3)
    a = build_ym(2, metric)
    t = rational(t)
    for violate in (None, "s1"):
        c = current_from_parameters(sample_current_parameters(rng, metric, violate=violate), metric)
        n = 3
        scaled = Current(
            tuple(tuple(tuple(t * c.j3[i][j][k] for k in range(n)) for j in range(n)) for i in range(n)),
            tuple(tuple(t * t * c.j2[i][k] for k in range(n)) for i in range(n)),
            tuple(t * t * t * c.j1[k] for k in range(n)),
        )
        v0 = pbw_verdict(current_to_deformation(c, a))
        v1 = pbw_verdict(current_to_deformation(scaled, a))
        assert v0.overall == v1.overall


def test_conservation_zero_current():
    a = build_ym(2, Metric.euclidean(3))
    d = deformation_from_tails(a, tuple(TensorElement.zero(3) for _ in range(3)))
    res = conservation_residual(d)
    assert res.conserved
    assert res.residual.is_zero()


def test_conservation_requires_the_two_sided_identity():
    # YM has sum e_rho (x) r_rho = sum r_rho (x) e_rho; SYM has it with a
    # minus sign, so3 has none, and six relations over four letters are
    # not one per generator
    assert build_ym(2, Metric.minkowski(3)).two_sided_identity
    others = (build_sym(2, Metric.minkowski(3)), build_antisymmetrizer_relations(3, 2), build_antisymmetrizer_relations(4, 2))
    for a in others:
        assert not a.two_sided_identity
        d = deformation_from_tails(a, tuple(TensorElement.zero(a.dim_v) for _ in a.relation_basis))
        with pytest.raises(ValueError, match="two-sided identity"):
            conservation_residual(d)


def test_conservation_matches_verdict_on_samples():
    rng = random.Random(23)
    metric = Metric.minkowski(3)
    a = build_ym(2, metric)
    for violate in (None, None, "s3", "s2", "s1"):
        p = sample_current_parameters(rng, metric, violate=violate)
        d = current_to_deformation(current_from_parameters(p, metric), a)
        assert conservation_residual(d).conserved == pbw_verdict(d).overall


def test_resource_guard(monkeypatch):
    monkeypatch.setenv("PBWFORGE_MAX_TENSOR_DIM", "10")
    a = build_ym(2, Metric.euclidean(3))
    d = deformation_from_tails(a, tuple(TensorElement.zero(3) for _ in range(3)))
    with pytest.raises(ResourceGuardError):
        brute_force_oracle(d, 4, 5)


def test_oracle_on_an_empty_relation_space():
    # N > dim_v antisymmetrizes nothing: the free algebra, whose ideal is zero
    a = build_antisymmetrizer_relations(2, 3)
    assert a.relation_basis == ()
    res = brute_force_oracle(deformation_from_tails(a, ()), 4, 6)
    assert res.verdict == "CONSISTENT"
    assert res.quotient_dims == res.expected_dims == (1, 3, 7, 15, 31)
    assert IdealSpan([], 2, 4).intersection_dim(4) == 0


def test_oracle_cutoff_below_nmax_rejected():
    d = so3_deformation()
    with pytest.raises(ValueError):
        brute_force_oracle(d, 4, 3)


def _dense_intersection_dims(relations, dim_v, cutoff):
    """dim (span of a p b) cap F^n for n = 0..cutoff, by reference elimination
    in the filtered coordinates of F^cutoff (degree blocks in increasing
    order, so F^n is the first filtered_dim(dim_v, n) coordinates)."""
    degree = max(p.max_degree for p in relations)
    products = []
    for i in range(cutoff - degree + 1):
        for k in range(cutoff - degree - i + 1):
            for left in words(dim_v, i):
                for right in words(dim_v, k):
                    a = TensorElement.from_terms(dim_v, {left: 1})
                    b = TensorElement.from_terms(dim_v, {right: 1})
                    products += [reference.to_filtered_vector(a.tensor(p).tensor(b), cutoff) for p in relations]
    total = reference.rank(products)
    # a vector of the span lies in F^n iff it vanishes on every coordinate after F^n
    return [
        total - reference.rank([v[reference.filtered_offset(dim_v, n + 1):] for v in products])
        for n in range(cutoff + 1)
    ]


def _custom_quadratic_deformation(seed):
    rng = random.Random(seed)

    def q():
        return Q(rng.randint(-5, 5), rng.randint(1, 4))

    dim_v = 3
    while True:
        basis = [
            TensorElement.from_terms(dim_v, {w: q() for w in rng.sample(list(words(dim_v, 2)), 3)})
            for _ in range(3)
        ]
        try:
            a = AlgebraPresentation(dim_v, 2, tuple(basis))
        except ValueError:
            continue
        break
    tails = [
        TensorElement.from_terms(dim_v, {(): q(), (rng.randrange(dim_v),): q()}) for _ in basis
    ]
    return deformation_from_tails(a, tails)


@pytest.mark.parametrize(
    "case, cutoff",
    [("so3", 4), ("so3-broken", 4), ("ym-s1", 5), ("ym-s1-s2", 5), ("custom-quadratic", 4)],
)
def test_ideal_span_matches_dense_reference(case, cutoff):
    if case.startswith("so3"):
        d = so3_deformation(broken=case.endswith("broken"))
    elif case.startswith("ym"):
        metric = Metric.minkowski(2)
        violate = "s2" if case.endswith("s2") else None
        params = sample_current_parameters(random.Random(7), metric, violate=violate)
        d = current_to_deformation(current_from_parameters(params, metric), build_ym(1, metric))
    else:
        d = _custom_quadratic_deformation(11)
    relations = d.deformed_relations()
    assert any(c.denominator != 1 for p in relations for c in p.terms.values()) or case.startswith("so3")
    span = IdealSpan(reference.keyed_rows(relations), d.algebra.dim_v, cutoff)
    got = [span.intersection_dim(n) for n in range(cutoff + 1)]
    assert got == _dense_intersection_dims(relations, d.algebra.dim_v, cutoff)


def test_deformation_tail_shape_checked():
    a = build_ym(2, Metric.euclidean(3))
    zero = TensorElement.zero(3)
    bad = {
        "one tail per relation basis vector": (zero,),
        "wrong generator space": (TensorElement.zero(2), zero, zero),
        r"F\^\(N-1\)": (TensorElement.from_terms(3, {(0, 1, 2): 1}), zero, zero),
    }
    # the converter is the one place a tail is checked and cleared
    for message, tails in bad.items():
        with pytest.raises(ValueError, match=message):
            deformation_from_tails(a, tails)


def conservation_cases():
    # 108 seeded (presentation, current) pairs: YM at s=1..3 over three
    # metrics, two rounds of: admissible, each side condition broken, a
    # perturbed top and j2 block
    for s in (1, 2, 3):
        for name, metric in pinned_metrics(s).items():
            rng = random.Random(f"conservation-{s}-{name}")
            a = build_ym(s, metric)
            for _ in range(2):
                currents = [
                    current_from_parameters(sample_current_parameters(rng, metric, violate=v), metric)
                    for v in (None, "s3", "s2", "s1")
                ]
                currents += [_perturbed(currents[0], rng, "top"), _perturbed(currents[0], rng, "j2")]
                for current in currents:
                    yield a, current


def test_conservation_residuals_match_pinned_hash():
    h = hashlib.sha256()
    tally: dict = {}
    for a, current in conservation_cases():
        res = conservation_residual(current_to_deformation(current, a))
        terms = sorted((w, format_rational(c)) for w, c in res.residual.terms.items())
        h.update(repr((res.conserved, terms)).encode())
        tally[res.conserved] = tally.get(res.conserved, 0) + 1
    assert tally == {False: 86, True: 22}
    assert h.hexdigest() == "03f9460846d8b76d499643f06aa7729c5eca9ef61653079029945533ed8abb89"


def deformation_digest(cases):
    # per case the den, the integer parts of each degree in order, each
    # pair with its word (read back from its index), and the rational tails
    h = hashlib.sha256()
    for a, current in cases:
        d = current_to_deformation(current, a)
        tables = [word_table(a.dim_v, j) for j in range(a.degree)]
        parts = [[[(table[i], x) for i, x in image] for image in images] for table, images in zip(tables, d.parts)]
        tails = [sorted((w, format_rational(c)) for w, c in t.terms.items()) for t in d.tails]
        h.update(repr((d.den, parts, tails)).encode())
    return h.hexdigest()


def test_current_deformations_match_pinned_hash():
    # the 54 currents of the verdict pin and the 108 of the conservation pin
    assert deformation_digest(verdict_cases()) == "b6a301b2ee33daee25829707121c38c807b0071be9125190a60da8714baa74cd"
    assert deformation_digest(conservation_cases()) == "8335e4593297ea76eb0d8812f156d89ad79689801ddc8b75f065427a9c724801"


def test_conservation_agrees_with_the_verdict():
    # YM at s = 1..4 over three metrics: admissible, each side condition
    # broken, and a perturbed j3, j2 and j1 block.  The conservation law
    # reads neither the overlap core nor the brackets: it runs first on a
    # fresh presentation, which builds no overlap core
    tally: dict = {}
    for s in (1, 2, 3, 4):
        for name, metric in pinned_metrics(s).items():
            rng = random.Random(f"agreement-{s}-{name}")
            a = build_ym(s, metric)
            currents = [
                current_from_parameters(sample_current_parameters(rng, metric, violate=v), metric)
                for v in (None, "s3", "s2", "s1")
            ]
            currents += [_perturbed(currents[0], rng, block) for block in ("top", "j2", "j1")]
            deformations = [current_to_deformation(current, a) for current in currents]
            laws = [conservation_residual(d) for d in deformations]
            assert "overlap" not in vars(a)
            for d, law in zip(deformations, laws):
                overall = pbw_verdict(d).overall
                assert law.conserved == (not law.residual.terms) == overall
                tally[overall] = tally.get(overall, 0) + 1
    assert tally == {True: 13, False: 71}


def test_a_deformation_built_from_integer_parts(monkeypatch):
    # a deformation given by its int numerators over one denominator, as a
    # polynomial numerator would be, runs the chain and the conservation
    # law with no rational converted, and agrees with the converter
    metric = Metric.minkowski(3)
    a = build_ym(2, metric)
    rng = random.Random(47)
    built, want = [], []
    for violate in (None, "s2"):
        tails = current_from_parameters(sample_current_parameters(rng, metric, violate=violate), metric).tails()
        den = math.lcm(*(c.denominator for t in tails for c in t.terms.values()))
        assert den > 1
        parts = tuple([[] for _ in tails] for _ in range(a.degree))
        for k, t in enumerate(tails):
            for w, c in t.terms.items():
                parts[len(w)][k].append((word_index(w, a.dim_v), c.numerator * (den // c.denominator)))
        converted = deformation_from_tails(a, tails)
        assert (converted.den, converted.parts) == (den, parts)
        want.append((pbw_verdict(converted), conservation_residual(converted).conserved))
        built.append(DeformationMap(a, den, parts))

    def refuse(*args):
        raise AssertionError("a rational was converted")

    for module in (rationals, pbw, algebra, linalg):
        monkeypatch.setattr(module, "times", refuse)
    got = [(pbw_verdict(d), conservation_residual(d).conserved) for d in built]
    assert got == want
    assert [v.overall for v, _ in got] == [True, False]
    assert [c for _, c in got] == [True, False]


class CountedRational(Fraction):
    """A rational that records each read of its numerator."""

    reads: list = []

    @property
    def numerator(self):
        CountedRational.reads.append(self)
        return Fraction.numerator.fget(self)


def counted(current):
    def wrap(x):
        return [wrap(y) for y in x] if isinstance(x, tuple) else CountedRational(int(x.numerator), int(x.denominator))

    return Current(*(freeze(wrap(block)) for block in current))


def test_a_verdict_builds_each_graded_part_once(monkeypatch):
    # the tails are cleared to ints once per deformation: the current is
    # read once, each coefficient's numerator once, and on a warmed
    # presentation verdicts and conservation checks convert no coefficient
    # and build no rational graded map; the converter from rational tails
    # clears each tail coefficient exactly once
    metric = Metric.minkowski(4)
    a = build_ym(3, metric)
    rng = random.Random(43)
    currents = [
        counted(current_from_parameters(sample_current_parameters(rng, metric, violate=v), metric))
        for v in (None, "s2")
    ]
    pbw_verdict(current_to_deformation(currents[0], a))
    conversions = []
    # no other module converts a coefficient; the current is read in yang_mills
    assert not hasattr(tensors, "times") and not hasattr(yang_mills, "times")
    for module in (pbw, algebra, linalg):

        def spy(c, den, real=module.times):
            conversions.append(c)
            return real(c, den)

        monkeypatch.setattr(module, "times", spy)
    built = []
    monkeypatch.setattr(GradedMap, "__init__", lambda *args: built.append(args))
    verdicts = []
    for current in currents:
        conversions.clear()
        CountedRational.reads.clear()
        d = current_to_deformation(current, a)
        for _ in range(2):
            verdicts.append(pbw_verdict(d).overall)
            conservation_residual(d)
        assert conversions == []
        assert len(CountedRational.reads) == len({id(x) for x in CountedRational.reads}) == 4 + 4**2 + 4**3
        deformation_from_tails(a, current.tails())
        assert len(conversions) == sum(len(t.terms) for t in d.tails) > 0
    assert verdicts == [True, True, False, False]
    assert built == []


def test_chain_and_conservation_run_on_sparse_rows(monkeypatch):
    # on a warmed presentation, a verdict and a conservation check build
    # no dense vector and no dense subspace and call no reduce_rows,
    # rref_rows or SparseEchelon: the relation coordinates of each top
    # bracket and of the divergence's top part are found once each, in
    # integers, and the canonical residual runs only when it is read, once,
    # and only for a current that is not conserved
    metric = Metric.minkowski(4)
    a = build_ym(3, metric)
    rng = random.Random(41)
    currents = [
        current_from_parameters(sample_current_parameters(rng, metric, violate=v), metric)
        for v in (None, "s3", "s2", "s1")
    ]
    currents.append(_perturbed(currents[0], rng, "top"))
    warm = current_to_deformation(currents[0], a)
    pbw_verdict(warm)
    conservation_residual(warm)

    assert not hasattr(TensorElement, "to_degree_vector")
    dense = []
    for owner, name in (
        (Subspace, "from_spanning"),
        (Subspace, "from_sparse"),
        (Subspace, "reduce"),
    ):

        def spy(*args, real=getattr(owner, name), name=name):
            dense.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, spy)
    assert not hasattr(pbw, "reduce_rows") and not hasattr(pbw, "rref_rows")
    eliminations = []
    for owner, name in ((linalg, "reduce_rows"), (linalg, "rref_rows"), (linalg.SparseEchelon, "__init__")):

        def record(*args, name=name):
            eliminations.append(name)

        monkeypatch.setattr(owner, name, record)
    residuals = []
    real_residual = pbw.residual

    def residual_spy(*args):
        residuals.append(args)
        return real_residual(*args)

    monkeypatch.setattr(pbw, "residual", residual_spy)
    solves = []
    real_solve = linalg.BasisCoordinates.integer_coordinates

    def solve_spy(frame, v):
        solves.append(frame is a.relation_frame)
        return real_solve(frame, v)

    monkeypatch.setattr(linalg.BasisCoordinates, "integer_coordinates", solve_spy)
    verdicts = []
    for current in currents:
        residuals.clear()
        solves.clear()
        d = current_to_deformation(current, a)
        verdict = pbw_verdict(d)
        law = conservation_residual(d)
        verdicts.append(verdict.j1_holds)
        assert law.conserved == verdict.overall
        assert residuals == []
        assert law.residual.is_zero() == law.conserved
        assert law.residual is law.residual
        assert len(residuals) == (0 if law.conserved else 1)
        assert solves == [True] * (len(a.overlap.vectors) + 1)
    assert dense == []
    assert eliminations == []
    assert verdicts == [True, True, True, True, False]
    assert not hasattr(TensorElement, "to_filtered_vector")


def test_the_chain_accepts_an_xyx_tail_that_the_oracle_refutes():
    # a wrong positive, pinned until a report states the Koszul status:
    # R = span{xyx} on 2 letters is not 3-Koszul and W = 0, so the chain
    # has no overlap to test and accepts phi(xyx) = 2xx - yx - x, while
    # the oracle finds a quotient smaller than the graded count in degree 4
    a = AlgebraPresentation(2, 3, (TensorElement.from_terms(2, {(0, 1, 0): 1}),))
    tail = TensorElement.from_terms(2, {(0, 0): 2, (1, 0): -1, (0,): -1})
    d = deformation_from_tails(a, (tail,))
    assert algebra.overlap_space(a).dim == 0
    v = pbw_verdict(d)
    assert (v.j1_holds, v.j2_holds, v.j3_holds, v.overall) == (True, (True, True), True, True)
    oracle = brute_force_oracle(d, 5, 6)
    assert (oracle.verdict, oracle.failure_degree) == ("FAIL", 4)
    assert oracle.quotient_dims == (1, 3, 7, 14, 25, 42)
    assert oracle.expected_dims == (1, 3, 7, 14, 26, 47)


def _package_calls(certificate):
    """The pbwforge functions outside linalg, tensors and rationals that
    ``certificate`` calls on a deformation of a fresh YM s=2 presentation."""
    metric = Metric.euclidean(3)
    a = build_ym(2, metric)
    d = current_to_deformation(current_from_parameters(sample_current_parameters(random.Random(5), metric), metric), a)
    shared = ("pbwforge.linalg", "pbwforge.tensors", "pbwforge.rationals")
    seen = set()

    def probe(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("pbwforge.") and module not in shared:
            seen.add((module, frame.f_code.co_name, frame.f_code.co_firstlineno))

    sys.setprofile(probe)
    try:
        certificate(d)
    finally:
        sys.setprofile(None)
    return seen


def test_the_three_certificates_share_no_function():
    # the chain, the conservation law and the oracle reach a verdict
    # independently: outside the exact arithmetic and the tensor layer,
    # no function runs under two of them
    calls = [
        _package_calls(pbw_verdict),
        _package_calls(lambda d: conservation_residual(d).residual),
        _package_calls(lambda d: brute_force_oracle(d, 4, 5)),
    ]
    for name, seen in zip(("pbw_verdict", "conservation_residual", "brute_force_oracle"), calls):
        assert ("pbwforge.pbw", name) in {(m, f) for m, f, _ in seen}
    assert not calls[0] & calls[1] and not calls[0] & calls[2] and not calls[1] & calls[2]
