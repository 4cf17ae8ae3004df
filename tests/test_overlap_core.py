"""The per-presentation overlap core against the direct side evaluation,
and pins of its exact output and of the verdicts built on it."""

import hashlib
import random

import pytest
import reference

import pbwforge.algebra as algebra
import pbwforge.classify as classify
import pbwforge.linalg as linalg
import pbwforge.pbw as pbw
import pbwforge.tensors as tensors
from pbwforge.algebra import AlgebraPresentation, build_antisymmetrizer_relations, overlap_space
from pbwforge.linalg import Subspace
from pbwforge.rationals import Q, format_rational, rational
from pbwforge.sampling import (
    random_metric,
    random_rational,
    sample_current_parameters,
    sample_super_parameters,
)
from pbwforge.super_ym import build_sym, super_current_from_parameters
from pbwforge.tensors import GradedMap, TensorElement, add_images, apply_graded_side, word_table
from pbwforge.yang_mills import (
    Current,
    Metric,
    build_ym,
    current_from_parameters,
    current_to_deformation,
    freeze,
)

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
    entries = [[random_rational(rng, 9) for _ in range(cols)] for _ in range(rows)]
    images = tuple(
        reference.from_degree_vector(a.dim_v, j, [row[k] for row in entries]) for k in range(cols)
    )
    return GradedMap(a.dim_v, j, images)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_core_brackets_match_side_evaluation(name):
    # the entries summed over a map's integer images are its brackets,
    # keyed by word index in degree j + 1
    a = PRESENTATIONS[name]()
    core = a.overlap
    assert len(core.vectors) == len(core.entries) == overlap_space(a).dim > 0
    rng = random.Random(name)
    for j in range(a.degree):
        table = word_table(a.dim_v, j + 1)
        for _ in range(2):
            phi = random_graded_map(rng, a, j)
            d = pbw.deformation_from_tails(a, phi.images)
            for x, (den, entries) in zip(core.vectors, core.entries):
                terms = add_images({}, d.parts[j], entries, a.dim_v, j)
                got = TensorElement.from_integers(a.dim_v, {table[i]: c for i, c in terms.items()}, den * d.den)
                want = apply_graded_side(phi.images, a.relation_basis, x, "right") - apply_graded_side(
                    phi.images, a.relation_basis, x, "left"
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


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_one_relation_frame_per_presentation(name, monkeypatch):
    # R's basis is inverted once, for relation_frame, and the side
    # decompositions of every overlap vector and stage 1 read that frame
    # (a metric's inverse is bound in yang_mills and not counted here)
    calls = []
    real = linalg.inverse

    def counting(m):
        calls.append(m.rows)
        return real(m)

    monkeypatch.setattr(linalg, "inverse", counting)
    a = PRESENTATIONS[name]()
    assert a.overlap.entries
    classify.solve_stage1(a)
    assert calls == [len(a.relation_basis)]


def test_top_bracket_outside_r_raises_in_check_j2():
    a = build_ym(2, Metric.euclidean(3))
    # phi(r_1) = e_0 (x) e_0, the lone j3[0][0][1] that breaks the top condition
    lone = TensorElement.from_terms(3, {(0, 0): rational(1)})
    d = pbw.deformation_from_tails(a, (TensorElement.zero(3), lone, TensorElement.zero(3)))
    assert not pbw.check_j1(d)[0]
    with pytest.raises(ValueError):
        pbw.check_j2(d, 1)
    # on the custom cubic the level-2 test already fails on the first
    # overlap vector, whose top bracket lies in R; a later one's does not
    c = custom_cubic()
    zeros = [TensorElement.zero(2)] * len(c.relation_basis)
    tail = TensorElement.from_terms(2, {(0, 0): rational(1), (1,): rational(1)})
    d = pbw.deformation_from_tails(c, tuple([tail] + zeros[1:]))
    assert not pbw.check_j1(d)[0]
    for check in (lambda: pbw.check_j2(d, 2), lambda: pbw.check_j3(d)):
        with pytest.raises(ValueError):
            check()


def pinned_metrics(s):
    n = s + 1
    return {
        "euclidean": Metric.euclidean(n),
        "minkowski": Metric.minkowski(n),
        "random": random_metric(random.Random(1000 + s), n),
    }


# (dim W, sha256 of core_digest) recorded before the overlap core was
# built without the dense Zassenhaus intersection; any change to the
# canonical basis of W or to its side decompositions shows up here
CORE_PINS = {
    "custom-cubic": (5, "c4558a1a11cfff9f9c3e40b7454bcf80295b9d22b454efc1922fcd1101c4fd9c"),
    "so3": (1, "8e27e5e8d5d69134343612a13ebe7a2d905e36326118535ed67189ac9fb46a44"),
    "sym-s2-euclidean": (1, "90d29d657fb2cbf836f5b9b4470807f94d575a08c05e231f4740cd1188f47574"),
    "sym-s2-minkowski": (1, "68ae1f0f9a7873977634a78f843d749a92c42310dc014993bdd18d1c68ba6015"),
    "sym-s2-random": (1, "8733cf2405a374cb9e55e2849543f72221117191a7391ab9d5225773e7e39bd3"),
    "sym-s3-euclidean": (1, "4cbc5b1fe269b6b5df979239565acae72c0db130a92b18c3000de22ef865ae71"),
    "sym-s3-minkowski": (1, "5cc1727677c19a25fdd52fab89fa8207f9c2c3f333fadc777ab3db71c1af898f"),
    "sym-s3-random": (1, "1603ff882064c085704633fa1d982db23216468f446eda80382c493814363110"),
    "ym-s2-euclidean": (1, "fc6bfcf0ecd762178d9992b3a02db798c5e2b4b0ef6376c152895c874a928517"),
    "ym-s2-minkowski": (1, "8b5999e922333cb0f2c4d26bcc0853d5fdd476b63710d4c83bb467f3a649cae0"),
    "ym-s2-random": (1, "283e336b5148a5d84b32b42a0dd84ffd305de809a5493fb867fb3e1d99e411b6"),
    "ym-s3-euclidean": (1, "aadad6be4c225eec6f9d4ad905644c1c18bbc298d222727045941fc5a4764cab"),
    "ym-s3-minkowski": (1, "1214b3669bc5d520286ae24faaa268f7785d5bd1d7856e61fad47122995a11cf"),
    "ym-s3-random": (1, "7a8f855d87bee7501604dbe21d32cf2848af680923268755bd41b846ce3e06ab"),
}


def pinned_presentation(name):
    if name == "so3":
        return build_antisymmetrizer_relations(3, 2)
    if name == "custom-cubic":
        return custom_cubic()
    family, s, metric = name.split("-")
    builder = build_ym if family == "ym" else build_sym
    s = int(s[1:])
    return builder(s, pinned_metrics(s)[metric])


def core_digest(a):
    # the vectors, then the dense right and then left side matrices of each,
    # read back from the integer entries: right[k][lam] is the coefficient
    # of r_k (x) e_lam, left[k][lam] that of e_lam (x) r_k
    core = a.overlap
    h = hashlib.sha256()
    for x in core.vectors:
        h.update(repr(sorted((w, format_rational(c)) for w, c in x.terms.items())).encode())
    rights, lefts = [], []
    for den, entries in core.entries:
        right, left = ([[Q(0)] * a.dim_v for _ in a.relation_basis] for _ in range(2))
        for k, side, letter, c in entries:
            if side == "right":
                right[k][letter] = Q(c, den)
            else:
                left[k][letter] = Q(-c, den)
        rights.append(right)
        lefts.append(left)
    for m in rights + lefts:
        h.update(repr([[format_rational(c) for c in row] for row in m]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CORE_PINS))
def test_core_matches_pinned_digest(name):
    a = pinned_presentation(name)
    assert (len(a.overlap.vectors), core_digest(a)) == CORE_PINS[name]


def _perturbed(c, rng, block):
    n = c.dim
    j3 = [[list(r) for r in m] for m in c.j3]
    j2 = [list(r) for r in c.j2]
    j1 = list(c.j1)
    if block == "top":
        j3[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] += random_rational(rng, 9)
    elif block == "j2":
        j2[rng.randrange(n)][rng.randrange(n)] += random_rational(rng, 9)
    else:
        j1[rng.randrange(n)] += random_rational(rng, 9)
    return Current(freeze(j3), freeze(j2), tuple(j1))


def verdict_cases():
    # 54 seeded (presentation, current) pairs: YM with each side condition
    # met or broken, YM and SYM with a perturbed top or j2 block, at s=2,3
    # over three metrics
    for s in (2, 3):
        for name, metric in pinned_metrics(s).items():
            rng = random.Random(f"{s}-{name}")
            ym, sym = build_ym(s, metric), build_sym(s, metric)
            cases = [
                (ym, current_from_parameters(sample_current_parameters(rng, metric, violate=v), metric))
                for v in (None, "s3", "s2", "s1")
            ]
            base = cases[0][1]
            cases += [(ym, _perturbed(base, rng, "top")), (ym, _perturbed(base, rng, "j2"))]
            b, omega2 = sample_super_parameters(rng, s + 1)
            sc = super_current_from_parameters(b, omega2, metric)
            cases += [(sym, sc), (sym, _perturbed(sc, rng, "top")), (sym, _perturbed(sc, rng, "j2"))]
            yield from cases


def test_verdicts_match_pinned_hash():
    h = hashlib.sha256()
    tally: dict = {}
    for a, current in verdict_cases():
        v = pbw.pbw_verdict(current_to_deformation(current, a))
        witness = None if v.witness is None else sorted((w, format_rational(c)) for w, c in v.witness.terms.items())
        h.update(repr((v.j1_holds, v.j2_holds, v.j3_holds, witness, v.overall)).encode())
        key = (v.j1_holds, v.overall)
        tally[key] = tally.get(key, 0) + 1
    assert tally == {(False, False): 9, (True, False): 28, (True, True): 17}
    assert h.hexdigest() == "547f91dfb927d95b030578ea0217aa06a3f73ad3b5977b48eda8ba2887b3fdfd"


def xyx():
    # R = span{xyx} on 2 letters: R (x) V and V (x) R meet only in 0
    return AlgebraPresentation(2, 3, (TensorElement.from_terms(2, {(0, 1, 0): 1}),))


def pinned_subspaces(a, n_max=5):
    r = a.relation_space
    yield r
    yield tensors.side_tensor(r, a.dim_v, "right", degree=a.degree)
    yield tensors.side_tensor(r, a.dim_v, "left", degree=a.degree)
    yield overlap_space(a)
    for n in range(n_max + 1):
        yield algebra.ideal_component(a, n)


# (dims, sha256 of the dense basis rows) of R, R (x) V, V (x) R, W and
# I_0, ..., I_5, recorded while Subspace still stored a dense basis
SUBSPACE_PINS = {
    "custom-cubic": ((5, 10, 10, 5, 0, 0, 0, 5, 15, 32), "4c19d8d60c5a5106b1e5d73bd381c4a39183393b01a020def82d94b7cdd0c5e1"),
    "so3": ((3, 9, 9, 1, 0, 0, 3, 17, 66, 222), "686168531a94ec9da80517cb19b29fbcadd8d0e9c5d61207eba636b5eac2a955"),
    "sym-s2": ((3, 9, 9, 1, 0, 0, 0, 3, 17, 75), "740481bd759973b0edce5ce17a3e681dbff6e1e9a2e4455aa9d88ba041c03180"),
    "sym-s3": ((4, 16, 16, 1, 0, 0, 0, 4, 31, 184), "4226ecd2a873f3e07a5dd73bc97a94cd64f964cdcd1c3b9cebf4fa79408a4f53"),
    "xyx": ((1, 2, 2, 0, 0, 0, 0, 1, 4, 11), "56a7216da25c7f9ed060a4a3b588cca0507295f7a2334851933de00e3d203fa1"),
    "ym-s2": ((3, 9, 9, 1, 0, 0, 0, 3, 17, 75), "24c816ebfbebe1208991c6a22a35c5d14beca77f49ff0e7101466bed8c56f3ba"),
    "ym-s3": ((4, 16, 16, 1, 0, 0, 0, 4, 31, 184), "31b413da1cb81d567c4e56d6814a8ba28a52b4aea81b0cbadcf7d25eedae3575"),
}


@pytest.mark.parametrize("name", sorted(SUBSPACE_PINS))
def test_subspaces_match_pinned_digest(name):
    a = {**PRESENTATIONS, "xyx": xyx}[name]()
    dims = []
    h = hashlib.sha256()
    for space in pinned_subspaces(a):
        dims.append(space.dim)
        h.update(repr([[format_rational(c) for c in row] for row in space.basis]).encode())
    assert (tuple(dims), h.hexdigest()) == SUBSPACE_PINS[name]


@pytest.mark.parametrize("name", sorted(SUBSPACE_PINS))
def test_equal_spans_are_equal_values(name):
    # a subspace is its span: other spanning sets, and the intersection
    # taken the other way round, give an equal value with an equal hash
    a = {**PRESENTATIONS, "xyx": xyx}[name]()
    rng = random.Random(name)
    for space in pinned_subspaces(a, n_max=4):
        rows = [list(row) for row in space.basis]
        factors = [random_rational(rng, 9) or 1 for _ in rows]
        scaled = [[f * x for x in row] for f, row in zip(factors, rows[::-1])]
        sums = [[x + y for x, y in zip(p, q)] for p, q in zip(rows, rows[1:])]
        again = Subspace.from_spanning(sums + scaled, space.ambient_dim)
        assert again == space and hash(again) == hash(space)
    right = tensors.side_tensor(a.relation_space, a.dim_v, "right", degree=a.degree)
    left = tensors.side_tensor(a.relation_space, a.dim_v, "left", degree=a.degree)
    w = left.intersect(right)
    assert w == overlap_space(a) and hash(w) == hash(overlap_space(a))


def entries_digest(a):
    # the raw integer entries of the core: each vector's den, then its
    # entries in order, each (k, side, letter, int) written as
    # (k, prefix, suffix, int): (k, (), (letter,), int) on the right,
    # (k, (letter,), (), int) on the left
    words = [
        (den, [(k, (), (lam,), c) if side == "right" else (k, (lam,), (), c) for k, side, lam, c in entries])
        for den, entries in a.overlap.entries
    ]
    return hashlib.sha256(repr(words).encode()).hexdigest()


def stage1_digest(a):
    rows = classify.solve_stage1(a).parameters.rows
    flat = [(p, sorted((k, format_rational(c)) for k, c in row.items())) for p, row in rows]
    return hashlib.sha256(repr(flat).encode()).hexdigest()


# (sha256 of the raw entries, sha256 of the stage-1 rows) of the
# CORE_PINS presentations, which include the six of PRESENTATIONS,
# recorded while side_decompose built its own relation frame on every
# call and stage 1 reduced its brackets against a second RREF of R
ENTRIES_PINS = {
    "custom-cubic": (
        "db4a09717529ff49dc59f5de909b42326b2bb015e7701158b5e8325d6a776cd3",
        "3df9e10705706cbe5ca17753416a179f6fbf2dddc57f67811233a60270cd0ca3",
    ),
    "so3": (
        "024e45abfec7292a8c1016c87860785213f948a11a3b2b3cfb9877b9f6ffc783",
        "c94a35ede8972978b0b027cbd74f54548fca0252c578447bfc5910a37ec2f3e9",
    ),
    "sym-s2-euclidean": (
        "29852d8c1238c71a2fae371935d1a3019293755adccc8dc1880602c89dfec43a",
        "577afe60e8ecae41b715d51738ea1d11a25b8d2972951f2accb788af46a788ec",
    ),
    "sym-s2-minkowski": (
        "eccdc482758c5bb4611cd2aa93a6cfff5f8de74edd0ef13b07b940708954fb4d",
        "ac09d52eeb889b1556425904afd1686eb452c476ec63209b346a08f04a92ec76",
    ),
    "sym-s2-random": (
        "92aab86a3758032ac4adeb85d343eb75a2c7adbb302eaed5a55d357865d74642",
        "07c8ec90ec3b867102b797e6721289527933d22bef4432d4a3882a69ceacdb03",
    ),
    "sym-s3-euclidean": (
        "2f7a56ccf44590df66ea54d019201345cd3767a183d352f675f61bd562d1cb08",
        "939f123c84b3e6ac68a89375fc334a6d3cd46294b1fa3f6513ae12728c915e2e",
    ),
    "sym-s3-minkowski": (
        "fbd2df7688393c73c36c760fafc54085c3cdf9f7a0c3399a757f86f329731178",
        "c2f840537a109fe8a1b3e3fe762c39e376c0111a01f9ad0db781af355015d5ab",
    ),
    "sym-s3-random": (
        "ada89ce08949e225324d17108070856ba78a31053c47519d17412ab41a028161",
        "b52d2036e75e6145da2025596898892544604b627010dccd184afdc800095086",
    ),
    "ym-s2-euclidean": (
        "7501bbdec9df4927b201e8e142c52c0126fff00f54d02bb804fbf328e2b9aaab",
        "c2dda1a4b14a21dbe2132b8b61a2f41ea772e9b686d6cf7df65c36c4a4c97948",
    ),
    "ym-s2-minkowski": (
        "42e9f0db3e918319789eb34d598e84bfd8136dbca3d95f5d6d1e6b7ed4137283",
        "6e090c4bfa62452d5c578621a1cdd8286921cb96eec2322d00026dec1e03bbe6",
    ),
    "ym-s2-random": (
        "c34e109ec45585777bb7653f62b680341e1ae344ad960066a2ae2555efa895e6",
        "5d2bbf7713ff4c34d9e5f6481be6b71aef549bdca159d762611337ce255d0844",
    ),
    "ym-s3-euclidean": (
        "260351bb35506d17c4ace8d77020a8fbe4b007df1a3d6d39f0b2e1334eb480ab",
        "3ced9053c5514dd1f052fabf037e63d5e69dcce6b17874927a241943d9a2e611",
    ),
    "ym-s3-minkowski": (
        "b14d7b108fba9b8fa7c0a48c9740c4364c9c08f8041e4b24e3b0bf5195373d25",
        "2a0ed4ebb078d5f6aa3b2ad8385eadedd82aa2e2cadfcaee36dc191845d4e391",
    ),
    "ym-s3-random": (
        "d01c47ff7f08af7383eef04ae67c3da95075bb3cf02e936d95ae8f13396f023d",
        "736b79f0a350aaacf7ef59a717fe9422f7dbcf57350c6807ae630ecd9f24f5c5",
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRIES_PINS))
def test_entries_and_stage1_match_pinned_digest(name):
    a = pinned_presentation(name)
    assert (entries_digest(a), stage1_digest(a)) == ENTRIES_PINS[name]
