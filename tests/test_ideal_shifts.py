"""The level-by-level ideal builder against the all-products reference
loops, on deformed relations and on R alone (graded dimensions and ideal
components), and the per-presentation cache of the span of R."""

import hashlib
import random
from collections.abc import Mapping
from functools import cache

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

import pbwforge.algebra
import pbwforge.pbw
from pbwforge.algebra import (
    AlgebraPresentation,
    LeftShift,
    build_antisymmetrizer_relations,
    graded_dim,
    graded_dims,
    ideal_component,
)
from pbwforge.linalg import SparseEchelon
from pbwforge.pbw import IdealSpan, ResourceGuardError, brute_force_oracle
from pbwforge.rationals import Q
from pbwforge.sampling import random_metric, sample_current_parameters, sample_super_parameters
from pbwforge.super_ym import build_sym, super_current_from_parameters, super_current_to_deformation
from pbwforge.tensors import TensorElement
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


def deformed(make):
    """The deformed relations and generator count of a deformation."""

    def relations():
        d = make()
        return d.deformed_relations(), d.algebra.dim_v

    return relations


def relations_over(dim_v, *terms):
    """Relations given as {word: coefficient} dicts over ``dim_v`` letters."""
    return lambda: (tuple(TensorElement.from_terms(dim_v, t) for t in terms), dim_v)


X, Y, Z = 0, 1, 2

SPAN_CASES = {
    **{
        f"ym-{kind}-{category}": (deformed(lambda kind=kind, category=category: ym_deformation(kind, category)), 6)
        for kind in METRICS
        for category in ("ok", "s3", "s2", "s1")
    },
    **{
        f"sym-{category}": (deformed(lambda category=category: sym_deformation(category)), 6)
        for category in ("ok", "j2", "j1")
    },
    "so3": (deformed(so3_deformation), 7),
    "so3-broken": (deformed(lambda: so3_deformation(broken=True)), 7),
    "custom-quadratic": (deformed(lambda: _custom_quadratic_deformation(11)), 5),
    # the dense quadratic at the cutoff where most of its p b rows are dependent
    "custom-quadratic-6": (deformed(lambda: _custom_quadratic_deformation(11)), 6),
    # relations of degrees 3 and 2: the leading word y y is shorter than x y x + 2 y
    "mixed-degree": (
        relations_over(2, {(X, Y, X): 1, (Y,): 2}, {(Y, Y): Q(1, 3), (X,): 1, (): 5}),
        6,
    ),
    # x y leads two relations, so J_0 has a pivot that leads neither
    "shared-leading-word": (
        relations_over(
            3,
            {(X, Y): 1, (Y, X): -1, (Z,): -1},
            {(X, Y): 2, (Y, Z): Q(1, 2), (X,): -2, (): Q(1, 3)},
            {(X, Z): 1, (Z, Y): -1, (Y,): 1},
        ),
        6,
    ),
}


@cache
def span_reference(case):
    """The all-products loop's (dims, rank) for a span case, once per run."""
    make, cutoff = SPAN_CASES[case]
    relations, dim_v = make()
    return reference.ideal_span_dims(relations, dim_v, cutoff)


@pytest.mark.parametrize("case", sorted(SPAN_CASES))
def test_ideal_span_matches_all_products_loop(case):
    make, cutoff = SPAN_CASES[case]
    relations, dim_v = make()
    span = IdealSpan(reference.keyed_rows(relations), dim_v, cutoff)
    dims, rank = span_reference(case)
    assert [span.intersection_dim(n) for n in range(cutoff + 1)] == dims
    assert span.echelon.rank == rank


def test_carried_rows_are_stored_or_inserted(monkeypatch):
    # a row of J_(t-1) that is not a left shift is stored at level t as it
    # stands (the same dict) when no shift has its pivot, and inserted
    # otherwise; both happen over the span cases, and every case where a
    # carried row met a shift's pivot matches the all-products loop
    levels = []  # the echelon rows of J_(t-1) handed to left_shifts, per level
    inserted = []
    original_shifts = pbwforge.algebra.left_shifts
    original_insert = SparseEchelon.insert

    def left_shifts(rows, place):
        levels.append(rows)
        return original_shifts(rows, place)

    def insert(self, vec):
        inserted.append(vec)
        return original_insert(self, vec)

    monkeypatch.setattr(pbwforge.algebra, "left_shifts", left_shifts)
    monkeypatch.setattr(SparseEchelon, "insert", insert)
    stored, collided = {}, {}
    for case in sorted(SPAN_CASES):
        make, cutoff = SPAN_CASES[case]
        relations, dim_v = make()
        levels.clear()
        inserted.clear()
        span = IdealSpan(reference.keyed_rows(relations), dim_v, cutoff)
        spans = levels[1:] + [span.echelon.rows]  # J_0, J_1, ..., J_last
        ids = [{id(row) for row in rows.values()} for rows in spans]
        stored[case] = sum(id(row) in below for below, rows in zip(ids, spans[1:]) for row in rows.values())
        collided[case] = sum(any(id(vec) in level for level in ids) for vec in inserted)
        if collided[case]:
            dims, rank = span_reference(case)
            assert [span.intersection_dim(n) for n in range(cutoff + 1)] == dims
            assert span.echelon.rank == rank
    assert sum(stored.values()) > 0 and sum(collided.values()) > 0
    # the pinned report's current and the SYM j1 perturbation meet shifts' pivots
    assert collided["ym-random-s3"] == 3 and collided["sym-j1"] == 2


def check_views(rows, rank, shift_key):
    """Every row is a mapping of ints, one per pivot, and every view at
    pivot p reads as x row, with x the first letter of p's word and each
    key k of row placed at shift_key(p, k); returns the number of views."""
    assert len(rows) == rank
    views = 0
    for p, row in rows.items():
        assert isinstance(row, Mapping) and all(type(c) is int for c in row.values())
        if isinstance(row, LeftShift):
            views += 1
            eager = {shift_key(p, k): c for k, c in row.row.items()}
            assert row == eager and dict(row.items()) == eager
            assert list(row) == list(eager) and list(row.values()) == list(eager.values())
            assert min(row) == p
    return views


@pytest.mark.parametrize("case", ["ym-euclidean-s3", "sym-j1", "mixed-degree", "so3"])
def test_left_shifts_are_views_of_the_eager_shifts(case):
    make, cutoff = SPAN_CASES[case]
    relations, dim_v = make()
    span = IdealSpan(reference.keyed_rows(relations), dim_v, cutoff)
    start = span.start

    def degree(k):
        return next(d for d in range(cutoff + 1) if start[d] <= k)

    def shift_key(p, k):
        x = (p - start[degree(p)]) // dim_v ** (degree(p) - 1)
        return start[degree(k) + 1] + x * dim_v ** degree(k) + k - start[degree(k)]

    assert check_views(span.echelon.rows, span.echelon.rank, shift_key) > 0


@st.composite
def small_presentations(draw):
    """(dim_v, degree, homogeneous tops, relations): 2-3 letters, tops of
    degree 2-3 over a small pool of words (so leading words repeat), each
    relation its top plus an optional tail of lower degree with a constant
    term, and sometimes one more relation of lower degree."""
    dim_v = draw(st.integers(2, 3))
    degree = draw(st.integers(2, 3))
    coeff = st.builds(Q, st.integers(-3, 3).filter(bool), st.integers(1, 3))

    def words_of(lengths):
        return st.lists(st.integers(0, dim_v - 1), min_size=lengths[0], max_size=lengths[1]).map(tuple)

    pool = draw(st.lists(words_of((degree, degree)), min_size=2, max_size=3, unique=True))
    tops, relations = [], []
    for _ in range(draw(st.integers(1, 3))):
        top = draw(st.dictionaries(st.sampled_from(pool), coeff, min_size=1, max_size=len(pool)))
        tail = draw(st.dictionaries(words_of((0, degree - 1)), coeff, max_size=2))
        tops.append(TensorElement.from_terms(dim_v, top))
        relations.append(TensorElement.from_terms(dim_v, {**tail, **top}))
    if draw(st.booleans()):
        low = draw(st.dictionaries(words_of((0, degree - 1)), coeff, min_size=1, max_size=3))
        relations.append(TensorElement.from_terms(dim_v, low))
    return dim_v, degree, tops, relations


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_presentations())
def test_ideal_builders_match_all_products_loops(presentation):
    dim_v, degree, tops, relations = presentation
    cutoff = degree + (2 if dim_v == 3 else 3)
    span = IdealSpan(reference.keyed_rows(relations), dim_v, cutoff)
    dims, rank = reference.ideal_span_dims(relations, dim_v, cutoff)
    assert [span.intersection_dim(n) for n in range(cutoff + 1)] == dims
    assert span.echelon.rank == rank
    try:
        a = AlgebraPresentation(dim_v, degree, tuple(tops))
    except ValueError:  # the drawn tops are linearly dependent
        return
    assert [graded_dim(a, n) for n in range(cutoff + 1)] == reference.graded_dims(a, cutoff)


def test_zero_relation_contributes_nothing():
    relations, dim_v = SPAN_CASES["shared-leading-word"][0]()
    plain = IdealSpan(reference.keyed_rows(relations), dim_v, 5)
    for extra in ([TensorElement.zero(dim_v)] + list(relations), list(relations) + [TensorElement.zero(dim_v)]):
        span = IdealSpan(reference.keyed_rows(extra), dim_v, 5)
        assert span.echelon.rows == plain.echelon.rows


@pytest.mark.parametrize(
    "key", [(2, 999), (2, -1), (-1, 0), (2.0, 1), (2, True), (2,), "ab"], ids=repr
)
def test_ideal_span_rejects_a_key_that_names_no_word(key):
    # at cutoff 4 over 2 letters a key is (m, i) with ints 0 <= m <= 4 and
    # 0 <= i < 2^m; any other key is a ValueError, not an IndexError, a
    # TypeError or a span of the wrong rank
    with pytest.raises(ValueError, match="key"):
        IdealSpan([{key: 1}], 2, 4)
    with pytest.raises(ValueError, match="key"):
        IdealSpan([{(2, 0): 1}, {(3, 1): 2, key: 1}], 2, 4)


def test_ideal_span_accepts_every_word_key_up_to_the_cutoff():
    keys = [(m, i) for m in range(5) for i in range(2**m)]
    assert IdealSpan([{k: 1} for k in keys], 2, 4).intersection_dim(4) == len(keys)
    with pytest.raises(ValueError, match="cutoff below the relation degree"):
        IdealSpan([{(5, 0): 1}], 2, 4)


def spy_inserts(monkeypatch):
    """Count ``SparseEchelon.insert`` calls and the dependent ones."""
    counts = {"inserts": 0, "dependent": 0}
    original_insert = SparseEchelon.insert

    def insert(self, vec):
        grew = original_insert(self, vec)
        counts["inserts"] += 1
        counts["dependent"] += not grew
        return grew

    monkeypatch.setattr(SparseEchelon, "insert", insert)
    return counts


# (case, cutoff, most inserts, most dependent inserts, the reference loop's rank)
INSERT_PINS = [
    ("ym-euclidean-ok", 6, 111, 13, 383),
    ("custom-quadratic-6", 6, 154, 69, 1077),
]


@pytest.mark.parametrize("case, cutoff, inserts, dependent, rank", INSERT_PINS)
def test_ideal_span_skips_rows_reduced_to_zero(monkeypatch, case, cutoff, inserts, dependent, rank):
    relations, dim_v = SPAN_CASES[case][0]()
    counts = spy_inserts(monkeypatch)
    span = IdealSpan(reference.keyed_rows(relations), dim_v, cutoff)
    assert span.echelon.rank == rank
    assert counts["inserts"] <= inserts
    assert counts["dependent"] <= dependent


def test_graded_builder_skips_rows_with_a_leading_word(monkeypatch):
    a = build_ym(2, Metric.euclidean(3))
    counts = spy_inserts(monkeypatch)
    dims = graded_dims(a, 6)
    # all 3 (1 + 3 + 9 + 27) = 120 rows r b, 22 of them dependent, without the skip
    assert counts == {"inserts": 111, "dependent": 13}
    assert dims == reference.graded_dims(a, 6)


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
    original_graded_dims = pbwforge.pbw.graded_dims

    def insert(self, vec):
        inserts["graded" if inside else "filtered"] += 1
        return original_insert(self, vec)

    def spy_graded_dims(a, n):
        inside.append(n)
        try:
            return original_graded_dims(a, n)
        finally:
            inside.pop()

    monkeypatch.setattr(SparseEchelon, "insert", insert)
    monkeypatch.setattr(pbwforge.pbw, "graded_dims", spy_graded_dims)
    first = ym_deformation("minkowski", "ok", seed=1)
    assert brute_force_oracle(first, 4, 5).verdict == "CONSISTENT"
    assert inserts["graded"] > 0 and inserts["filtered"] > 0
    inserts.update(graded=0, filtered=0)
    metric = Metric.minkowski(3)
    params = sample_current_parameters(random.Random(2), metric, violate="s2")
    second = current_to_deformation(current_from_parameters(params, metric), first.algebra)
    brute_force_oracle(second, 4, 5)
    assert inserts["graded"] == 0 and inserts["filtered"] > 0


def row_digest(rows):
    """sha256 over the (pivot, sorted (key, int) pairs) of every row of a
    pivot -> row mapping, in increasing pivot order."""
    h = hashlib.sha256()
    for p in sorted(rows):
        items = sorted(rows[p].items())
        assert all(type(c) is int for _, c in items)
        h.update(repr((p, items)).encode())
    return h.hexdigest()


# sha256 of the echelon rows of each span case's IdealSpan, recorded
# before left shifts became views
SPAN_ROW_PINS = {
    "custom-quadratic": "0edd74de2129b507f4fa4ba6763a8a258ae11c28e6f84c2a6dc590d459989d08",
    "custom-quadratic-6": "ba778e62e34f6d7d55f46d9cf42717f5b3030e206c0c71f5a043b495c6901561",
    "mixed-degree": "ac8b0a327fe9f6c9fdd20761c8ab8ad7617df97e2a00e9318ec2bb001b4efb86",
    "shared-leading-word": "178154eed9bcfcbbb127f373beb5f9e6dd9085d7fb08c76f0c9b7b8fe8cebed6",
    "so3": "b759dad096d13bce8301e7dd46deb15eb454b06fda7f53eed09125737e1a914b",
    "so3-broken": "bf740228da09f09af8186943676cd6c6d90f8aee32eebc12e6fbf2496fcef274",
    "sym-j1": "9d1dc1f8dfdfd407eb64ce3eb17d92262d39b9fe216a6e806bea540840c2fd1b",
    "sym-j2": "bbd8e1102e4f19e36be6e3b3ffa08405d9669197a42718d5850fb8c0b8b61de1",
    "sym-ok": "4cedafb4af509d64bd0afa9a6c9d37295d8f73d2d16a772d0e3d44ecd35118a3",
    "ym-euclidean-ok": "56ac0724461da4a700b32a23055f8a1dbfb732fc139035fa9d8bdb574f62351b",
    "ym-euclidean-s1": "4179c78d7607188fee6dee5c2a099b170824d53cca1f09fa14be9a9528a007f2",
    "ym-euclidean-s2": "1a42ab6109a75a0da1c2e3aa92a665564571b7149beebd3e36439d091117011f",
    "ym-euclidean-s3": "fdec8ab047caf86db7dfe9e1d835784b383bc54daa7aa6513f495e27bfedb629",
    "ym-minkowski-ok": "a58c9ae3d7c0737b352da47f7cabacf7354736dde73d7680f3ee3f01968357ef",
    "ym-minkowski-s1": "30c712b48fb954c67c5a116873ff878a6c8e794d5433650567aedeaefb3dd20a",
    "ym-minkowski-s2": "5625ebb7cbd0cef3ee4a45c1f52d5a24aeea3ee78136f33de716f011d84db5e8",
    "ym-minkowski-s3": "2e9b44374c3e93ffd3ee0f89867927fd419e6e1d5c4eee36b17b88249d327590",
    "ym-random-ok": "e057f225b0cc5a30a3a9b48b36b7b8fa2c9a5ceac49375ceef1fa4cf6540fa0d",
    "ym-random-s1": "510a5baa83df27029900e05b8e880f0834d8879a9b29820b78b9cc12987af023",
    "ym-random-s2": "e5f363bb1f6477796613799d65ef07a479c16e6b5efccb9afa42fd75b8c3b0d4",
    "ym-random-s3": "e91d2a6150cf8dabbe64d7d23589bc805170ed9aebd89738c515910a69dda6e7",
}


@pytest.mark.parametrize("case", sorted(SPAN_CASES))
def test_ideal_span_rows_match_pinned_hash(case):
    make, cutoff = SPAN_CASES[case]
    relations, dim_v = make()
    assert row_digest(IdealSpan(reference.keyed_rows(relations), dim_v, cutoff).echelon.rows) == SPAN_ROW_PINS[case]


def canonical_digest(a, n):
    """sha256 over the canonical rows of I_0, ..., I_n (``ideal_component``),
    each (degree, pivot, sorted (key, numerator, denominator) triples), in
    increasing degree and pivot order."""
    h = hashlib.sha256()
    for m in range(n + 1):
        for p, row in ideal_component(a, m).rows:
            h.update(repr((m, p, sorted((k, c.numerator, c.denominator) for k, c in row.items()))).encode())
    return h.hexdigest()


# sha256 of the canonical rows of I_0, ..., I_n, recorded with the graded
# builder of AlgebraPresentation.ideal_rows; the stored head-reduced rows
# depend on the builder, the canonical rows do not
IDEAL_ROW_PINS = {
    "ym-s2": (lambda: build_ym(2, Metric.euclidean(3)), 7, "5479b6fd1dcbd7379ea6b8493428a395ff4b3688ee908e28619f8cf5a8b96843"),
    "sym-s2": (lambda: build_sym(2, Metric.minkowski(3)), 7, "3b153f1254f559501f6764508cc2223b67f288b922fc6569b97f630864ef0af7"),
    "so3": (lambda: so3_deformation().algebra, 7, "6e1a10b2f996a0af099b3897ae51ec9690e69134742088367e57aadb18e33375"),
}


@pytest.mark.parametrize("case", sorted(IDEAL_ROW_PINS))
def test_graded_ideal_rows_match_pinned_hash(case):
    make, n, digest = IDEAL_ROW_PINS[case]
    assert canonical_digest(make(), n) == digest
