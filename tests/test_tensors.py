import random

import pytest
import reference

from pbwforge.linalg import BasisCoordinates, Subspace
from pbwforge.rationals import ONE, rational
from pbwforge.tensors import (
    GradedMap,
    ResourceGuardError,
    TensorElement,
    add_images,
    anticommutator,
    commutator,
    filtered_terms,
    guard_tensor_dim,
    side_decompose,
    side_tensor,
    tensor_dim_limit,
    word_index,
    word_table,
    words,
)


def test_word_enumeration_lex():
    assert list(words(2, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert word_index((0, 1), 2) == 1
    assert word_index((1, 0), 2) == 2
    assert word_index((1, 1), 2) == 3


def test_word_index_s2_last():
    assert word_index((2, 2, 2), 3) == 26


def test_word_index_round_trip():
    # the lexicographic enumeration and the index are inverse
    assert [word_index(w, 3) for w in words(3, 3)] == list(range(27))
    assert [word_index(w, 3) for w in word_table(3, 3)] == list(range(27))
    assert word_table(2, 0) == ((),)


def test_tensor_product_words():
    e0 = TensorElement.generator(2, 0)
    e1 = TensorElement.generator(2, 1)
    assert (e0.tensor(e1)).terms == {(0, 1): ONE}


def test_tensor_product_bilinear():
    e0 = TensorElement.generator(2, 0)
    e1 = TensorElement.generator(2, 1)
    prod = (e0 + e1).tensor(e0)
    assert prod == TensorElement.from_terms(2, {(0, 0): 1, (1, 0): 1})


def test_unit_is_identity():
    a = TensorElement.from_terms(2, {(0, 1): 2, (): 3})
    assert TensorElement.unit(2).tensor(a) == a
    assert a.tensor(TensorElement.unit(2)) == a


def test_zero_coefficients_dropped():
    a = TensorElement.from_terms(2, {(0,): 0, (1,): 1})
    assert (0,) not in a.terms


def test_mixed_degree_round_trip():
    a = TensorElement.from_terms(2, {(): "1/2", (0,): 1, (1, 0): "-2/3"})
    vec = reference.to_filtered_vector(a, 3)
    assert reference.from_filtered_vector(2, 3, vec) == a


def test_filtered_keys_sort_as_filtered_coordinates():
    # the (degree, word) keys order F^3 over three letters exactly as the
    # dense filtered layout does, so a canonical RREF is the same under both
    every = TensorElement.from_terms(3, {w: 1 for d in range(4) for w in words(3, d)})
    keys = sorted(filtered_terms(every))
    assert [reference.filtered_index(w, 3) for _, w in keys] == list(range(len(keys)))


def test_degree_vector_requires_homogeneous():
    a = TensorElement.from_terms(2, {(0,): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        reference.to_degree_vector(a, 2)


def test_commutators():
    e0 = TensorElement.generator(2, 0)
    e1 = TensorElement.generator(2, 1)
    assert commutator(e0, e1) == TensorElement.from_terms(2, {(0, 1): 1, (1, 0): -1})
    assert anticommutator(e0, e1) == TensorElement.from_terms(2, {(0, 1): 1, (1, 0): 1})
    assert commutator(e0, e0).is_zero()


def test_side_tensor_zero_and_full():
    assert side_tensor(Subspace.zero(4), 2, "right", degree=2).dim == 0
    full = side_tensor(Subspace.full(4), 2, "right", degree=2)
    assert full.dim == 8


def test_side_tensor_dim_multiplies():
    r = TensorElement.from_terms(2, {(0, 1): 1, (1, 0): -1})
    sub = Subspace.from_spanning([reference.to_degree_vector(r, 2)], 4)
    right = side_tensor(sub, 2, "right", degree=2)
    assert right.dim == 2
    again = side_tensor(right, 2, "right", degree=3)
    assert again.dim == 4
    # right extension contains r (x) e_0
    e0 = TensorElement.generator(2, 0)
    assert right.contains(reference.to_degree_vector(r.tensor(e0), 3))


def _extensions(sub, dim_v, side):
    """Spanning set of sub (x) V or V (x) sub, one letter at a time."""
    size = sub.ambient_dim
    out = []
    for row in sub.basis:
        for lam in range(dim_v):
            vec = [rational(0)] * (size * dim_v)
            for idx, c in enumerate(row):
                vec[idx * dim_v + lam if side == "right" else lam * size + idx] = c
            out.append(vec)
    return out


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("side", ["right", "left"])
def test_side_tensor_is_canonical_span_of_extensions(seed, side):
    rng = random.Random(500 + seed)
    dim_v, degree = rng.randint(2, 3), 2
    size = dim_v**degree
    rows = [
        [rational(rng.choice([0, 0, rng.randint(-7, 7)])) / rational(rng.randint(1, 6)) for _ in range(size)]
        for _ in range(rng.randint(0, size))
    ]
    sub = Subspace.from_spanning(rows, size)
    ext = side_tensor(sub, dim_v, side, degree=degree)
    assert ext == Subspace.from_spanning(_extensions(sub, dim_v, side), size * dim_v)
    assert ext.dim == sub.dim * dim_v
    # nested: extend again, on either side
    for outer in ("right", "left"):
        again = side_tensor(ext, dim_v, outer, degree=degree + 1)
        assert again == Subspace.from_spanning(_extensions(ext, dim_v, outer), size * dim_v**2)


def test_graded_map_zero():
    phi = GradedMap(2, 2, (TensorElement.zero(2),))
    assert all(image.is_zero() for image in phi.images)
    assert TensorElement.from_integers(2, {(0, 1): 0}, 7).is_zero()


def test_graded_map_from_images():
    # the images as ints over one denominator, back by one division each
    img = TensorElement.from_terms(2, {(0,): 2})
    other = TensorElement.from_terms(2, {(1,): "1/3", (0,): "-1/2"})
    phi = GradedMap(2, 1, (img, other))
    images = ([((0,), 12)], [((1,), 2), ((0,), -3)])
    assert [TensorElement.from_integers(2, dict(image), 6) for image in images] == list(phi.images)
    assert TensorElement.from_integers(2, {(0,): 6, (1,): 0}, 4) == img.scale("3/4")


def test_add_images_puts_the_letter_by_index_arithmetic():
    # on the right a word w of index i becomes w + (letter,), on the left
    # (letter,) + w, read back through the word table of one degree more
    rng = random.Random(3)
    dim_v, degree = 3, 2
    table, longer = word_table(dim_v, degree), word_table(dim_v, degree + 1)
    images = [[(i, rng.randint(-5, 5)) for i in rng.sample(range(dim_v**degree), 4)] for _ in range(2)]
    entries = [(0, "right", 2, 3), (1, "left", 1, -2), (0, "left", 0, 1), (1, "right", 0, 4)]
    want: dict = {}
    for k, side, letter, c in entries:
        for i, x in images[k]:
            w = table[i] + (letter,) if side == "right" else (letter,) + table[i]
            want[w] = want.get(w, 0) + 7 * c * x
    got = add_images({}, images, entries, dim_v, degree, 7)
    assert {longer[i]: x for i, x in got.items()} == want


def frame(*relations):
    return BasisCoordinates([r.indexed() for r in relations])


def test_side_decompose_round_trip():
    r = TensorElement.from_terms(2, {(0, 1): 1, (1, 0): -1})
    e0 = TensorElement.generator(2, 0)
    e1 = TensorElement.generator(2, 1)
    x = r.tensor(e0) + r.tensor(e1).scale(rational(-2))
    coords = side_decompose(x, frame(r), "right", 2)
    assert coords.data == ((ONE, rational(-2)),)
    # reassemble
    rebuilt = TensorElement.zero(2)
    for lam, gen in enumerate((e0, e1)):
        rebuilt = rebuilt + r.tensor(gen).scale(coords.data[0][lam])
    assert rebuilt == x


def test_side_decompose_rejects_outsiders():
    r = TensorElement.from_terms(2, {(0, 1): 1, (1, 0): -1})
    bad = TensorElement.from_terms(2, {(0, 0, 0): 1})
    with pytest.raises(ValueError):
        side_decompose(bad, frame(r), "right", 2)
    with pytest.raises(ValueError):
        side_decompose(TensorElement.unit(2), frame(r), "right", 2)
    # a frame is keyed by word index: a word of another degree is rejected,
    # not read as the degree-2 word of the same index ((1,) and (0, 1) are both 1)
    monomial = TensorElement.from_terms(2, {(0, 1): 1})
    assert side_decompose(monomial.tensor(TensorElement.generator(2, 0)), frame(monomial), "right", 2).data == (
        (ONE, rational(0)),
    )
    with pytest.raises(ValueError):
        side_decompose(TensorElement.from_terms(2, {(1, 0): 1}), frame(monomial), "right", 2)


def test_side_decompose_left_round_trip():
    r1 = TensorElement.from_terms(2, {(0, 1): 1, (1, 0): -1})
    r2 = TensorElement.from_terms(2, {(0, 0): "1/2", (1, 1): 3})
    e0 = TensorElement.generator(2, 0)
    e1 = TensorElement.generator(2, 1)
    want = ((rational(3), rational("-1/4")), (rational(0), rational(2)))
    x = TensorElement.zero(2)
    for k, r in enumerate((r1, r2)):
        for lam, gen in enumerate((e0, e1)):
            x = x + gen.tensor(r).scale(want[k][lam])
    coords = side_decompose(x, frame(r1, r2), "left", 2)
    assert coords.data == want
    # the same element is not in R (x) V
    with pytest.raises(ValueError):
        side_decompose(x, frame(r1, r2), "right", 2)


def test_side_decompose_left_rejects_outsiders():
    r = TensorElement.from_terms(2, {(0, 1): 1, (1, 0): -1})
    e0 = TensorElement.generator(2, 0)
    inside_right = r.tensor(e0)  # (01 - 10) 0, not of the form e (x) r
    with pytest.raises(ValueError):
        side_decompose(inside_right, frame(r), "left", 2)
    with pytest.raises(ValueError):
        side_decompose(TensorElement.from_terms(2, {(0, 0, 0): 1}), frame(r), "left", 2)


def test_side_decompose_against_an_empty_basis():
    # the free algebra: only zero lies in R (x) V = 0
    assert side_decompose(TensorElement.zero(2), frame(), "right", 2).data == ()
    with pytest.raises(ValueError):
        side_decompose(TensorElement.generator(2, 0).tensor(TensorElement.generator(2, 1)), frame(), "left", 2)


def test_apply_graded_side_rank_one():
    from pbwforge.tensors import apply_graded_side

    r = TensorElement.from_terms(2, {(0, 1): 1, (1, 0): -1})
    e0 = TensorElement.generator(2, 0)
    x = r.tensor(e0)
    assert apply_graded_side((e0,), (r,), x, "right") == e0.tensor(e0)


def test_apply_graded_side_matches_kronecker():
    # (phi (x) I) on r (x) v agrees with the direct coefficient computation
    from pbwforge.tensors import apply_graded_side

    r1 = TensorElement.from_terms(2, {(0, 1): 1, (1, 0): -1})
    r2 = TensorElement.from_terms(2, {(0, 0): 1, (1, 1): 2})
    img1 = TensorElement.from_terms(2, {(0,): 1, (1,): -3})
    img2 = TensorElement.from_terms(2, {(1,): "1/2"})
    e1 = TensorElement.generator(2, 1)
    x = r1.tensor(e1) + r2.tensor(e1).scale(rational(4))
    expected = img1.tensor(e1) + img2.tensor(e1).scale(rational(4))
    assert apply_graded_side((img1, img2), (r1, r2), x, "right") == expected


@pytest.mark.parametrize("limit", ["abc", "-5", "0", "1e4"])
def test_a_limit_that_is_no_positive_integer_is_rejected(monkeypatch, limit):
    monkeypatch.setenv("PBWFORGE_MAX_TENSOR_DIM", limit)
    with pytest.raises(ValueError, match="PBWFORGE_MAX_TENSOR_DIM must be an integer >= 1"):
        tensor_dim_limit()
    with pytest.raises(ValueError):
        guard_tensor_dim(3, 2)


def test_the_limit_is_read_from_the_environment(monkeypatch):
    monkeypatch.setenv("PBWFORGE_MAX_TENSOR_DIM", "1")
    assert tensor_dim_limit() == 1
    monkeypatch.setenv("PBWFORGE_MAX_TENSOR_DIM", "")
    assert tensor_dim_limit() == 10_000
    monkeypatch.delenv("PBWFORGE_MAX_TENSOR_DIM")
    assert tensor_dim_limit() == 10_000


def test_guard_decides_and_reports_without_large_numbers(monkeypatch):
    # the default limit is 10,000: 3^8 = 6,561 passes and 3^9 does not; past
    # the limit's bit length (14) no power is built, and a dim_v too long to
    # print is named by its bit length
    monkeypatch.delenv("PBWFORGE_MAX_TENSOR_DIM", raising=False)
    guard_tensor_dim(3, 8)
    guard_tensor_dim(1, 10**8)
    with pytest.raises(ResourceGuardError, match=r"dimension 3\^9 exceeds the limit 10000$"):
        guard_tensor_dim(3, 9)
    with pytest.raises(ResourceGuardError, match=r"dimension 2\^\(333-bit integer\) exceeds"):
        guard_tensor_dim(2, 10**100)
    with pytest.raises(ResourceGuardError, match=r"dimension \(16610-bit integer\)\^2 exceeds"):
        guard_tensor_dim(10**5000 + 1, 2)
