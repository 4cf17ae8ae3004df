"""The integer family constructors against their term-by-term references.

Each constructor in ``yang_mills``, ``super_ym`` and ``sampling`` sums
ints over one denominator and builds one rational per entry; the
references in ``reference.py`` make one rational operation per term.
Seeded Hypothesis draws compare the two on value and type (every entry a
``Q``) over random non-diagonal rational metrics, covectors b with zero
entries and b = 0, sign +1 and -1 and s = 1..4.
"""

import random

import reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_family_pins import encode

from pbwforge import sampling
from pbwforge.rationals import Q, rational
from pbwforge.super_ym import super_current_from_parameters, sym_coefficients
from pbwforge.yang_mills import (
    CurrentParameters,
    Metric,
    b_family_block,
    current_from_parameters,
    flatten,
    reshape,
    swap_sign_holds,
    ym_coefficients,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9).map(rational)
# about one entry in three is zero
entries = st.one_of(st.just(rational(0)), fractions, fractions)


def same(got, want):
    """Equal entry for entry, and every entry of ``got`` a ``Q``."""
    assert encode(got) == encode(want)
    assert all(kind == "Q" for _, kind in _leaves(encode(got)))


def _leaves(x):
    if isinstance(x, tuple):
        yield x
    else:
        for v in x:
            yield from _leaves(v)


@st.composite
def metrics(draw):
    """A nondegenerate symmetric rational metric on 2..5 generators with a
    nonzero entry off the diagonal."""
    n = draw(st.integers(2, 5))
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    assume(any(upper[i, j] for i, j in upper if i != j))
    try:
        return Metric.from_rows([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
    except ValueError:
        assume(False)


@st.composite
def covectors(draw, n):
    """b with zero entries, and b = 0 about one time in five."""
    if draw(st.integers(0, 4)) == 0:
        return (rational(0),) * n
    return tuple(draw(st.lists(entries, min_size=n, max_size=n)))


def _symmetric(rng, n, rank):
    coords = [reference.random_rational(rng, 9) if rng.random() < 0.7 else rational(0) for _ in sampling._sym_multisets(n, rank)]
    return sampling._unflatten_symmetric(coords, n, rank)


@SETTINGS
@given(metrics())
def test_coefficient_arrays_and_integer_inverse_match_the_references(metric):
    same(ym_coefficients(metric), reference.ym_coefficients(metric))
    same(sym_coefficients(metric), reference.sym_coefficients(metric))
    rows, den = metric.integer_inverse
    assert type(den) is int and all(type(x) is int for row in rows for x in row)
    assert [[Q(x, den) for x in row] for row in rows] == [list(row) for row in metric.g_inv.data]


@SETTINGS
@given(st.data())
def test_b_family_block_matches_the_reference(data):
    metric = data.draw(metrics())
    b = data.draw(covectors(metric.dim))
    sign = data.draw(st.sampled_from([1, -1]))
    same(b_family_block(b, metric, sign), reference.b_family_block(b, metric, sign))


@SETTINGS
@given(st.data(), st.integers(0, 2**32))
def test_current_from_parameters_matches_the_reference(data, seed):
    metric = data.draw(metrics())
    n = metric.dim
    rng = random.Random(seed)
    b = data.draw(covectors(n))
    omega3 = sampling.random_antisymmetric3(rng, n, 9)
    p = CurrentParameters(b, omega3, _symmetric(rng, n, 3), _symmetric(rng, n, 2), _symmetric(rng, n, 1))
    same(tuple(current_from_parameters(p, metric)), reference.current_from_parameters(p, metric))


@SETTINGS
@given(st.data(), st.integers(0, 2**32))
def test_super_current_matches_the_reference(data, seed):
    metric = data.draw(metrics())
    b = data.draw(covectors(metric.dim))
    omega2 = sampling.random_antisymmetric2(random.Random(seed), metric.dim, 9)
    same(tuple(super_current_from_parameters(b, omega2, metric)), reference.super_current_from_parameters(b, omega2, metric))


@SETTINGS
@given(st.data(), st.integers(0, 2**32), st.integers(1, 4))
def test_seeded_sampler_matches_the_reference(data, seed, s):
    # the same draws in the same order: equal outputs and equal generator states
    n = s + 1
    b = data.draw(covectors(n))
    ours, theirs = random.Random(seed), random.Random(seed)
    same(sampling.random_rational(ours), reference.random_rational(theirs))
    for rank in (3, 2, 1):
        same(sampling._orthogonal_symmetric_sample(ours, n, rank, b), reference.orthogonal_symmetric_sample(theirs, n, rank, b))
    assert ours.getstate() == theirs.getstate()


@SETTINGS
@given(st.integers(0, 2**32), st.integers(1, 4), st.sampled_from([1, -1]), st.booleans())
def test_swap_sign_holds_matches_the_reference(seed, s, sign, perturb):
    n = s + 1
    rng = random.Random(seed)
    for rank in (2, 3):
        if sign == 1:
            t = _symmetric(rng, n, rank)
        else:
            t = (sampling.random_antisymmetric2 if rank == 2 else sampling.random_antisymmetric3)(rng, n, 9)
        if perturb:
            # one entry changed, keeping or flipping its sign
            flat = flatten(t, rank)
            k = rng.randrange(len(flat))
            flat[k] = rng.choice([-flat[k], flat[k] + 1])
            t = reshape(flat, n, rank)
        assert swap_sign_holds(t, n, rank, sign) == reference.swap_sign_holds(t, n, rank, sign)
