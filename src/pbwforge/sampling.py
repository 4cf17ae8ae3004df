"""Seeded exact samplers for metrics and current parameters.

Everything is driven by ``random.Random`` with an explicit seed, so any
sample is reproducible from (seed, shape) alone.  Constrained parameter
blocks are drawn from the exact kernel of the constraint map, read as
integer rows (``linalg.kernel_rows``), never by projection, so side
conditions hold identically rather than approximately.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import lcm
from typing import Optional

from .linalg import kernel_rows
from .rationals import ZERO, Q, cleared, ratio
from .yang_mills import CurrentParameters, Metric, freeze, nested_zeros, reshape


def random_rational(rng: random.Random, bound: int = 20) -> Q:
    """A rational p/q with |p| <= bound and 1 <= q <= bound (p drawn first)."""
    return Q(rng.randint(-bound, bound), rng.randint(1, bound))


def random_vector(rng: random.Random, n: int, bound: int = 20) -> tuple:
    return tuple(random_rational(rng, bound) for _ in range(n))


def random_nonzero_vector(rng: random.Random, n: int, bound: int = 20) -> tuple:
    while True:
        v = random_vector(rng, n, bound)
        if any(x != 0 for x in v):
            return v


def random_metric(rng: random.Random, n: int, bound: int = 5) -> Metric:
    """A random symmetric nondegenerate rational matrix."""
    while True:
        entries = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = random_rational(rng, bound)
        try:
            return Metric.from_rows(entries)
        except ValueError:
            continue


def random_antisymmetric2(rng: random.Random, n: int, bound: int = 20) -> tuple:
    t = nested_zeros(n, 2)
    for a in range(n):
        for b in range(a + 1, n):
            x = random_rational(rng, bound)
            t[a][b] = x
            t[b][a] = -x
    return freeze(t)


def random_antisymmetric3(rng: random.Random, n: int, bound: int = 20) -> tuple:
    t = nested_zeros(n, 3)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                x = random_rational(rng, bound)
                t[a][b][c] = t[b][c][a] = t[c][a][b] = x
                t[b][a][c] = t[a][c][b] = t[c][b][a] = -x
    return freeze(t)


@lru_cache(maxsize=None)
def _sym_multisets(n: int, rank: int) -> tuple:
    return tuple(combinations_with_replacement(range(n), rank))


@lru_cache(maxsize=None)
def _multiset_columns(n: int, rank: int) -> dict:
    """The coordinate of each sorted multiset (read only: the dict is shared)."""
    return {m: i for i, m in enumerate(_sym_multisets(n, rank))}


@lru_cache(maxsize=None)
def _symmetric_slots(n: int, rank: int) -> tuple:
    """The multiset coordinate of each entry of a symmetric tensor, entries
    in index order."""
    col = _multiset_columns(n, rank)
    return tuple(col[tuple(sorted(idx))] for idx in product(range(n), repeat=rank))


def _unflatten_symmetric(coords, n: int, rank: int):
    """Full symmetric tensor from one coordinate per sorted multiset."""
    return reshape([coords[k] for k in _symmetric_slots(n, rank)], n, rank)


def _contraction_rows(n: int, rank: int, b: tuple) -> list:
    """The contraction s^{a...r} b_r over the last slot of a symmetric
    tensor s, as sparse rows on its multiset coordinates: one row per
    sorted multiset of the free slots."""
    col = _multiset_columns(n, rank)
    return [
        {col[tuple(sorted(free + (r,)))]: b[r] for r in range(n) if b[r] != 0} for free in _sym_multisets(n, rank - 1)
    ]


def _orthogonal_symmetric_sample(
    rng: random.Random, n: int, rank: int, b: tuple, bound: int = 20
):
    """Random symmetric tensor s of the given rank with s(..., b) = 0
    (at rank 1, a vector orthogonal to b).

    The contraction is a linear condition on the multiset coordinates; we
    sample from its exact kernel, read as the integer rows y_i over d_i of
    :func:`pbwforge.linalg.kernel_rows`: one draw p_i / q_i per row, in row
    order (the two ``randint`` calls of :func:`random_rational`), and the
    sum of (p_i / q_i) (y_i / d_i) in ints over the lcm of the q_i d_i.
    """
    size = len(_sym_multisets(n, rank))
    kernel = kernel_rows(_contraction_rows(n, rank, b), size)
    draws = [(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in kernel]
    den = lcm(*(q * d for (_, q), (_, _, d) in zip(draws, kernel)))
    coords = [0] * size
    for (p, q), (_, row, d) in zip(draws, kernel):
        c = p * (den // (q * d))
        for k, y in row.items():
            coords[k] += c * y
    return _unflatten_symmetric([ratio(x, den) for x in coords], n, rank)


# the rank of each symmetric block of the current parameters, in draw order
_BLOCK_RANKS = {"s3": 3, "s2": 2, "s1": 1}


def sample_current_parameters(
    rng: random.Random, metric: Metric, violate: Optional[str] = None
) -> CurrentParameters:
    """A seeded parameter pack with all orthogonality side conditions met.

    With ``violate`` set to "s3", "s2" or "s1", the corresponding block is
    re-drawn unconstrained until its side condition actually fails; the
    other two conditions still hold.
    """
    if violate not in (None, *_BLOCK_RANKS):
        raise ValueError(f"unknown violation target {violate!r}")
    n = metric.dim
    b = random_nonzero_vector(rng, n)
    omega3 = random_antisymmetric3(rng, n)
    # b's numerators over one denominator: the same contraction kernel as b
    b_nums = cleared(b)[0]
    blocks = {name: _orthogonal_symmetric_sample(rng, n, rank, b_nums) for name, rank in _BLOCK_RANKS.items()}
    if violate is not None:
        rank = _BLOCK_RANKS[violate]
        rows = _contraction_rows(n, rank, b_nums)
        while True:
            coords = [random_rational(rng) for _ in _sym_multisets(n, rank)]
            nums = cleared(coords)[0]
            if any(sum(c * nums[k] for k, c in row.items()) for row in rows):
                blocks[violate] = _unflatten_symmetric(coords, n, rank)
                break
    return CurrentParameters(b, omega3, blocks["s3"], blocks["s2"], blocks["s1"])


def sample_super_parameters(rng: random.Random, n: int) -> tuple:
    """A seeded (b, omega2) pair for the super current family."""
    return random_nonzero_vector(rng, n), random_antisymmetric2(rng, n)
