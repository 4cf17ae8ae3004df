"""Exact rational scalars.

Every number in the engine is an arbitrary-precision rational; nothing is
ever rounded.  The one rational type is ``fractions.Fraction`` (``Q``),
so the package needs only the standard library.  The elimination loop
in ``linalg`` and every decision path work on Python ints; a rational is
built only for an output or a family entry.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

Q = Fraction

RationalLike = Union[int, str, Fraction]

ZERO = Q(0)
ONE = Q(1)
HALF = Q(1, 2)

# the strings ``rational`` reads, the problem schema's rational pattern
RATIONAL_PATTERN = "^-?[0-9]+(/[1-9][0-9]*)?$"


def rational(value: RationalLike) -> Q:
    """Coerce ``value`` to an exact rational.

    Accepts ints, rationals, and strings that match ``RATIONAL_PATTERN``
    whole: ``"p"`` or ``"p/q"`` in ASCII digits, q > 0, with at most a
    leading minus.  Parsing is exact; anything else (floats, spaces, plus
    signs, underscores) is rejected.
    """
    if isinstance(value, (int, Fraction)):
        return Q(value)
    if isinstance(value, str):
        if re.fullmatch(RATIONAL_PATTERN, value) is None:
            raise ValueError(f"not a rational literal 'p' or 'p/q': {value[:40]!r}")
        num, _, den = value.partition("/")
        return Q(int(num), int(den or 1))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def times(c, den: int) -> int:
    """c * den as a Python int, for a rational c whose denominator divides den."""
    return c.numerator * (den // c.denominator)


def cleared(values: Iterable) -> tuple:
    """(numerators, den) of the rationals ``values`` over the lcm ``den``
    of their denominators, all Python ints: values[i] = numerators[i] / den."""
    values = list(values)
    den = lcm(*(c.denominator for c in values))
    return [times(c, den) for c in values], den


def ratio(num: int, den: int) -> Q:
    """num / den as a rational, for ints num and den > 0 (``ZERO`` when num is 0)."""
    return Q(num, den) if num else ZERO


def format_rational(value) -> str:
    """Render a rational as ``"p"`` or ``"p/q"`` (lowest terms, q > 0)."""
    q = Q(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
