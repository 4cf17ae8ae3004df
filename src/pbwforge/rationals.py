"""Exact rational scalars.

Every number in the engine is an arbitrary-precision rational; nothing is
ever rounded.  ``gmpy2.mpq`` is used when it is installed (a drop-in,
faster implementation of the same arithmetic), with
``fractions.Fraction`` as the pure-Python fallback.  ``gmpy2`` is a
declared dependency, but every result is the same without it.  The
elimination loop in ``linalg`` works on Python ints, so it is
integer-only on either backend.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Union

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    Q = Fraction

RationalLike = Union[int, str, Fraction, "Q"]

ZERO = Q(0)
ONE = Q(1)
HALF = Q(1, 2)


def rational(value: RationalLike) -> Q:
    """Coerce ``value`` to an exact rational.

    Accepts ints, rationals, and strings of the form ``"p"`` or ``"p/q"``.
    Parsing is exact; anything else (floats in particular) is rejected.
    """
    if isinstance(value, (int, Fraction)) or type(value) is type(ZERO):
        return Q(value)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            d = int(den)
            if d == 0:
                raise ValueError(f"zero denominator in rational literal {value!r}")
            return Q(int(num), d)
        return Q(int(text))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def times(c, den: int) -> int:
    """c * den as a Python int, for a rational c whose denominator divides den."""
    return int(c.numerator) * (den // int(c.denominator))


def cleared(values: Iterable) -> tuple:
    """(numerators, den) of the rationals ``values`` over the lcm ``den``
    of their denominators, all Python ints: values[i] = numerators[i] / den."""
    values = list(values)
    den = lcm(*(int(c.denominator) for c in values))
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
