"""Exact rational scalars.

gmpy2.mpq when available, fractions.Fraction otherwise. No speed-up of
gmpy2 over Fraction has been measured for this package; the tensor
kernels and linsolve's elimination loop on Python ints with either
backend. Both parse "p/q" strings and print the same canonical form
(reduced, denominator positive, "p" when integral).
"""
from __future__ import annotations

import re

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ

ZERO = QQ(0)
ONE = QQ(1)

_RAT_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


def rat(value) -> "QQ":
    """Coerce an int, rational, or canonical ASCII "p/q" string to a scalar."""
    if isinstance(value, str):
        if not _RAT_RE.fullmatch(value):
            raise ValueError(f"malformed rational literal: {value!r}")
        return QQ(value)
    if isinstance(value, (bool, float)):
        raise TypeError(f"{type(value).__name__} values are not allowed; use 'p/q' strings")
    return QQ(value)


def rat_str(value) -> str:
    """Canonical string form: "p/q" with q > 1, else "p"."""
    return str(QQ(value))
