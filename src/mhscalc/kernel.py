"""Exact rational kernel: combinatorial coefficients and rational (de)serialization.

Every value this package returns is a `fractions.Fraction`, which already
provides canonical reduced form (positive denominator, gcd one) and
structural equality.  This module adds the two coefficient families the
nested-sum machinery needs, each computed on integers and keeping no state
between calls, and the canonical text form used in reports, which prints
values of any size.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[Fraction, int]

__all__ = [
    "multinomial",
    "gen_binomial",
    "format_rational",
    "parse_rational",
]


def multinomial(n: int, parts: Iterable[int]) -> int:
    """n! / prod(parts_j!) where parts must sum to n.

    A mismatched sum signals a malformed chain decomposition upstream, so it
    is rejected rather than silently reinterpreted.
    """
    parts = list(parts)
    if n < 0 or any(part < 0 for part in parts):
        raise ValueError(f"multinomial requires naturals, got ({n}, {parts})")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts {parts} do not sum to {n}")
    out = 1
    remaining = n
    for part in parts:
        out *= math.comb(remaining, part)
        remaining -= part
    return out


def gen_binomial(top: RationalLike, k: int) -> Fraction:
    """Generalized binomial C(top, k) = prod_{i<k}(top - i) / k! for rational top.

    With top = a/b this is prod_{i<k}(a - i b) / (b^k k!): an integer
    falling factorial over an integer, so it is exact for every rational top
    (no Gamma functions), runs no gcd until the one Fraction it returns, and
    keeps no state between calls.  k = 0 gives 1 (empty product).
    """
    if k < 0:
        raise ValueError(f"gen_binomial requires natural k, got {k}")
    top = Fraction(top)
    a, b = top.numerator, top.denominator
    return Fraction(math.prod(range(a, a - k * b, -b)), b**k * math.factorial(k))


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def format_rational(value: RationalLike) -> str:
    """Canonical text form: sign on the numerator, "/q" omitted when q = 1.

    Exact at any size: `str` of an int refuses more digits than
    `sys.get_int_max_str_digits()`, and `Decimal` converts such an int
    exactly.  A Fraction prints as it is; other values convert first.
    """
    if not isinstance(value, Fraction):
        value = Fraction(value)
    try:
        return str(value)
    except ValueError:
        text = str(Decimal(value.numerator))
        return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


def parse_rational(text: str) -> Fraction:
    """Parse the canonical form, e.g. "-3/7", "5", "0".

    Rejects anything outside the integer-over-positive-integer grammar
    (decimals, whitespace inside the token, signed denominators).  Reads
    literals of any size: the digits convert through `Decimal`, which has
    no limit like `int(str)`'s `sys.get_int_max_str_digits()`.
    """
    token = text.strip()
    if not _RATIONAL_RE.match(token):
        raise ValueError(f"not a rational literal: {text!r}")
    numerator, _, denominator = token.partition("/")
    return Fraction(int(Decimal(numerator)), int(Decimal(denominator or "1")))
