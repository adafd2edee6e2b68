"""Exact rational kernel: combinatorial coefficients and rational (de)serialization.

All scalar arithmetic in this package runs on `fractions.Fraction`, which
already provides canonical reduced form (positive denominator, gcd one) and
structural equality.  This module adds the three coefficient families the
nested-sum machinery needs and the canonical text form used in reports.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[Fraction, int]

__all__ = [
    "binomial",
    "multinomial",
    "gen_binomial",
    "format_rational",
    "parse_rational",
]


def binomial(n: int, k: int) -> int:
    """C(n, k) for naturals, with C(n, k) = 0 when k > n.

    The k > n convention matches the alternating-sum formulas where upper
    limits may exceed the top argument.
    """
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires naturals, got ({n}, {k})")
    return math.comb(n, k) if k <= n else 0


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

    Evaluated as the falling-factorial product, so it is exact for every
    rational top (no Gamma functions).  k = 0 gives 1 (empty product).
    """
    if k < 0:
        raise ValueError(f"gen_binomial requires natural k, got {k}")
    top = Fraction(top)
    # Tops repeat heavily inside nested-sum denominators, so every prefix
    # C(top, 0..k) is kept, keyed by the canonical Fraction so int and
    # Fraction callers share entries.  The row grows in a loop, so a cold
    # call costs no recursion depth.
    row = _GEN_BINOMIAL_ROWS.get(top)
    if row is not None and k < len(row):
        return row[k]
    global _gen_binomial_cached
    if row is None:
        row = [Fraction(1)]
    else:
        del _GEN_BINOMIAL_ROWS[top]  # kept again below at its new length
        _gen_binomial_cached -= len(row)
    while len(row) <= k:
        j = len(row)
        row.append(row[-1] * (top - (j - 1)) / j)
    # Past the cap every row is dropped; a row longer than the cap is not kept.
    if _gen_binomial_cached + len(row) > GEN_BINOMIAL_CACHE_MAX:
        _GEN_BINOMIAL_ROWS.clear()
        _gen_binomial_cached = 0
    if len(row) <= GEN_BINOMIAL_CACHE_MAX:
        _GEN_BINOMIAL_ROWS[top] = row
        _gen_binomial_cached += len(row)
    return row[k]


# Cap on the coefficients cached over all rows of `gen_binomial`.
GEN_BINOMIAL_CACHE_MAX = 1 << 16
_GEN_BINOMIAL_ROWS: dict[Fraction, list[Fraction]] = {}
_gen_binomial_cached = 0  # sum of the cached rows' lengths


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def format_rational(value: RationalLike) -> str:
    """Canonical text form: sign on the numerator, "/q" omitted when q = 1."""
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse the canonical form, e.g. "-3/7", "5", "0".

    Rejects anything outside the integer-over-positive-integer grammar
    (decimals, whitespace inside the token, signed denominators).
    """
    token = text.strip()
    if not _RATIONAL_RE.match(token):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(token)
