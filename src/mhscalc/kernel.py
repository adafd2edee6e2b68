"""Exact rational kernel: combinatorial coefficients and rational (de)serialization.

A rational is exact in one of two forms: a `fractions.Fraction` (a single
value, as `mhs_value` and `c_direct` return it), or an int numerator over a
positive int denominator, not necessarily reduced (tables, series,
`direct_window` results, report rows).  This module provides the two
coefficient families the nested-sum machinery needs, computed on integers
with no state between calls (the generalized binomial also as an int pair);
the int form of rationals over one common denominator; the canonical text of
either form, at any size; and the readers of rational literals and of
comma-separated integer lists.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[Fraction, int]


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


def gen_binomial_pair(a: int, b: int, k: int) -> tuple[int, int]:
    """C(a/b, k) for b > 0 as the int pair (prod_{i<k}(a - i b), b^k k!).

    The one definition of the generalized binomial C(top, k) =
    prod_{i<k}(top - i) / k! at rational top = a/b: an integer falling
    product over an integer, so it is exact for every rational top (no
    Gamma functions), runs no gcd and keeps no state between calls.  The
    pair is not in lowest terms; its denominator is positive.  k = 0 gives
    (1, 1) (empty product).
    """
    if k < 0:
        raise ValueError(f"gen_binomial requires natural k, got {k}")
    return math.prod(range(a, a - k * b, -b)), b**k * math.factorial(k)


def gen_binomial(top: RationalLike, k: int) -> Fraction:
    """Generalized binomial C(top, k) for rational top: the Fraction of `gen_binomial_pair`."""
    top = Fraction(top)
    return Fraction(*gen_binomial_pair(top.numerator, top.denominator, k))


def common_denominator(values: Iterable[RationalLike]) -> tuple[int, list[int]]:
    """(q, numerators): q the lcm of the denominators, value i = numerators[i] / q.

    An int counts as denominator 1, and no input gives (1, []).
    """
    values = list(values)
    q = math.lcm(*(value.denominator for value in values))
    return q, [value.numerator * (q // value.denominator) for value in values]


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$", re.ASCII)
_INTEGER_RE = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def _format_reduced(numerator: int, denominator: int) -> str:
    """Canonical text of a pair in lowest terms with denominator > 0.

    The sign goes on the numerator and "/q" is omitted when q = 1.  Exact at
    any size: `str` of an int refuses more digits than
    `sys.get_int_max_str_digits()`, and `Decimal` converts such an int exactly.
    """
    try:
        return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
    except ValueError:
        text = str(Decimal(numerator))
        return text if denominator == 1 else f"{text}/{Decimal(denominator)}"


def format_ratio(numerator: int, denominator: int) -> str:
    """Canonical text of numerator / denominator for denominator > 0, reduced first."""
    if not numerator:
        return "0"
    divisor = math.gcd(numerator, denominator)
    return _format_reduced(numerator // divisor, denominator // divisor)


def format_rational(value: RationalLike) -> str:
    """Canonical text form of a rational, as `format_ratio` prints its pair.

    A Fraction is already reduced; other values convert first.
    """
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return _format_reduced(value.numerator, value.denominator)


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


def parse_integers(text: str) -> tuple[int, ...]:
    """Comma-separated ASCII integers [+-]?[0-9]+, e.g. "2, -1,0"; spaces may surround each."""
    items = text.split(",")
    if not all(map(_INTEGER_RE.fullmatch, items)):
        raise ValueError(f"not a list of integers: {text!r}")
    return tuple(map(int, items))
