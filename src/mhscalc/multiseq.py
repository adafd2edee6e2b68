"""Finite-difference and inversion calculus on tables of multi-sequences N^r -> Q.

A `MultiSequenceTable` holds exact values over one box prod [0, N_i), as
int numerators over one positive int denominator.  It is the one input
type of the calculus and the shape every identity sweep compares point by
point.

Operators follow the classical calculus:

    (delta_i a)(n) = a(n) - a(n + e_i)
    (delta^k a)(n) = sum_{i <= k} (-1)^{|i|} C(k_1, i_1) ... C(k_r, i_r) a(n + i)
    (nabla a)(n)   = (delta^n a)(0)

nabla is the multi-dimensional binomial transform and an involution.  Both
box operators are one pass of subtractions only, one axis at a time, that
computes each row of the forward-difference triangle for a whole block of
the table at once: `iterated_delta` keeps the first rows (delta^k a(n)
for every pair (n, k) the table determines), and `binomial_transform` is
its n = 0 slice.  The pass is linear, so it runs on the numerators and
the result keeps the input's denominator; `guards.difference_subtractions`
counts its work exactly.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .kernel import common_denominator


class MultiSequenceTable:
    """Dense window of a multi-sequence over the box prod [0, N_i).

    The value at offset i is numerators[i] / denominator, with offsets
    row-major in lexicographic index order, which is also the iteration
    order.  The denominator is positive but not necessarily in lowest
    terms: `values` and `__getitem__` build a Fraction per value read,
    `pairs` gives int pairs, and `==` cross-multiplies.  The constructor
    takes rationals and stores them over the lcm of their denominators.
    """

    __slots__ = ("shape", "numerators", "denominator")

    def __init__(self, shape: Sequence[int], values: Sequence):
        shape = tuple(shape)
        if any(extent < 1 for extent in shape):
            raise ValueError(f"extents must be >= 1, got {shape}")
        if len(values) != math.prod(shape):
            raise ValueError(
                f"expected {math.prod(shape)} values for shape {shape}, got {len(values)}"
            )
        denominator, numerators = common_denominator(map(Fraction, values))
        self.shape = shape
        self.numerators = tuple(numerators)
        self.denominator = denominator

    @classmethod
    def _trusted(
        cls, shape: tuple[int, ...], numerators: tuple[int, ...], denominator: int
    ) -> "MultiSequenceTable":
        """Wrap int numerators over denominator > 0, one per cell of shape, unchecked."""
        table = object.__new__(cls)
        table.shape = shape
        table.numerators = numerators
        table.denominator = denominator
        return table

    @property
    def arity(self) -> int:
        return len(self.shape)

    @property
    def values(self) -> tuple[Fraction, ...]:
        """Every value as a Fraction, in row-major order."""
        denominator = self.denominator
        return tuple(Fraction(n, denominator) for n in self.numerators)

    def pairs(self) -> list[tuple[int, int]]:
        """Every value as its int pair (numerator, denominator), in row-major order."""
        denominator = self.denominator
        return [(n, denominator) for n in self.numerators]

    def numerator(self, index: Sequence[int]) -> int:
        """The numerator at `index`, over `denominator`."""
        index = tuple(index)
        if len(index) != self.arity:
            raise ValueError(
                f"index {index} has arity {len(index)}, table has arity {self.arity}"
            )
        offset = 0
        for extent, i in zip(self.shape, index):
            if not 0 <= i < extent:
                raise IndexError(f"index {index} outside box of shape {self.shape}")
            offset = offset * extent + i
        return self.numerators[offset]

    def __getitem__(self, index: Sequence[int]) -> Fraction:
        return Fraction(self.numerator(index), self.denominator)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSequenceTable):
            return NotImplemented
        mine, theirs = other.denominator, self.denominator
        return self.shape == other.shape and all(
            a * mine == b * theirs for a, b in zip(self.numerators, other.numerators)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"MultiSequenceTable({self.shape!r}, {self.values!r})"


def _difference_passes(
    values: Sequence[int], shape: tuple[int, ...], orders: tuple[int, ...]
) -> list[int]:
    """One forward-difference pass per axis, a block at a time, with subtractions only.

    Axis i of extent L_i becomes N_i = L_i - K_i + 1 entries at its
    position and K_i = orders[i] entries after the last axis, so the
    result lies over (N_1, ..., N_r, K_1, ..., K_r).  A block is the
    entries that share the earlier axes' positions: row k + 1 of its
    triangle is row k minus row k shifted by one step of the axis, one
    `map` over the whole block, and the first N_i steps of rows 0..K_i-1
    go out strided by K_i; no row past K_i - 1 is computed.
    `guards.difference_subtractions` counts the subtractions.
    """
    outer = 1
    for extent, count in zip(shape, orders):
        width = extent - count + 1
        stride = len(values) // (outer * extent)
        size, span = extent * stride, width * stride * count
        out = [None] * (outer * span)
        for block in range(outer):
            row = values[block * size:(block + 1) * size]
            for k in range(count):
                if k:
                    row = list(map(operator.sub, row, row[stride:]))
                # row k holds (delta^k a)(n) at n * stride + inner
                out[block * span + k:(block + 1) * span:count] = row[:width * stride]
        values, outer = out, outer * width
    return values


def binomial_transform(table: MultiSequenceTable) -> MultiSequenceTable:
    """nabla over the whole box of `table`: the n = 0 slice of `iterated_delta`.

    (nabla a)(k) = (delta^k a)(0) reads a on the box below k, so the
    transform of a window is exact on that window.  The pass runs with
    orders equal to the shape L, so every N_i is 1.  Work is about
    |box| * sum(L_i) / 2 subtractions, against |box| * prod(L_i + 1) / 2^r
    weighted terms for nabla point by point.
    """
    numerators = _difference_passes(table.numerators, table.shape, table.shape)
    return MultiSequenceTable._trusted(table.shape, tuple(numerators), table.denominator)


def iterated_delta(table: MultiSequenceTable, orders: Sequence[int]) -> MultiSequenceTable:
    """(delta^k a)(n) for every k below `orders` that the table determines.

    (delta^k a)(n) reads a on the box from n to n + k, so a table over
    prod [0, L_i) with K_i = orders[i] gives it for k_i < K_i and
    n_i < N_i = L_i - K_i + 1.  The result is one table of arity 2r over
    (N_1, ..., N_r, K_1, ..., K_r), indexed by n + k.
    """
    orders = tuple(orders)
    r = table.arity
    if len(orders) != r:
        raise ValueError(f"orders {orders} have arity {len(orders)}, table has arity {r}")
    if any(not 1 <= k <= extent for k, extent in zip(orders, table.shape)):
        raise ValueError(f"orders {orders} must lie in 1..extent of shape {table.shape}")
    nbox = tuple(extent - k + 1 for extent, k in zip(table.shape, orders))
    numerators = _difference_passes(table.numerators, table.shape, orders)
    return MultiSequenceTable._trusted(nbox + orders, tuple(numerators), table.denominator)
