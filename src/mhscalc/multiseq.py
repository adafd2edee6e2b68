"""Finite-difference and inversion calculus on tables of multi-sequences N^r -> Q.

A `MultiSequenceTable` holds exact values over one box prod [0, N_i).  It
is the one input type of the calculus and the shape every identity sweep
compares point by point.

Operators follow the classical calculus:

    (delta_i a)(n) = a(n) - a(n + e_i)
    (delta^k a)(n) = sum_{i <= k} (-1)^{|i|} C(k_1, i_1) ... C(k_r, i_r) a(n + i)
    (nabla a)(n)   = (delta^n a)(0)

nabla is the multi-dimensional binomial transform and an involution.  Both
box operators are one pass that runs the forward-difference triangle of
every line, one axis at a time, with subtractions only: `iterated_delta`
keeps the first rows (delta^k a(n) for every pair (n, k) the table
determines), and `binomial_transform` is its n = 0 slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class MultiSequenceTable:
    """Dense window of a multi-sequence over the box prod [0, N_i).

    Values are stored row-major in lexicographic index order, which is also
    the iteration order.
    """

    shape: tuple[int, ...]
    values: tuple[Fraction, ...]

    @property
    def arity(self) -> int:
        return len(self.shape)

    def __post_init__(self):
        if any(extent < 1 for extent in self.shape):
            raise ValueError(f"extents must be >= 1, got {self.shape}")
        if len(self.values) != math.prod(self.shape):
            raise ValueError(
                f"expected {math.prod(self.shape)} values for shape {self.shape}, "
                f"got {len(self.values)}"
            )

    def __getitem__(self, index: Sequence[int]) -> Fraction:
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
        return self.values[offset]


def _difference_rows(line: Sequence[Fraction], width: int) -> list[list[Fraction]]:
    """The forward-difference triangle of a finite line, rows cut to `width`.

    Each row is a_k - a_{k+1} of the row above; rows run while they have
    `width` entries, and row k holds (delta^k a)(n) for n < width.  At
    width 1 row k is [(nabla a)(k)], the one-axis nabla.  Only
    subtractions, no binomial weights.
    """
    rows = []
    while len(line) >= width:
        rows.append(line[:width])
        line = [a - b for a, b in zip(line, line[1:])]
    return rows


def _difference_passes(
    values: Sequence[Fraction], shape: tuple[int, ...], orders: tuple[int, ...]
) -> list[Fraction]:
    """One forward-difference pass per axis, with subtractions only.

    Axis i of extent L_i becomes N_i = L_i - K_i + 1 entries at its
    position and K_i = orders[i] entries after the last axis, so the
    result lies over (N_1, ..., N_r, K_1, ..., K_r): each line of the axis
    turns into the first K_i rows of its difference triangle, cut to N_i
    entries.  About |box| * sum(L_i) / 2 subtractions in all.
    """
    outer = 1
    for extent, count in zip(shape, orders):
        width = extent - count + 1
        stride = len(values) // (outer * extent)
        step = stride * count
        out = [None] * (outer * width * step)
        for block in range(outer):
            for inner in range(stride):
                start = block * extent * stride + inner
                head = block * width * step + inner * count
                line = values[start:start + extent * stride:stride]
                # column n of the triangle: (delta^k a)(n) for k < count
                for column in zip(*_difference_rows(line, width)):
                    out[head:head + count] = column
                    head += step
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
    values = _difference_passes(table.values, table.shape, table.shape)
    return MultiSequenceTable(table.shape, tuple(values))


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
    values = _difference_passes(table.values, table.shape, orders)
    return MultiSequenceTable(nbox + orders, tuple(values))
