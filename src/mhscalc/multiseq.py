"""Finite-difference and inversion calculus on tables of multi-sequences N^r -> Q.

A `MultiSequenceTable` holds exact values over one box prod [0, N_i).  It
is the one input type of the calculus and the shape every identity sweep
compares point by point.

Operators follow the classical calculus:

    (delta_i a)(n) = a(n) - a(n + e_i)
    (delta^k a)(n) = sum_{i <= k} (-1)^{|i|} C(k_1, i_1) ... C(k_r, i_r) a(n + i)
    (nabla a)(n)   = (delta^n a)(0)

nabla is the multi-dimensional binomial transform and an involution.  Both
box operators run the forward-difference triangle of every line, one axis
at a time, with subtractions only: `binomial_transform` keeps the first
entry of each row (nabla over the table's box), `iterated_delta` keeps the
first rows (delta^k a(n) for every pair (n, k) the table determines).
"""

from __future__ import annotations

import itertools
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

    arity: int
    shape: tuple[int, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.shape) != self.arity:
            raise ValueError(f"shape {self.shape} does not match arity {self.arity}")
        if any(extent < 1 for extent in self.shape):
            raise ValueError(f"extents must be >= 1, got {self.shape}")
        if len(self.values) != math.prod(self.shape):
            raise ValueError(
                f"expected {math.prod(self.shape)} values for shape {self.shape}, "
                f"got {len(self.values)}"
            )

    def indices(self):
        return itertools.product(*(range(extent) for extent in self.shape))

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


def _difference_rows(line: Sequence[Fraction], width: int) -> list[Fraction]:
    """The forward-difference triangle of a finite line, rows cut to `width`.

    Each row is a_k - a_{k+1} of the row above; rows run while they have
    `width` entries, and out[k * width + n] = (delta^k a)(n).  At width 1
    this is the one-axis nabla, out[n] = (delta^n a)(0).  Only subtractions,
    no binomial weights.
    """
    out = []
    while len(line) >= width:
        out += line[:width]
        line = [a - b for a, b in zip(line, line[1:])]
    return out


def binomial_transform(table: MultiSequenceTable) -> MultiSequenceTable:
    """nabla over the whole box of `table`, as r separable one-axis passes.

    (nabla a)(n) only reads a on the box below n, so the transform of a
    window is exact on that window.  Work is about |box| * sum(N_i) / 2
    subtractions, against |box| * prod(N_i + 1) / 2^r weighted terms for
    nabla point by point.
    """
    values = list(table.values)
    shape = table.shape
    for axis, extent in enumerate(shape):
        stride = math.prod(shape[axis + 1:])
        span = extent * stride
        for outer in range(0, len(values), span):
            for start in range(outer, outer + stride):
                line = values[start:start + span:stride]
                values[start:start + span:stride] = _difference_rows(line, 1)
    return MultiSequenceTable(table.arity, shape, tuple(values))


def iterated_delta(table: MultiSequenceTable, orders: Sequence[int]) -> MultiSequenceTable:
    """(delta^k a)(n) for every k below `orders` that the table determines.

    (delta^k a)(n) reads a on the box from n to n + k, so a table over
    prod [0, L_i) with K_i = orders[i] gives it for k_i < K_i and
    n_i < N_i = L_i - K_i + 1.  The result is one table of arity 2r over
    (N_1, ..., N_r, K_1, ..., K_r), indexed by n + k.  Like
    `binomial_transform` it runs one pass per axis, which turns each line
    of axis i into the first K_i rows of its forward-difference triangle,
    cut to N_i entries: about |box| * sum(L_i) / 2 subtractions in all.
    """
    orders = tuple(orders)
    r = table.arity
    if len(orders) != r:
        raise ValueError(f"orders {orders} have arity {len(orders)}, table has arity {r}")
    if any(not 1 <= k <= extent for k, extent in zip(orders, table.shape)):
        raise ValueError(f"orders {orders} must lie in 1..extent of shape {table.shape}")
    nbox = tuple(extent - k + 1 for extent, k in zip(table.shape, orders))
    # axis i of extent L_i becomes the two axes (K_i, N_i) at its position
    values, outer = table.values, 1
    for extent, width, count in zip(table.shape, nbox, orders):
        stride = len(values) // (outer * extent)
        span = count * width * stride
        out = [None] * (outer * span)
        for block in range(outer):
            for inner in range(stride):
                start, head = block * extent * stride + inner, block * span + inner
                line = values[start:start + extent * stride:stride]
                out[head:head + span:stride] = _difference_rows(line, width)
        values, outer = out, outer * count * width
    # transpose (K_1, N_1, ..., K_r, N_r) to (N_1, ..., N_r, K_1, ..., K_r)
    split = [extent for pair in zip(orders, nbox) for extent in pair]
    offsets = [0]
    for axis in [*range(1, 2 * r, 2), *range(0, 2 * r, 2)]:
        step = math.prod(split[axis + 1:])
        offsets = [offset + i * step for offset in offsets for i in range(split[axis])]
    return MultiSequenceTable(2 * r, nbox + orders, tuple(values[i] for i in offsets))
