"""Finite-difference and inversion calculus on multi-sequences N^r -> Q.

A multi-sequence is held as a `SequenceRule`: a total evaluation rule with a
write-once memo, because the difference operator consumes values above any
finite window.  A `MultiSequenceTable` holds exact values over one box, the
shape every identity sweep compares point by point.

Operators follow the classical calculus:

    (delta_i a)(n) = a(n) - a(n + e_i)
    (nabla a)(n)   = (delta_1^{n_1} ... delta_r^{n_r} a)(0, ..., 0)
                   = sum_{i <= n} (-1)^{|i|} C(n_1, i_1) ... C(n_r, i_r) a(i)

nabla is the multi-dimensional binomial transform and an involution.
`binomial_transform` applies it to a whole table at once, one axis at a
time; `nabla` and `iterated_delta` remain the pointwise reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .kernel import binomial

Index = tuple[int, ...]


class SequenceRule:
    """A total, deterministic map N^r -> Q with a write-once memo.

    The memo is insert-only (`setdefault`), so concurrent readers and writers
    can only ever race to insert the same value.
    """

    __slots__ = ("arity", "_fn", "_memo")

    def __init__(self, arity: int, fn: Callable[[Index], Fraction]):
        if arity < 1:
            raise ValueError(f"arity must be positive, got {arity}")
        self.arity = arity
        self._fn = fn
        self._memo: dict[Index, Fraction] = {}

    def __call__(self, index: Sequence[int]) -> Fraction:
        key = tuple(index)
        if len(key) != self.arity:
            raise ValueError(f"index {key} has arity {len(key)}, rule expects {self.arity}")
        if any(i < 0 for i in key):
            raise ValueError(f"index {key} has negative entries")
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        value = Fraction(self._fn(key))
        return self._memo.setdefault(key, value)

    @classmethod
    def constant(cls, arity: int, value) -> "SequenceRule":
        value = Fraction(value)
        return cls(arity, lambda _idx: value)

    @property
    def memo_size(self) -> int:
        return len(self._memo)


def delta(a: SequenceRule, axis: int) -> SequenceRule:
    """Difference along a 1-based axis: result(n) = a(n) - a(n + e_axis)."""
    if not 1 <= axis <= a.arity:
        raise ValueError(f"axis {axis} out of range 1..{a.arity}")
    pos = axis - 1

    def fn(index: Index) -> Fraction:
        shifted = index[:pos] + (index[pos] + 1,) + index[pos + 1:]
        return a(index) - a(shifted)

    return SequenceRule(a.arity, fn)


def iterated_delta(a: SequenceRule, k: Sequence[int], n: Sequence[int]) -> Fraction:
    """(delta_1^{k_1} ... delta_r^{k_r} a)(n) by the alternating binomial sum.

    Closed form: sum over 0 <= i <= k of (-1)^{|i|} prod C(k_j, i_j) a(n + i).
    Work is prod(k_j + 1) evaluations, versus exponential blowup for literal
    operator composition (which the tests retain as an oracle).
    """
    k = tuple(k)
    n = tuple(n)
    if len(k) != a.arity or len(n) != a.arity:
        raise ValueError(f"k {k} and n {n} must have arity {a.arity}")
    total = Fraction(0)
    for offsets in itertools.product(*(range(kj + 1) for kj in k)):
        coeff = 1
        for kj, ij in zip(k, offsets):
            coeff *= binomial(kj, ij)
        point = tuple(nj + ij for nj, ij in zip(n, offsets))
        term = coeff * a(point)
        total += -term if sum(offsets) % 2 else term
    return total


def nabla(a: SequenceRule) -> SequenceRule:
    """Inversion operator (binomial transform): (nabla a)(n) = (delta^n a)(0)."""
    zero = (0,) * a.arity

    def fn(index: Index) -> Fraction:
        return iterated_delta(a, index, zero)

    return SequenceRule(a.arity, fn)


@dataclass(frozen=True)
class MultiSequenceTable:
    """Dense window of a multi-sequence over the box prod [0, N_i].

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
        offset = 0
        for extent, i in zip(self.shape, index):
            if not 0 <= i < extent:
                raise IndexError(f"index {index} outside box of shape {self.shape}")
            offset = offset * extent + i
        return self.values[offset]

    def as_rule(self, fill=Fraction(0)) -> SequenceRule:
        """Total rule agreeing with the table on its box, `fill` outside.

        Zero extension is itself a legitimate multi-sequence, so operator
        identities applied to the extension remain exactly valid.
        """
        fill = Fraction(fill)

        def fn(index: Index) -> Fraction:
            if all(i < extent for i, extent in zip(index, self.shape)):
                return self[index]
            return fill

        return SequenceRule(self.arity, fn)


def _difference_triangle(line: list[Fraction]) -> list[Fraction]:
    """One-axis nabla of a finite line: out[n] = (delta^n a)(0).

    Each row of the forward-difference triangle is a_k - a_{k+1} of the row
    above; its first entry is the next output.  Only subtractions, no
    binomial weights.
    """
    out = []
    while line:
        out.append(line[0])
        line = [a - b for a, b in zip(line, line[1:])]
    return out


def binomial_transform(table: MultiSequenceTable) -> MultiSequenceTable:
    """nabla over the whole box of `table`, as r separable one-axis passes.

    (nabla a)(n) only reads a on the box below n, so the transform of a
    window is exact on that window.  Work is about |box| * sum(N_i) / 2
    subtractions, against |box| * prod(N_i + 1) / 2^r weighted terms for
    `nabla` point by point.
    """
    values = list(table.values)
    shape = table.shape
    for axis, extent in enumerate(shape):
        stride = math.prod(shape[axis + 1:])
        span = extent * stride
        for outer in range(0, len(values), span):
            for start in range(outer, outer + stride):
                line = values[start:start + span:stride]
                values[start:start + span:stride] = _difference_triangle(line)
    return MultiSequenceTable(table.arity, shape, tuple(values))
