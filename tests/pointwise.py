"""Pointwise reference calculus: the oracle for the table operators.

A sequence here is any callable from index tuples to rationals.  Each
operator returns a new callable, memoized with `functools.cache`, so a
reference that reads one value many times computes it once.

    (delta_i a)(n) = a(n) - a(n + e_i)
    (delta^k a)(n) = sum_{i <= k} (-1)^{|i|} prod_j C(k_j, i_j) a(n + i)
    (nabla a)(n)   = (delta^n a)(0)
"""

import functools
import itertools
import math
from fractions import Fraction

from mhscalc.multiseq import MultiSequenceTable
from mhscalc.nestedsums import c_direct


def delta(a, axis):
    """Difference along a 1-based axis, by its definition."""
    pos = axis - 1

    @functools.cache
    def differenced(index):
        return a(index) - a(index[:pos] + (index[pos] + 1,) + index[pos + 1:])

    return differenced


def iterated_delta(a, k, n):
    """(delta^k a)(n) by the alternating binomial sum over n <= m <= n + k."""
    total = Fraction(0)
    for offsets in itertools.product(*(range(kj + 1) for kj in k)):
        coeff = math.prod(math.comb(kj, ij) for kj, ij in zip(k, offsets))
        term = coeff * a(tuple(nj + ij for nj, ij in zip(n, offsets)))
        total += -term if sum(offsets) % 2 else term
    return total


def nabla(a):
    """The binomial transform, one alternating sum per point."""

    @functools.cache
    def transformed(index):
        return iterated_delta(a, index, (0,) * len(index))

    return transformed


def zero_extension(table):
    """The table's values on its box and 0 outside: a sequence on all of N^r."""

    @functools.cache
    def extended(index):
        if all(i < extent for i, extent in zip(index, table.shape)):
            return table[index]
        return Fraction(0)

    return extended


def tabulate(a, shape):
    """The table of a over the box of `shape`."""
    indices = itertools.product(*(range(extent) for extent in shape))
    return MultiSequenceTable(tuple(shape), tuple(Fraction(a(i)) for i in indices))


def c_sequence(spec):
    """c[x|t] by chain enumeration, one `c_direct` call per point."""
    return functools.cache(lambda index: c_direct(spec, index))
