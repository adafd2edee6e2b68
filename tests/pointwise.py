"""Pointwise reference calculus: the oracles for the table operators and c_direct.

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


def chains(n, p):
    """(m, v) per chain n = m_1 >= ... >= m_p >= 0, v_j = m_j - m_{j+1}, v_p = m_p.

    v is the runs of 0s in a word of n 0s and p - 1 1s: no package enumerator is read."""
    for word in itertools.product("01", repeat=n + p - 1):
        if word.count("1") == p - 1:
            v = tuple(map(len, "".join(word).split("1")))
            yield tuple(n - s for s in itertools.accumulate(v[:-1], initial=0)), v


def kt_value(x, n):
    """c[x|1..1](n) as the classical sum over chains of prod_j x_j^v_j / prod_{j<p} (m_j + 1)."""
    total = Fraction(0)
    for m, v in chains(n, len(x)):
        total += math.prod(map(pow, map(Fraction, x), v)) / math.prod(mj + 1 for mj in m[:-1])
    return total


def two_index_value(x, y, n, k):
    """c[x;y|1..1](n, k) as the classical sum over chain pairs (m, v), (l, w), over C(n + k, n), of

        prod_j x_j^v_j y_j^w_j C(m_p + l_p, m_p) prod_{j<p} C(v_j + w_j, v_j) / (m_j + l_j + 1)."""
    total = Fraction(0)
    for (m, v), (l, w) in itertools.product(chains(n, len(x)), chains(k, len(y))):
        term = math.comb(m[-1] + l[-1], m[-1]) * math.prod(map(pow, map(Fraction, (*x, *y)), v + w))
        for j in range(len(x) - 1):
            term *= Fraction(math.comb(v[j] + w[j], v[j]), m[j] + l[j] + 1)
        total += term
    return total / math.comb(n + k, n)
