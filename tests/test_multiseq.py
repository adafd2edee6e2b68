import itertools
import math
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from mhscalc import multiseq
from mhscalc.guards import difference_subtractions
from mhscalc.multiseq import (
    MultiSequenceTable,
    _difference_passes,
    binomial_transform,
    iterated_delta,
)
from mhscalc.nestedsums import random_table
from pointwise import delta, iterated_delta as pointwise_delta, nabla, tabulate, zero_extension


def geometric(x, shape):
    x = F(x)
    return tabulate(lambda idx: math.prod(x**i for i in idx), shape)


def test_iterated_delta_of_constant_vanishes_above_order_zero():
    diffs = iterated_delta(tabulate(lambda idx: F(7, 3), (4, 4)), (2, 2))
    assert diffs.arity == 4 and diffs.shape == (3, 3, 2, 2)
    for idx in itertools.product(*map(range, diffs.shape)):
        assert diffs[idx] == (F(7, 3) if idx[2:] == (0, 0) else 0)


def test_iterated_delta_linear_and_geometric():
    assert iterated_delta(tabulate(lambda idx: idx[0], (2,)), (2,))[(0, 1)] == -1
    # x^n (1 - x) at x = 2, n = 1
    assert iterated_delta(geometric(2, (3,)), (2,))[(1, 1)] == -2


def test_iterated_delta_order_one_is_the_table():
    table = geometric(F(2, 3), (3, 3))
    diffs = iterated_delta(table, (1, 1))
    assert diffs.shape == (3, 3, 1, 1)
    assert diffs.values == table.values


def test_iterated_delta_geometric_closed_forms():
    # second difference of 3^n at 0 is (1-3)^2
    assert iterated_delta(geometric(3, (3,)), (3,))[(0, 2)] == 4
    # (1-x)(1-y) at x=2, y=5, the alternating sum 1-2-5+10
    table = tabulate(lambda idx: F(2) ** idx[0] * F(5) ** idx[1], (2, 2))
    assert iterated_delta(table, (2, 2))[(0, 0, 1, 1)] == 4
    # delta^k x^n = x^n (1-x)^k everywhere
    x = F(-2, 5)
    diffs = iterated_delta(geometric(x, (6,)), (3,))
    for n, k in itertools.product(*map(range, diffs.shape)):
        assert diffs[(n, k)] == x**n * (1 - x) ** k


def test_iterated_delta_rejects_bad_orders():
    table = geometric(2, (3, 3))
    for orders in [(1,), (1, 1, 1), (0, 1), (1, 4)]:
        with pytest.raises(ValueError, match="orders"):
            iterated_delta(table, orders)


def test_nabla_of_constant_is_delta_at_origin():
    transformed = binomial_transform(tabulate(lambda idx: 1, (4, 3)))
    for idx in itertools.product(*map(range, transformed.shape)):
        assert transformed[idx] == (1 if idx == (0, 0) else 0)


def test_nabla_geometric_closed_form():
    transformed = binomial_transform(geometric(F(1, 3), (5,)))
    assert transformed[(2,)] == F(4, 9)
    for n in range(5):
        assert transformed[(n,)] == (1 - F(1, 3)) ** n


def test_nabla_is_iterated_delta_at_origin():
    rng = Random(1)
    table = random_table(rng, (4, 4))
    diffs = iterated_delta(table, table.shape)
    assert diffs.shape == (1, 1, 4, 4)
    assert diffs.values == binomial_transform(table).values


def test_involution_on_random_tables():
    rng = Random(2)
    for _ in range(15):
        arity = rng.randint(1, 2)
        table = random_table(rng, tuple(rng.randint(2, 6) for _ in range(arity)))
        assert binomial_transform(binomial_transform(table)) == table


def reference_rows(line, width):
    """The Fraction difference triangle, as the table layer ran it on Fractions."""
    rows = []
    while len(line) >= width:
        rows.append(line[:width])
        line = [a - b for a, b in zip(line, line[1:])]
    return rows


def reference_passes(values, shape, orders):
    """The Fraction difference pass: the reference for the pass on numerators."""
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
                for column in zip(*reference_rows(line, width)):
                    out[head:head + count] = column
                    head += step
        values, outer = out, outer * width
    return values


@st.composite
def tables(draw):
    """Tables of mixed denominators, stored over their lcm times 1, 6 or 1,000,003.

    Arity 1-3 with extents up to 5, or arity 4 with extents up to 3.
    """
    arity = draw(st.integers(1, 4))
    most = 5 if arity < 4 else 3
    shape = tuple(draw(st.lists(st.integers(1, most), min_size=arity, max_size=arity)))
    values = draw(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            min_size=math.prod(shape),
            max_size=math.prod(shape),
        )
    )
    table = MultiSequenceTable(shape, tuple(values))
    pad = draw(st.sampled_from((1, 6, 1_000_003)))
    return MultiSequenceTable._trusted(
        shape, tuple(n * pad for n in table.numerators), table.denominator * pad
    )


@st.composite
def tables_and_orders(draw):
    """A table of `tables()` and orders 1..L_i for each of its axes."""
    table = draw(tables())
    return table, tuple(draw(st.integers(1, extent)) for extent in table.shape)


# an extent-1 axis between longer ones, at order 1 and at the full extent
THIN_MIDDLE = MultiSequenceTable((3, 1, 4), [F(i * i - 5, i % 4 + 1) for i in range(12)])


@given(tables())
@example(THIN_MIDDLE)
def test_binomial_transform_matches_pointwise_nabla(table):
    transformed = binomial_transform(table)
    assert transformed.shape == table.shape
    pointwise = nabla(zero_extension(table))
    for idx in itertools.product(*map(range, table.shape)):
        assert transformed[idx] == pointwise(idx)
    assert binomial_transform(transformed) == table


@given(tables())
def test_binomial_transform_is_the_origin_slice_of_iterated_delta(table):
    assert binomial_transform(table).values == iterated_delta(table, table.shape).values


@given(tables_and_orders())
@example((THIN_MIDDLE, (1, 1, 4)))
@example((THIN_MIDDLE, (3, 1, 1)))
def test_iterated_delta_matches_pointwise_alternating_sum(case):
    table, orders = case
    diffs = iterated_delta(table, orders)
    r = table.arity
    assert diffs.shape == tuple(e - k + 1 for e, k in zip(table.shape, orders)) + orders
    a = zero_extension(table)
    for idx in itertools.product(*map(range, diffs.shape)):
        assert diffs[idx] == pointwise_delta(a, idx[r:], idx[:r])


@given(tables_and_orders())
@example((THIN_MIDDLE, (1, 1, 4)))
@example((THIN_MIDDLE, (3, 1, 1)))
def test_passes_on_numerators_match_the_fraction_reference(case):
    table, orders = case
    reference = reference_passes(list(table.values), table.shape, table.shape)
    transformed = binomial_transform(table)
    assert transformed.denominator == table.denominator
    assert transformed.values == tuple(reference)
    reference = reference_passes(list(table.values), table.shape, orders)
    diffs = iterated_delta(table, orders)
    assert diffs.denominator == table.denominator
    assert diffs.values == tuple(reference)


class Counted:
    """A value whose subtractions add to a shared tally."""

    def __init__(self, tally):
        self.tally = tally

    def __sub__(self, other):
        self.tally[0] += 1
        return Counted(self.tally)


@given(st.data())
def test_difference_subtractions_counts_the_pass(data):
    arity = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.integers(1, 7)) for _ in range(arity))
    orders = tuple(data.draw(st.integers(1, extent)) for extent in shape)
    tally = [0]
    _difference_passes([Counted(tally) for _ in range(math.prod(shape))], shape, orders)
    assert difference_subtractions(shape, orders) == tally[0]


@pytest.mark.parametrize(
    "shape, orders, steps",
    [
        # one block per axis, 4 rows below the first
        ((5, 5, 5), (5, 5, 5), 12),
        # 1 block x 1 row, then 3 blocks x 0 rows, then 3 x 1 blocks x 2 rows
        ((4, 1, 3), (2, 1, 3), 7),
        # 1 block x 0 rows, 2 x 2, 2 x 1 x 1, 2 x 1 x 1 x 1
        ((2, 3, 2, 3), (1, 3, 2, 2), 8),
    ],
)
def test_the_pass_steps_each_block_once_per_row(monkeypatch, shape, orders, steps):
    table = MultiSequenceTable(shape, [F(i * i - 7, i % 5 + 1) for i in range(math.prod(shape))])
    expected = iterated_delta(table, orders)
    subtractions = []

    def counting(function, *rows):
        subtractions.append(len(rows[-1]))
        return map(function, *rows)

    monkeypatch.setattr(multiseq, "map", counting, raising=False)
    assert iterated_delta(table, orders) == expected
    # outer blocks x (K_i - 1) row steps, summed over the axes, and no others
    assert len(subtractions) == steps
    assert sum(subtractions) == difference_subtractions(shape, orders)


def test_difference_subtractions_of_a_line_transform():
    assert difference_subtractions((200001,), (200001,)) == 200001 * 200000 // 2
    assert difference_subtractions((5, 5), (1, 1)) == 0


def test_equal_values_over_different_denominators_compare_equal():
    table = MultiSequenceTable((2, 2), (F(1, 2), F(-1, 3), F(0), F(5)))
    assert table.denominator == 6
    padded = MultiSequenceTable._trusted((2, 2), (21, -14, 0, 210), 42)
    assert padded == table and table == padded
    assert padded.values == table.values and padded[(0, 1)] == F(-1, 3)
    assert padded != MultiSequenceTable._trusted((2, 2), (21, -14, 0, 209), 42)
    assert padded != MultiSequenceTable._trusted((4,), (21, -14, 0, 210), 42)


def test_index_symmetry_of_nabla_differences():
    # (delta^k nabla a)(n) = (delta^n a)(k)
    rng = Random(3)
    for _ in range(10):
        arity = rng.randint(1, 2)
        table = random_table(rng, (5,) * arity)
        transformed = iterated_delta(binomial_transform(table), (3,) * arity)
        plain = iterated_delta(table, (3,) * arity)
        for n in itertools.product(range(3), repeat=arity):
            for k in itertools.product(range(3), repeat=arity):
                assert transformed[n + k] == plain[k + n]


def test_iterated_delta_equals_composition():
    rng = Random(4)
    for _ in range(10):
        arity = rng.randint(1, 3)
        a = zero_extension(random_table(rng, (3,) * arity))
        k = tuple(rng.randint(0, 4 if arity == 1 else 2) for _ in range(arity))
        n = tuple(rng.randint(0, 2) for _ in range(arity))
        composed = a
        for axis in range(1, arity + 1):
            for _ in range(k[axis - 1]):
                composed = delta(composed, axis)
        reach = tuple(nj + kj + 1 for nj, kj in zip(n, k))
        orders = tuple(kj + 1 for kj in k)
        assert composed(n) == iterated_delta(tabulate(a, reach), orders)[n + k]


def test_delta_operators_commute():
    rng = Random(5)
    table = random_table(rng, (5, 5))
    a = zero_extension(table)
    d12 = delta(delta(a, 1), 2)
    d21 = delta(delta(a, 2), 1)
    diffs = iterated_delta(table, (2, 2))
    for idx in itertools.product(range(3), repeat=2):
        assert d12(idx) == d21(idx) == diffs[idx + (1, 1)]


def test_delta_and_nabla_are_linear():
    rng = Random(6)
    a = random_table(rng, (6,))
    b = random_table(rng, (6,))
    alpha, beta = F(3, 7), F(-2, 5)
    combo = MultiSequenceTable(
        (6,), tuple(alpha * u + beta * v for u, v in zip(a.values, b.values))
    )
    for op in (binomial_transform, lambda t: iterated_delta(t, (3,))):
        assert op(combo).values == tuple(
            alpha * u + beta * v for u, v in zip(op(a).values, op(b).values)
        )


def test_table_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        MultiSequenceTable((3,), (F(1), F(2)))
    with pytest.raises(ValueError):
        MultiSequenceTable((2, 0), ())


def test_table_rejects_bad_indices():
    table = MultiSequenceTable((2, 2), (F(1), F(2), F(3), F(4)))
    assert table[(1, 1)] == 4
    # an index of the wrong arity names both arities instead of being cut short
    with pytest.raises(ValueError, match=r"index \(1,\) has arity 1, table has arity 2"):
        table[(1,)]
    with pytest.raises(ValueError, match=r"index \(1, 1, 5\) has arity 3, table has arity 2"):
        table[(1, 1, 5)]
    for index in [(1, -1), (2, 0)]:
        with pytest.raises(IndexError):
            table[index]
