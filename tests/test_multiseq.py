import itertools
import math
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, strategies as st

from mhscalc.multiseq import (
    MultiSequenceTable,
    SequenceRule,
    binomial_transform,
    delta,
    iterated_delta,
    nabla,
)


def geometric(x, arity=1):
    x = F(x)
    return SequenceRule(arity, lambda idx: math.prod(x**i for i in idx))


def random_table(rng, arity, extents):
    values = tuple(
        F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(math.prod(extents))
    )
    return MultiSequenceTable(arity, tuple(extents), values)


def test_delta_of_constant_is_zero():
    a = SequenceRule.constant(2, F(7, 3))
    for axis in (1, 2):
        d = delta(a, axis)
        assert all(d(idx) == 0 for idx in itertools.product(range(3), repeat=2))


def test_delta_linear_sequence():
    a = SequenceRule(1, lambda idx: F(idx[0]))
    assert delta(a, 1)((0,)) == -1


def test_delta_geometric():
    a = geometric(2)
    assert delta(a, 1)((1,)) == -2  # x^n (1 - x) at x = 2, n = 1


def test_delta_axis_out_of_range():
    a = SequenceRule.constant(2, 1)
    with pytest.raises(ValueError):
        delta(a, 0)
    with pytest.raises(ValueError):
        delta(a, 3)


def test_iterated_delta_identity_composition():
    a = geometric(F(2, 3), arity=2)
    for idx in itertools.product(range(3), repeat=2):
        assert iterated_delta(a, (0, 0), idx) == a(idx)


def test_iterated_delta_univariate_geometric():
    # second difference of 3^n at 0 is (1-3)^2
    assert iterated_delta(geometric(3), (2,), (0,)) == 4


def test_iterated_delta_bivariate_geometric():
    # (1-x)(1-y) at x=2, y=5, computed by the alternating sum 1-2-5+10
    a = SequenceRule(2, lambda idx: F(2) ** idx[0] * F(5) ** idx[1])
    assert iterated_delta(a, (1, 1), (0, 0)) == 4


def test_nabla_of_constant_is_delta_at_origin():
    a = SequenceRule.constant(2, 1)
    transformed = nabla(a)
    assert transformed((0, 0)) == 1
    for idx in [(1, 0), (0, 1), (2, 2), (3, 1)]:
        assert transformed(idx) == 0


def test_nabla_geometric_closed_form():
    transformed = nabla(geometric(F(1, 3)))
    assert transformed((2,)) == F(4, 9)
    for n in range(5):
        assert transformed((n,)) == (1 - F(1, 3)) ** n


def test_nabla_matches_iterated_delta_at_origin():
    rng = Random(1)
    a = random_table(rng, 2, (4, 4)).as_rule()
    transformed = nabla(a)
    for idx in itertools.product(range(3), repeat=2):
        assert transformed(idx) == iterated_delta(a, idx, (0, 0))


def test_involution_on_random_tables():
    rng = Random(2)
    for _ in range(15):
        arity = rng.randint(1, 2)
        extents = tuple(rng.randint(2, 6) for _ in range(arity))
        a = random_table(rng, arity, extents).as_rule()
        twice = nabla(nabla(a))
        for idx in itertools.product(*(range(e) for e in extents)):
            assert twice(idx) == a(idx)


@st.composite
def tables(draw):
    arity = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=arity, max_size=arity)))
    values = draw(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            min_size=math.prod(shape),
            max_size=math.prod(shape),
        )
    )
    return MultiSequenceTable(arity, shape, tuple(values))


@given(tables())
def test_binomial_transform_matches_pointwise_nabla(table):
    transformed = binomial_transform(table)
    assert transformed.shape == table.shape
    pointwise = nabla(table.as_rule())
    for idx in table.indices():
        assert transformed[idx] == pointwise(idx)
    assert binomial_transform(transformed) == table


def test_index_symmetry_of_nabla_differences():
    # (delta^k nabla a)(n) = (delta^n a)(k)
    rng = Random(3)
    for _ in range(10):
        arity = rng.randint(1, 2)
        a = random_table(rng, arity, (5,) * arity).as_rule()
        transformed = nabla(a)
        for n in itertools.product(range(3), repeat=arity):
            for k in itertools.product(range(3), repeat=arity):
                assert iterated_delta(transformed, k, n) == iterated_delta(a, n, k)


def test_iterated_delta_equals_composition():
    rng = Random(4)
    for _ in range(10):
        arity = rng.randint(1, 3)
        a = random_table(rng, arity, (3,) * arity).as_rule()
        k = tuple(rng.randint(0, 4 if arity == 1 else 2) for _ in range(arity))
        n = tuple(rng.randint(0, 2) for _ in range(arity))
        composed = a
        for axis in range(1, arity + 1):
            for _ in range(k[axis - 1]):
                composed = delta(composed, axis)
        assert composed(n) == iterated_delta(a, k, n)


def test_delta_operators_commute():
    rng = Random(5)
    a = random_table(rng, 2, (5, 5)).as_rule()
    d12 = delta(delta(a, 1), 2)
    d21 = delta(delta(a, 2), 1)
    for idx in itertools.product(range(3), repeat=2):
        assert d12(idx) == d21(idx)


def test_delta_and_nabla_are_linear():
    rng = Random(6)
    a = random_table(rng, 1, (6,)).as_rule()
    b = random_table(rng, 1, (6,)).as_rule()
    alpha, beta = F(3, 7), F(-2, 5)
    combo = SequenceRule(1, lambda idx: alpha * a(idx) + beta * b(idx))
    for idx in [(0,), (1,), (3,)]:
        assert delta(combo, 1)(idx) == alpha * delta(a, 1)(idx) + beta * delta(b, 1)(idx)
        assert nabla(combo)(idx) == alpha * nabla(a)(idx) + beta * nabla(b)(idx)


def test_rule_memo_is_write_once():
    calls = []

    def fn(idx):
        calls.append(idx)
        return F(1)

    a = SequenceRule(1, fn)
    assert a((3,)) == a((3,)) == 1
    assert calls == [(3,)]
    assert a.memo_size == 1


def test_rule_memo_concurrent_inserts():
    from concurrent.futures import ThreadPoolExecutor

    a = SequenceRule(1, lambda idx: F(idx[0], 7))
    with ThreadPoolExecutor(8) as pool:
        results = list(pool.map(lambda i: a((i % 10,)), range(200)))
    assert a.memo_size == 10
    assert all(results[i] == F(i % 10, 7) for i in range(200))


def test_rule_rejects_bad_indices():
    a = SequenceRule.constant(2, 1)
    with pytest.raises(ValueError):
        a((1,))
    with pytest.raises(ValueError):
        a((1, -1))


def test_table_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        MultiSequenceTable(1, (3,), (F(1), F(2)))
    with pytest.raises(ValueError):
        MultiSequenceTable(2, (2, 0), ())
