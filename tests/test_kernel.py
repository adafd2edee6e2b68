import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from mhscalc.kernel import (
    format_rational,
    gen_binomial,
    multinomial,
    parse_rational,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def test_multinomial_values():
    assert multinomial(4, [2, 1, 1]) == 12
    assert multinomial(6, [2, 2, 2]) == 90
    for n in range(7):
        assert multinomial(n, [n]) == 1


def test_multinomial_rejects_bad_parts():
    with pytest.raises(ValueError):
        multinomial(4, [2, 1])
    with pytest.raises(ValueError):
        multinomial(3, [4, -1])


@given(st.integers(0, 12), st.integers(0, 12))
def test_multinomial_two_parts_is_binomial(n, k):
    if k <= n:
        assert multinomial(n, [k, n - k]) == math.comb(n, k)


def test_gen_binomial_values():
    assert gen_binomial(F(1, 2), 1) == F(1, 2)
    assert gen_binomial(F(5, 2), 2) == F(15, 8)
    for t in (F(0), F(-7, 3), F(4), F(9, 2)):
        assert gen_binomial(t, 0) == 1
    for q in range(1, 200):
        top, k = F(q, 7), q % 9
        expected = F(math.prod(q - 7 * i for i in range(k)), 7**k * math.factorial(k))
        assert gen_binomial(top, k) == expected
    assert gen_binomial(F(1, 3), 60) == F(math.prod(1 - 3 * i for i in range(60)),
                                          3**60 * math.factorial(60))


def test_gen_binomial_deep_cold_call():
    # k far beyond the recursion limit: the falling factorial runs in a loop
    top, k = F(1, 3), 5000
    assert k > sys.getrecursionlimit()
    expected = F(math.prod(1 - 3 * i for i in range(k)), 3**k * math.factorial(k))
    assert gen_binomial(top, k) == expected
    assert gen_binomial(top, k - 1) * (top - (k - 1)) / k == expected


@given(st.integers(0, 15), st.integers(0, 15))
def test_gen_binomial_matches_integer_binomial(m, k):
    assert gen_binomial(m, k) == math.comb(m, k) if k <= m else True


@given(rationals, st.integers(1, 8))
def test_gen_binomial_pascal_recurrence(top, k):
    assert gen_binomial(top, k) == gen_binomial(top - 1, k) + gen_binomial(top - 1, k - 1)


@given(rationals, rationals, rationals)
def test_rational_ring_laws(a, b, c):
    # structural equality of canonical forms makes these exact statements
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize(
    "value,text",
    [(F(-3, 7), "-3/7"), (F(5), "5"), (F(0), "0"), (F(10, 4), "5/2")],
)
def test_format_rational(value, text):
    assert format_rational(value) == text


@pytest.mark.parametrize("text", ["-3/7", "5", "0", "+2/9", "12/35"])
def test_parse_roundtrip(text):
    assert format_rational(parse_rational(text)) == format_rational(F(text))


@pytest.mark.parametrize("text", ["3.14", "1/-2", "1/0", "a/b", "", "2 /3", "1e3"])
def test_parse_rejects_non_grammar(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_format_rational_converts_other_values():
    assert format_rational(-3) == "-3"
    big = 10**5000 + 1
    assert format_rational(-big) == "-1" + "0" * 4999 + "1"


def test_parse_rational_past_the_digit_limit():
    value = F(-(7 * 10**9999 + 1), 3 * 10**9999 + 1)
    assert len(format_rational(value)) > 20_000
    assert parse_rational(format_rational(value)) == value
    assert parse_rational("+" + "0" * 5000 + "12/18") == F(2, 3)
    assert parse_rational("-12/18" + "0" * 5000) == F(-2, 3 * 10**5000)
