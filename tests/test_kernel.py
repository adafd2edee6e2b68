import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from mhscalc.kernel import (
    common_denominator,
    format_rational,
    format_ratio,
    gen_binomial,
    gen_binomial_pair,
    multinomial,
    parse_integers,
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


@given(st.lists(st.one_of(rationals, st.integers(-20, 20))))
def test_common_denominator_is_the_lcm_of_the_denominators(values):
    q, numerators = common_denominator(values)
    assert q == math.lcm(*(F(v).denominator for v in values))
    assert [F(n, q) for n in numerators] == values
    assert all(isinstance(n, int) for n in numerators)


def test_common_denominator_of_nothing():
    assert common_denominator([]) == (1, [])


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


# tops: integers, and negative non-integers, where C(top, k) has sign (-1)^k
binomial_tops = st.one_of(
    st.integers(-12, 12).map(F),
    st.fractions(min_value=-20, max_value=-1, max_denominator=12).filter(
        lambda t: t.denominator > 1
    ),
    rationals,
)


@given(binomial_tops, st.one_of(st.just(0), st.integers(0, 10)))
def test_gen_binomial_is_the_fraction_of_its_pair(top, k):
    pair = gen_binomial_pair(top.numerator, top.denominator, k)
    assert all(isinstance(entry, int) for entry in pair) and pair[1] > 0
    literal = F(1)
    for i in range(k):
        literal *= (top - i) / (i + 1)
    assert F(*pair) == gen_binomial(top, k) == literal
    if k == 0:
        assert pair == (1, 1)
    if top < 0:
        assert (literal > 0) == (k % 2 == 0)


def test_gen_binomial_pair_rejects_negative_k():
    with pytest.raises(ValueError, match="requires natural k"):
        gen_binomial_pair(1, 2, -1)


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


@pytest.mark.parametrize(
    "text", ["3.14", "1/-2", "1/0", "a/b", "", "2 /3", "1e3", "\u0663", "\uff11\uff12"]
)
def test_parse_rejects_non_grammar(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize(
    "text,values", [("2,1", (2, 1)), (" 3 , -1,+0 ", (3, -1, 0)), ("007", (7,))]
)
def test_parse_integers(text, values):
    assert parse_integers(text) == values


# underscores, non-ASCII digits (Arabic-Indic three, fullwidth one), empty entries
@pytest.mark.parametrize("text", ["1_0", "\u0663", "\uff11", "1,,2", "", "1.0", "2 3", "--1"])
def test_parse_integers_rejects_non_grammar(text):
    with pytest.raises(ValueError):
        parse_integers(text)


def test_format_rational_converts_other_values():
    assert format_rational(-3) == "-3"
    big = 10**5000 + 1
    assert format_rational(-big) == "-1" + "0" * 4999 + "1"


@pytest.mark.parametrize(
    "numerator,denominator,text",
    [(2, 4, "1/2"), (-6, 3, "-2"), (0, 7, "0"), (5, 1, "5"), (-10, 4, "-5/2")],
)
def test_format_ratio_reduces(numerator, denominator, text):
    assert format_ratio(numerator, denominator) == text


@given(rationals, st.integers(1, 10**30))
def test_format_ratio_is_format_rational(value, scale):
    text = format_rational(value)
    assert format_ratio(value.numerator * scale, value.denominator * scale) == text


def test_format_ratio_past_the_digit_limit():
    big = 10**5000
    text = format_ratio(-3 * (big + 1), 6 * big)
    assert text == "-1" + "0" * 4999 + "1/2" + "0" * 5000


def test_parse_rational_past_the_digit_limit():
    value = F(-(7 * 10**9999 + 1), 3 * 10**9999 + 1)
    assert len(format_rational(value)) > 20_000
    assert parse_rational(format_rational(value)) == value
    assert parse_rational("+" + "0" * 5000 + "12/18") == F(2, 3)
    assert parse_rational("-12/18" + "0" * 5000) == F(-2, 3 * 10**5000)
