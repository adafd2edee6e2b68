import itertools
import math
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from mhscalc import egf
from mhscalc.egf import (
    TruncatedSeries,
    F_from_sequence,
    exp_linear,
    exponent_vectors,
    from_sequence,
    nabla_series,
    negate_vars,
    subst_linear,
    suite_product_pairs,
    verify_operator_suite,
    xi_apply,
)
from mhscalc.errors import GuardExceeded
from mhscalc.multiseq import MultiSequenceTable
from mhscalc.nestedsums import NestedSumSpec, RecurrenceEvaluator, random_table
from pointwise import c_sequence, iterated_delta, nabla, tabulate, zero_extension


def geometric(x, degree):
    """The table of x^n over 0 <= n <= degree."""
    x = F(x)
    return tabulate(lambda idx: x ** idx[0], (degree + 1,))


def one(nvars, degree):
    """The constant series 1."""
    return TruncatedSeries.monomial(nvars, degree, (0,) * nvars)


def ones(arity, degree):
    return tabulate(lambda idx: 1, (degree + 1,) * arity)


def window(a, arity, degree):
    """The EGF window of a sequence given as a callable on index tuples."""
    return from_sequence(tabulate(a, (degree + 1,) * arity), degree)


def series(nvars, bound, entries):
    return TruncatedSeries(nvars, bound, {tuple(e): F(c) for e, c in entries.items()})


def test_exponent_vectors_graded_lex():
    assert list(exponent_vectors(2, 2)) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (0, 2),
        (1, 1),
        (2, 0),
    ]
    assert len(list(exponent_vectors(4, 6))) == math.comb(10, 4)


def test_series_normalization_and_equality():
    f = series(1, 3, {(1,): 2, (2,): 0})
    assert f.coefficient((2,)) == 0
    assert f == series(1, 3, {(1,): 2})
    # equality compares up to the smaller bound
    g = series(1, 5, {(1,): 2, (4,): 7})
    assert f == g
    assert g != series(1, 5, {(1,): 2})
    with pytest.raises(ValueError):
        series(1, 2, {(3,): 1})
    with pytest.raises(ValueError):
        series(2, 2, {(1,): 1})


def test_from_sequence_constant_is_exponential_prefix():
    f = from_sequence(ones(1, 2), 2)
    assert f == series(1, 2, {(0,): 1, (1,): 1, (2,): F(1, 2)})


def test_from_sequence_geometric_is_exp_linear():
    x = F(3, 5)
    assert from_sequence(geometric(x, 6), 6) == exp_linear((x,), 6)


def test_from_sequence_delta_sequence_is_one():
    assert window(lambda idx: F(idx == (0,)), 1, 4) == one(1, 4)


def test_from_sequence_needs_the_whole_window():
    table = geometric(2, 3)
    assert from_sequence(table, 3) == exp_linear((2,), 3)
    with pytest.raises(IndexError):
        from_sequence(table, 4)
    with pytest.raises(IndexError):
        F_from_sequence(table, 4)


def test_ring_identities():
    unit = one(1, 2)
    x = TruncatedSeries.monomial(1, 2, (1,))
    f = series(1, 2, {(0,): 3, (1,): F(1, 2), (2,): -1})
    assert f * unit == f
    assert (unit + x) * (unit - x) == series(1, 2, {(0,): 1, (2,): -1})


def test_exp_linear_multiplicativity():
    x, y = F(2, 3), F(-1, 4)
    assert exp_linear((x,), 6) * exp_linear((y,), 6) == exp_linear((x + y,), 6)


def test_ring_op_mismatch_errors():
    with pytest.raises(ValueError):
        one(1, 2) + one(2, 2)
    with pytest.raises(ValueError):
        one(1, 2) + one(1, 3)
    with pytest.raises(ValueError):
        one(1, 2) * one(1, 3)


def test_deriv():
    sq = TruncatedSeries.monomial(1, 3, (2,))
    assert sq.deriv(1) == series(1, 2, {(1,): 2})
    assert not one(1, 3).deriv(1)
    x = F(5, 7)
    f = from_sequence(geometric(x, 5), 5)
    assert f.deriv(1) == exp_linear((x,), 4).scale(x)
    with pytest.raises(ValueError):
        f.deriv(2)


def test_mul_var_truncation_contract():
    assert one(1, 3).mul_var(1) == TruncatedSeries.monomial(1, 3, (1,))
    top = TruncatedSeries.monomial(1, 3, (3,))
    assert not top.mul_var(1)
    # canonical commutator [d, X] = 1 on a generic series, up to D - 1
    f = series(1, 3, {(0,): 2, (1,): F(1, 3), (2,): -5, (3,): F(7, 2)})
    lhs = f.mul_var(1).deriv(1) - f.deriv(1).mul_var(1)
    assert lhs == f.truncate(2)


def test_exp_linear_values():
    assert exp_linear((0, 0), 4) == one(2, 4)
    assert exp_linear((1,), 2) == series(1, 2, {(0,): 1, (1,): 1, (2,): F(1, 2)})
    assert exp_linear((1, 1), 5) == from_sequence(ones(2, 5), 5)


def test_subst_linear_examples():
    f = series(1, 2, {(0,): 1, (1,): 1, (2,): F(1, 2)})
    assert subst_linear(f, [(1,)]) == f
    assert subst_linear(f, [(-1,)]) == series(1, 2, {(0,): 1, (1,): -1, (2,): F(1, 2)})
    sq = TruncatedSeries.monomial(1, 2, (2,))
    assert subst_linear(sq, [(1, -1)]) == series(
        2, 2, {(2, 0): 1, (1, 1): -2, (0, 2): 1}
    )
    with pytest.raises(ValueError):
        subst_linear(f, [(1,), (0,)])


def test_subst_linear_at_degree_zero():
    # the forms' degree-1 terms lie above bound 0, so only the constant survives
    assert subst_linear(one(1, 0), [(1,)]) == one(1, 0)
    constant = series(2, 0, {(0, 0): F(-3, 4)})
    image = subst_linear(constant, [(1, 2, 0), (0, -1, 5)])
    assert image.nvars == 3 and image.degree_bound == 0
    assert list(image.terms()) == [((0, 0, 0), F(-3, 4))]


def test_negate_vars_matches_substitution():
    rng = Random(0)
    f = window(zero_extension(random_table(rng, 2, 4)), 2, 4)
    assert negate_vars(f) == subst_linear(f, [(-1, 0), (0, -1)])


def test_nabla_series_closed_forms():
    assert nabla_series(one(1, 5)) == exp_linear((1,), 5)
    x = F(2, 7)
    assert nabla_series(exp_linear((x,), 6)) == exp_linear((1 - x,), 6)


def test_nabla_series_matches_sequence_transform():
    rng = Random(1)
    for arity in (1, 2):
        table = random_table(rng, arity, 7)
        f = from_sequence(table, 6)
        assert nabla_series(f) == window(nabla(zero_extension(table)), arity, 6)
        assert nabla_series(nabla_series(f)) == f


def test_xi_apply_annihilates_matching_exponential():
    x = F(3, 4)
    assert not xi_apply(exp_linear((x,), 6), (x,))


def test_xi_apply_euler_operator():
    for k in range(4):
        mono = TruncatedSeries.monomial(1, 4, (k,))
        assert xi_apply(mono, (0,)) == mono.scale(k)


def test_xi_apply_matches_operator_composite():
    rng = Random(2)
    f = from_sequence(random_table(rng, 2, 7), 6)
    xvec = (F(1, 2), F(-2, 3))
    composite = TruncatedSeries.zero(2, 5)
    for i in (1, 2):
        composite = composite + f.deriv(i).mul_var(i)
        composite = composite - f.mul_var(i).truncate(5).scale(xvec[i - 1])
    assert xi_apply(f, xvec).truncate(5) == composite


def test_xi_apply_depth_reduction_step():
    rng = Random(3)
    spec = NestedSumSpec(
        ((F(1, 2), F(-1, 3)), (F(2), F(1, 5))), (F(3, 2),)
    )
    f = window(c_sequence(spec), 2, 5)
    stepped = xi_apply(f, (F(1, 2), F(2))) + f.scale(F(3, 2))
    assert stepped == window(c_sequence(spec.reduce_depth()), 2, 5)


def test_two_block_series_slices():
    rng = Random(4)
    table = random_table(rng, 1, 7)
    big = F_from_sequence(table, 6)
    f = from_sequence(table, 6)
    inverted = window(nabla(zero_extension(table)), 1, 6)
    # Y = 0 slice keeps exponents (n, 0); X = 0 slice keeps (0, k)
    for n in range(7):
        assert big.coefficient((n, 0)) == f.coefficient((n,))
        assert big.coefficient((0, n)) == inverted.coefficient((n,))


def test_two_block_series_constant_sequence():
    big = F_from_sequence(ones(1, 5), 5)
    # all difference coefficients with k >= 1 vanish
    assert big == subst_linear(exp_linear((1,), 5), [(1, 0)])


def test_series_terms_graded_lex():
    f = series(2, 2, {(1, 1): F(-1, 2), (0, 0): 3, (1, 0): 1})
    assert list(f.terms()) == [((0, 0), F(3)), ((1, 0), F(1)), ((1, 1), F(-1, 2))]


def test_truncate_contract():
    f = series(1, 4, {(0,): 1, (3,): 2, (4,): -1})
    cut = f.truncate(3)
    assert cut.degree_bound == 3
    assert cut.coefficient((3,)) == 2 and cut.coefficient((4,)) == 0
    with pytest.raises(ValueError):
        f.truncate(5)


def test_operator_suite_smaller_degree():
    report = verify_operator_suite(degree=4, seed=3)
    assert report.ok
    identities = {comp.identity for comp in report.comparisons}
    assert identities == {
        "two-block-factorization",
        "inversion-swaps-blocks",
        "shift-annihilates-two-block",
        "inversion-closed-form",
        "inversion-involution",
        "inversion-conjugates-mul",
        "inversion-conjugates-deriv",
        "inversion-conjugates-xi",
        "commutator-reduction",
        "nested-sum-duality",
        "depth-reduction-step",
        "telescoped-depth-reduction",
    }


def test_operator_suite_guard():
    assert suite_product_pairs(6, 2) == math.comb(10, 4) ** 2 == 44_100
    assert verify_operator_suite(degree=2, seed=1, guard=suite_product_pairs(2, 2)).ok
    with pytest.raises(GuardExceeded) as info:
        verify_operator_suite(degree=2, seed=1, guard=suite_product_pairs(2, 2) - 1)
    assert info.value.what == "series product term pairs"
    # the default guard leaves every degree up to 6 alone
    assert suite_product_pairs(6, 2) <= 10**7


def test_public_constructor_still_validates():
    # operator results skip the checks (TruncatedSeries._trusted); callers do not
    with pytest.raises(ValueError, match="bad exponent vector"):
        TruncatedSeries(2, 3, {(1, -1): 1})
    with pytest.raises(ValueError, match="bad exponent vector"):
        TruncatedSeries(2, 3, {(1,): 1})
    with pytest.raises(ValueError, match="exceeds degree bound 3"):
        TruncatedSeries(2, 3, {(2, 2): F(1, 2)})
    assert TruncatedSeries(1, 2, {(1,): 3}).coefficient((1,)) == F(3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TruncatedSeries(0, 3),
        lambda: exponent_vectors(0, 3),
        lambda: exp_linear((), 3),
        lambda: subst_linear(series(1, 3, {(1,): 1}), [()]),
    ],
    ids=["constructor", "exponent_vectors", "exp_linear", "subst_linear"],
)
def test_zero_variables_are_refused(build):
    with pytest.raises(ValueError, match="positive"):
        build()


def test_operator_results_drop_zero_coefficients():
    f = series(2, 3, {(0, 0): 1, (1, 0): F(1, 2), (1, 1): -3})
    g = series(2, 3, {(0, 0): -1, (1, 0): F(1, 2)})
    assert list((f + g).terms()) == [((1, 0), F(1)), ((1, 1), F(-3))]
    for zero in (f - f, f.scale(0), xi_apply(exp_linear((F(2, 3), 1), 3), (F(2, 3), 1))):
        assert not zero and list(zero.terms()) == []


@st.composite
def sequence_windows(draw):
    arity, degree = draw(st.integers(1, 2)), draw(st.integers(0, 6))
    shape = (degree + 1,) * arity
    values = draw(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            min_size=math.prod(shape),
            max_size=math.prod(shape),
        )
    )
    return MultiSequenceTable(shape, tuple(values)), degree


@settings(max_examples=60, deadline=None)
@given(sequence_windows())
def test_two_block_difference_table_matches_pointwise_differences(case):
    table, degree = case
    r, a = table.arity, zero_extension(table)
    big = F_from_sequence(table, degree)
    for exponents in exponent_vectors(2 * r, degree):
        n, k = exponents[:r], exponents[r:]
        weight = math.prod(math.factorial(e) for e in exponents)
        assert big.coefficient(exponents) == iterated_delta(a, k, n) / weight


# x: zero, integers and proper fractions; t: off {0, -1, -2, ...}, negative
# non-integers included
window_x = st.one_of(
    st.just(F(0)),
    st.integers(-4, 4).map(F),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)
window_t = st.one_of(
    st.integers(-9, -1).map(lambda a: F(2 * a - 1, 2)),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(
        lambda t: t.denominator > 1 or t > 0
    ),
)


@st.composite
def nested_sum_windows(draw):
    r, p = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    xblocks = tuple(tuple(draw(window_x) for _ in range(p)) for _ in range(r))
    tparams = tuple(draw(window_t) for _ in range(p - 1))
    return NestedSumSpec(xblocks, tparams), draw(st.integers(0, 5))


@settings(max_examples=60, deadline=None)
@given(nested_sum_windows())
def test_window_from_one_fill_matches_chain_enumeration(case):
    spec, degree = case
    table = RecurrenceEvaluator(spec).table((degree + 1,) * spec.r)
    assert from_sequence(table, degree) == window(c_sequence(spec), spec.r, degree)


def test_operator_suite_fails_depth_reduction_on_a_corrupted_fill(monkeypatch):
    corrupted = []

    class Corrupting(RecurrenceEvaluator):
        def table(self, extents):
            out = super().table(extents)
            # the first depth-2 fill is f = c[x|t] of the r = 1, p = 2 spec
            if self.spec.p != 2 or corrupted:
                return out
            corrupted.append(self.spec.text())
            values = list(out.values)
            values[2] += 1  # index (2,), inside the degree-4 window
            return MultiSequenceTable(out.shape, tuple(values))

    monkeypatch.setattr(egf, "RecurrenceEvaluator", Corrupting)
    report = verify_operator_suite(degree=4, seed=3)
    assert not report.ok
    failed = {(comp.identity, comp.spec) for comp in report.failures}
    label = f"r=1 seed=3 D=4 {corrupted[0]}"
    assert ("depth-reduction-step", label) in failed
    # only that spec's windows are wrong
    assert {spec for _, spec in failed} == {label}


def test_operator_suite_enumerates_every_reduced_window(monkeypatch):
    # the reduced side of depth reduction is chain enumeration, point by point
    calls = []
    c_direct = egf.c_direct

    def recording(spec, n, *guard):
        calls.append((spec.text(), spec.r, n))
        return c_direct(spec, n, *guard)

    monkeypatch.setattr(egf, "c_direct", recording)
    degree = 3
    assert verify_operator_suite(degree=degree, seed=5).ok
    windows = {}
    for text, r, n in calls:
        windows.setdefault((text, r), []).append(n)
    # one reduced spec per (r, p) with p = 2, 3, each over its whole window
    assert sorted(r for _, r in windows) == [1, 1, 2, 2]
    for (_, r), points in windows.items():
        assert sorted(points) == sorted(exponent_vectors(r, degree))


# --- the integer kernel against the Fraction-per-pair reference -------------


def reference_mul(f, g):
    """Truncated product with one Fraction product and sum per term pair."""
    coeffs = {}
    for e1, c1 in f.terms():
        for e2, c2 in g.terms():
            if sum(e1) + sum(e2) <= f.degree_bound:
                key = tuple(a + b for a, b in zip(e1, e2))
                coeffs[key] = coeffs.get(key, F(0)) + c1 * c2
    return TruncatedSeries(f.nvars, f.degree_bound, coeffs)


def reference_subst_linear(f, rows):
    """Term by term: c X^e becomes c prod_i form_i^e_i, each product in Fractions."""
    nvars_out, bound = len(rows[0]), f.degree_bound
    units = [tuple(int(j == pos) for pos in range(nvars_out)) for j in range(nvars_out)]
    forms = [TruncatedSeries(nvars_out, bound, dict(zip(units, row)) if bound else {})
             for row in rows]
    out = TruncatedSeries.zero(nvars_out, bound)
    for exponents, coeff in f.terms():
        image = one(nvars_out, bound)
        for form, e in zip(forms, exponents):
            for _ in range(e):
                image = reference_mul(image, form)
        out = out + image.scale(coeff)
    return out


def same_terms(got, want):
    """Equal bound and equal terms, including any a wrong kernel put above the bound."""
    return (got.nvars, got.degree_bound, list(got.terms())) == (
        want.nvars, want.degree_bound, list(want.terms())
    )


# zero, signed integers and small fractions, and large pairwise-coprime
# (prime) denominators
LARGE_PRIMES = (1_000_003, 998_244_353, 2**61 - 1, 2**89 - 1)
kernel_coefficients = st.one_of(
    st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(F, st.integers(-(10**12), 10**12), st.sampled_from(LARGE_PRIMES)),
)


def sparse_series(nvars, bound):
    return st.dictionaries(
        st.sampled_from(list(exponent_vectors(nvars, bound))), kernel_coefficients, max_size=12
    ).map(lambda coeffs: TruncatedSeries(nvars, bound, coeffs))


@st.composite
def series_products(draw):
    nvars, bound = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    return draw(sparse_series(nvars, bound)), draw(sparse_series(nvars, bound))


@st.composite
def linear_substitutions(draw):
    nvars, nvars_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    bound = draw(st.integers(0, 6))
    row = st.lists(kernel_coefficients, min_size=nvars_out, max_size=nvars_out)
    rows = draw(st.lists(row, min_size=nvars, max_size=nvars))
    return draw(sparse_series(nvars, bound)), rows


@settings(max_examples=100, deadline=None)
@given(series_products())
def test_product_matches_fraction_reference(case):
    f, g = case
    assert same_terms(f * g, reference_mul(f, g))


@settings(max_examples=100, deadline=None)
@given(linear_substitutions())
def test_substitution_matches_fraction_reference(case):
    f, rows = case
    assert same_terms(subst_linear(f, rows), reference_subst_linear(f, rows))


def test_kernel_examples():
    # a product at exactly the bound, over two coprime denominators
    f = series(2, 3, {(0, 0): F(1, 3), (1, 0): F(-2, 5), (2, 1): 7})
    g = series(2, 3, {(0, 0): F(3, 7), (0, 1): F(1, 2), (1, 2): F(-5, 11)})
    assert same_terms(f * g, series(2, 3, {
        (0, 0): F(1, 7), (0, 1): F(1, 6), (1, 0): F(-6, 35), (1, 1): F(-1, 5),
        (1, 2): F(-5, 33), (2, 1): 3,
    }))
    assert same_terms(f * TruncatedSeries.zero(2, 3), TruncatedSeries.zero(2, 3))
    # non-integer rows: X -> Z/2 + W/3, Y -> -Z/5 on c_0 + c_1 X + c_2 X Y
    h = series(2, 2, {(0, 0): F(1, 4), (1, 0): 6, (1, 1): F(-10, 3)})
    image = subst_linear(h, [(F(1, 2), F(1, 3)), (F(-1, 5), 0)])
    assert same_terms(image, series(2, 2, {
        (0, 0): F(1, 4), (1, 0): 3, (0, 1): 2, (2, 0): F(1, 3), (1, 1): F(2, 9),
    }))


def test_nabla_series_is_a_series_product(monkeypatch):
    # nabla_series is checked against binomial_transform, so it must not use it
    def refuse(table):
        raise AssertionError("nabla_series called binomial_transform")

    monkeypatch.setattr(egf, "binomial_transform", refuse)
    assert nabla_series(exp_linear((F(2, 7),), 5)) == exp_linear((F(5, 7),), 5)
