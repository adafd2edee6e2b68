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
    from_sequence,
    nabla_series,
    negate_vars,
    subst_linear,
    verify_operator_suite,
    xi_apply,
)
from mhscalc.guards import GuardExceeded, suite_product_pairs
from mhscalc.multiseq import MultiSequenceTable
from mhscalc.nestedsums import NestedSumSpec, RecurrenceEvaluator, random_table
from pointwise import c_sequence, iterated_delta, nabla, tabulate, zero_extension


def geometric(x, degree):
    """The table of x^n over 0 <= n <= degree."""
    x = F(x)
    return tabulate(lambda idx: x ** idx[0], (degree + 1,))


def one(nvars, degree):
    """The constant series 1."""
    return TruncatedSeries(nvars, degree, {(0,) * nvars: 1})


def ones(arity, degree):
    return tabulate(lambda idx: 1, (degree + 1,) * arity)


def window(a, arity, degree):
    """The EGF window of a sequence given as a callable on index tuples."""
    return from_sequence(tabulate(a, (degree + 1,) * arity), degree)


def series(nvars, bound, entries):
    return TruncatedSeries(nvars, bound, {tuple(e): F(c) for e, c in entries.items()})


def exponent_vectors(nvars, bound):
    return egf._Space(nvars, bound).vectors


def exp_linear(coefficients, bound):
    return egf._exp_linear(coefficients, bound, egf._Space(len(coefficients), bound))


def coefficient(f, exponents):
    return dict(f.terms()).get(tuple(exponents), F(0))


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


def recursive_exponent_vectors(nvars, bound):
    """`exponent_vectors` as a recursive generator, as it was before its list form."""

    def compositions(total, length):
        if length == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, length - 1):
                yield (head,) + rest

    return (e for total in range(bound + 1) for e in compositions(total, nvars))


@pytest.mark.parametrize("nvars", range(1, 7))
def test_exponent_vectors_match_the_recursive_reference(nvars):
    longest, sizes = exponent_vectors(nvars, 8), egf._Space(nvars, 8).sizes
    for bound in range(9):
        vectors = exponent_vectors(nvars, bound)
        assert isinstance(vectors, list)
        assert vectors == list(recursive_exponent_vectors(nvars, bound))
        # every lower bound is a prefix of the list at a higher one
        assert vectors == longest[:math.comb(nvars + bound, nvars)]
        assert longest[:sizes[bound]] == vectors


def test_series_normalization_and_equality():
    f = series(1, 3, {(1,): 2, (2,): 0})
    assert coefficient(f, (2,)) == 0
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
    x = TruncatedSeries(1, 2, {(1,): 1})
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
    sq = TruncatedSeries(1, 3, {(2,): 1})
    assert sq.deriv(1) == series(1, 2, {(1,): 2})
    assert not one(1, 3).deriv(1)
    x = F(5, 7)
    f = from_sequence(geometric(x, 5), 5)
    assert f.deriv(1) == exp_linear((x,), 4).scale(x)
    with pytest.raises(ValueError):
        f.deriv(2)


def test_mul_var_truncation_contract():
    assert one(1, 3).mul_var(1) == TruncatedSeries(1, 3, {(1,): 1})
    top = TruncatedSeries(1, 3, {(3,): 1})
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
    sq = TruncatedSeries(1, 2, {(2,): 1})
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
    f = window(zero_extension(random_table(rng, (4, 4))), 2, 4)
    assert negate_vars(f) == subst_linear(f, [(-1, 0), (0, -1)])


def test_nabla_series_closed_forms():
    assert nabla_series(one(1, 5)) == exp_linear((1,), 5)
    x = F(2, 7)
    assert nabla_series(exp_linear((x,), 6)) == exp_linear((1 - x,), 6)


def test_nabla_series_matches_sequence_transform():
    rng = Random(1)
    for arity in (1, 2):
        table = random_table(rng, (7,) * arity)
        f = from_sequence(table, 6)
        assert nabla_series(f) == window(nabla(zero_extension(table)), arity, 6)
        assert nabla_series(nabla_series(f)) == f


def test_xi_apply_annihilates_matching_exponential():
    x = F(3, 4)
    assert not xi_apply(exp_linear((x,), 6), (x,))


def test_xi_apply_euler_operator():
    for k in range(4):
        mono = TruncatedSeries(1, 4, {(k,): 1})
        assert xi_apply(mono, (0,)) == mono.scale(k)


def test_xi_apply_matches_operator_composite():
    rng = Random(2)
    f = from_sequence(random_table(rng, (7, 7)), 6)
    xvec = (F(1, 2), F(-2, 3))
    composite = TruncatedSeries(2, 5)
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
    table = random_table(rng, (7,))
    big = F_from_sequence(table, 6)
    f = from_sequence(table, 6)
    inverted = window(nabla(zero_extension(table)), 1, 6)
    # Y = 0 slice keeps exponents (n, 0); X = 0 slice keeps (0, k)
    for n in range(7):
        assert coefficient(big, (n, 0)) == coefficient(f, (n,))
        assert coefficient(big, (0, n)) == coefficient(inverted, (n,))


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
    assert coefficient(cut, (3,)) == 2 and coefficient(cut, (4,)) == 0
    with pytest.raises(ValueError):
        f.truncate(5)


def test_operator_suite_smaller_degree():
    report = verify_operator_suite(degree=4, seed=3)
    assert report.ok
    identities = {row[0] for row in report.comparisons}
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
    assert coefficient(TruncatedSeries(1, 2, {(1,): 3}), (1,)) == F(3)


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TruncatedSeries(1, -1), "degree bound must be a natural, got -1"),
        (lambda: one(1, 0).deriv(1), "cannot differentiate a degree-0 window"),
        (lambda: xi_apply(one(2, 3), (1,)), "need 2 parameters, got 1"),
    ],
    ids=["negative bound", "deriv at bound 0", "xi_apply arity"],
)
def test_malformed_series_input_is_refused(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
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
        assert coefficient(big, exponents) == iterated_delta(a, k, n) / weight


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
    failed = {(identity, label) for identity, label, *_, equal in report.comparisons if not equal}
    label = f"r=1 seed=3 D=4 {corrupted[0]}"
    assert ("depth-reduction-step", label) in failed
    # only that spec's windows are wrong
    assert {spec for _, spec in failed} == {label}


def test_operator_suite_enumerates_every_reduced_window(monkeypatch):
    # the reduced side of depth reduction is chain enumeration, one window per spec
    calls = []
    direct_window = egf.direct_window

    def recording(spec, points, *guard):
        calls.append((spec.r, list(points)))
        return direct_window(spec, points, *guard)

    monkeypatch.setattr(egf, "direct_window", recording)
    degree = 3
    assert verify_operator_suite(degree=degree, seed=5).ok
    # one reduced spec per (r, p) with p = 2, 3, each over its whole window
    assert sorted(r for r, _ in calls) == [1, 1, 2, 2]
    for r, points in calls:
        assert points == exponent_vectors(r, degree)


# --- the int form against Fraction-dict references -------------------------


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
    out = TruncatedSeries(nvars_out, bound)
    for exponents, coeff in f.terms():
        image = one(nvars_out, bound)
        for form, e in zip(forms, exponents):
            for _ in range(e):
                image = reference_mul(image, form)
        out = out + image.scale(coeff)
    return out


def shifted(e, pos, by):
    """e with its entry at pos moved by `by`."""
    return e[:pos] + (e[pos] + by,) + e[pos + 1:]


def reference_add(f, g):
    coeffs = dict(f.terms())
    for e, c in g.terms():
        coeffs[e] = coeffs.get(e, F(0)) + c
    return TruncatedSeries(f.nvars, f.degree_bound, coeffs)


def reference_scale(f, factor):
    return TruncatedSeries(f.nvars, f.degree_bound, {e: c * factor for e, c in f.terms()})


def reference_truncate(f, bound):
    return TruncatedSeries(f.nvars, bound, {e: c for e, c in f.terms() if sum(e) <= bound})


def reference_deriv(f, var):
    """Coefficient at X^e: (e_i + 1) f_{e + e_i}."""
    coeffs, pos = dict(f.terms()), var - 1
    return TruncatedSeries(f.nvars, f.degree_bound - 1, {
        e: (e[pos] + 1) * coeffs.get(shifted(e, pos, 1), F(0))
        for e in exponent_vectors(f.nvars, f.degree_bound - 1)
    })


def reference_mul_var(f, var):
    """Coefficient at X^e: f_{e - e_i} where e_i > 0."""
    coeffs, pos = dict(f.terms()), var - 1
    return TruncatedSeries(f.nvars, f.degree_bound, {
        e: coeffs.get(shifted(e, pos, -1), F(0))
        for e in exponent_vectors(f.nvars, f.degree_bound) if e[pos]
    })


def reference_negate_vars(f):
    return TruncatedSeries(f.nvars, f.degree_bound, {e: (-1) ** sum(e) * c for e, c in f.terms()})


def reference_xi_apply(f, x):
    """Coefficient at X^e: |e| f_e - sum_i x_i f_{e - e_i} over the i with e_i > 0."""
    coeffs = dict(f.terms())
    return TruncatedSeries(f.nvars, f.degree_bound, {
        e: sum(e) * coeffs.get(e, F(0)) - sum(
            xi * coeffs.get(shifted(e, i, -1), F(0)) for i, xi in enumerate(x) if e[i]
        )
        for e in exponent_vectors(f.nvars, f.degree_bound)
    })


def reference_window(values, nvars, bound):
    """Coefficient at X^n: values(n) / n!, one Fraction division each."""
    return TruncatedSeries(nvars, bound, {
        n: F(values(n)) / math.prod(map(math.factorial, n))
        for n in exponent_vectors(nvars, bound)
    })


def reference_exp_linear(cvec, bound):
    """The window of n -> prod_i c_i^n_i, powers taken in Fractions."""
    return reference_window(
        lambda n: math.prod(F(c) ** k for c, k in zip(cvec, n)), len(cvec), bound
    )


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


# stored denominators above the lcm of the coefficients' denominators, as
# operator results may keep them
PADDINGS = (1, 6, LARGE_PRIMES[0])


def padded(f, pad):
    """f with its stored denominator and numerators multiplied by pad."""
    return f.scale(pad).scale(F(1, pad))


def sparse_series(nvars, bound):
    coeffs = st.dictionaries(
        st.sampled_from(list(exponent_vectors(nvars, bound))), kernel_coefficients, max_size=12
    )
    return st.builds(
        lambda coeffs, pad: padded(TruncatedSeries(nvars, bound, coeffs), pad),
        coeffs,
        st.sampled_from(PADDINGS),
    )


def some_series():
    return st.tuples(st.integers(1, 4), st.integers(0, 6)).flatmap(
        lambda shape: sparse_series(*shape)
    )


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


@settings(max_examples=100, deadline=None)
@given(series_products(), kernel_coefficients)
def test_linear_operations_match_fraction_references(case, factor):
    f, g = case
    assert same_terms(f + g, reference_add(f, g))
    assert same_terms(f - g, reference_add(f, reference_scale(g, -1)))
    assert same_terms(f.scale(factor), reference_scale(f, factor))
    assert same_terms(negate_vars(f), reference_negate_vars(f))
    for bound in range(f.degree_bound + 1):
        assert same_terms(f.truncate(bound), reference_truncate(f, bound))


@settings(max_examples=100, deadline=None)
@given(some_series(), st.data())
def test_variable_operators_match_fraction_references(f, data):
    var = data.draw(st.integers(1, f.nvars))
    x = data.draw(st.lists(kernel_coefficients, min_size=f.nvars, max_size=f.nvars))
    assert same_terms(f.mul_var(var), reference_mul_var(f, var))
    assert same_terms(xi_apply(f, x), reference_xi_apply(f, x))
    if f.degree_bound:
        assert same_terms(f.deriv(var), reference_deriv(f, var))


@settings(max_examples=60, deadline=None)
@given(st.lists(kernel_coefficients, min_size=1, max_size=3), st.integers(0, 6))
def test_exp_linear_matches_fraction_reference(cvec, bound):
    assert same_terms(exp_linear(cvec, bound), reference_exp_linear(cvec, bound))


@st.composite
def kernel_tables(draw):
    arity, degree = draw(st.integers(1, 2)), draw(st.integers(0, 5))
    shape = (degree + 1,) * arity
    size = math.prod(shape)
    values = draw(st.lists(kernel_coefficients, min_size=size, max_size=size))
    return MultiSequenceTable(shape, tuple(values)), degree


@settings(max_examples=60, deadline=None)
@given(kernel_tables())
def test_egf_windows_match_fraction_references(case):
    table, degree = case
    r, a = table.arity, zero_extension(table)
    assert same_terms(from_sequence(table, degree), reference_window(a, r, degree))
    assert same_terms(
        F_from_sequence(table, degree),
        reference_window(lambda e: iterated_delta(a, e[r:], e[:r]), 2 * r, degree),
    )


@settings(max_examples=100, deadline=None)
@given(some_series(), st.sampled_from(PADDINGS[1:] + LARGE_PRIMES))
def test_equal_values_over_different_denominators_compare_equal(f, pad):
    g = padded(f, pad)
    assert g._den == f._den * pad
    assert f == g and g == f and same_terms(f, g)
    # equality cross-multiplies, so a changed coefficient still shows
    nudge = TruncatedSeries(f.nvars, f.degree_bound, {(0,) * f.nvars: F(1, pad)})
    assert f + nudge != g and g != f + nudge
    # and it compares up to the smaller bound over either denominator
    assert g.truncate(0) == f and f == g.truncate(0)


def test_kernel_examples():
    # a product at exactly the bound, over two coprime denominators
    f = series(2, 3, {(0, 0): F(1, 3), (1, 0): F(-2, 5), (2, 1): 7})
    g = series(2, 3, {(0, 0): F(3, 7), (0, 1): F(1, 2), (1, 2): F(-5, 11)})
    assert same_terms(f * g, series(2, 3, {
        (0, 0): F(1, 7), (0, 1): F(1, 6), (1, 0): F(-6, 35), (1, 1): F(-1, 5),
        (1, 2): F(-5, 33), (2, 1): 3,
    }))
    assert same_terms(f * TruncatedSeries(2, 3), TruncatedSeries(2, 3))
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


# --- graded spaces: codes, positions shared across bounds, edge positions ---


@pytest.mark.parametrize("nvars", range(1, 5))
def test_space_codes_are_additive_and_map_back_to_positions(nvars):
    for bound in range(9):
        space = egf._Space(nvars, bound)
        vectors = exponent_vectors(nvars, bound)
        assert space.vectors == vectors
        assert space.codes == [space.code(v) for v in vectors]
        assert [space.pos[code] for code in space.codes] == list(range(len(vectors)))
        assert space.degrees == [sum(v) for v in vectors]
        assert space.sizes == [math.comb(nvars + b, nvars) for b in range(bound + 1)]
        assert space.factorials == [math.prod(map(math.factorial, v)) for v in vectors]
        for v, degree in zip(vectors, space.degrees):
            for w in vectors[: space.sizes[bound - degree]]:
                total = tuple(a + b for a, b in zip(v, w))
                assert space.code(v) + space.code(w) == space.code(total)
                assert vectors[space.pos[space.code(total)]] == total


@pytest.mark.parametrize("degree", [5, 6])
def test_operator_suite_builds_four_spaces(monkeypatch, degree):
    # f_a's space in r variables and one in 2r variables, for r = 1 and r = 2
    builds = []

    class Counting(egf._Space):
        def __init__(self, nvars, bound):
            builds.append((nvars, bound))
            super().__init__(nvars, bound)

    monkeypatch.setattr(egf, "_Space", Counting)
    assert verify_operator_suite(degree=degree, seed=4).ok
    assert builds == [(1, degree), (2, degree), (2, degree), (4, degree)]


@settings(max_examples=60, deadline=None)
@given(sequence_windows(), st.integers(0, 2), st.integers(0, 2), st.data())
def test_constructors_in_passed_spaces_match_their_own(case, extra, wide_extra, data):
    # spaces at the bound or above, the two of F_from_sequence at independent bounds
    table, degree = case
    r = table.arity
    half, whole = egf._Space(r, degree + extra), egf._Space(2 * r, degree + wide_extra)
    f = from_sequence(table, degree, space=half)
    assert f._space is half and same_terms(f, from_sequence(table, degree))
    big = F_from_sequence(table, degree, space=(half, whole))
    assert big._space is whole and same_terms(big, F_from_sequence(table, degree))
    row = st.lists(kernel_coefficients, min_size=2 * r, max_size=2 * r)
    rows = data.draw(st.lists(row, min_size=r, max_size=r))
    image = subst_linear(f, rows, space=whole)
    assert image._space is whole and same_terms(image, subst_linear(f, rows))


@pytest.mark.parametrize("build", [
    lambda table, space: from_sequence(table, 3, space=space(1, 3)),
    lambda table, space: F_from_sequence(table, 3, space=(space(1, 3), egf._Space(2, 3))),
    lambda table, space: F_from_sequence(table, 3, space=(egf._Space(1, 3), space(2, 3))),
    lambda table, space: subst_linear(from_sequence(table, 3), [[1, 1]], space=space(2, 3)),
], ids=["from_sequence", "F_from_sequence-r", "F_from_sequence-2r", "subst_linear"])
@pytest.mark.parametrize("wrong", [
    lambda nvars, bound: egf._Space(nvars + 1, bound),
    lambda nvars, bound: egf._Space(nvars, bound - 1),
], ids=["variable-count", "bound-below-D"])
def test_a_space_that_cannot_hold_the_series_is_refused(build, wrong):
    table = random_table(Random(5), (4,))
    with pytest.raises(ValueError, match="need a space of"):
        build(table, wrong)


@pytest.mark.parametrize("nvars", range(1, 5))
def test_nabla_series_exponential_is_the_all_ones_window(monkeypatch, nvars):
    # the inversion of 1 is e^{X_1 + ... + X_m}: the numerators and the
    # denominator of _exp_linear's window, built without calling it
    spaces = [egf._Space(nvars, bound) for bound in range(7)]
    wants = [egf._exp_linear((1,) * nvars, bound, space) for bound, space in enumerate(spaces)]

    def refuse(*args):
        raise AssertionError("nabla_series called _exp_linear")

    monkeypatch.setattr(egf, "_exp_linear", refuse)
    for bound, (space, want) in enumerate(zip(spaces, wants)):
        unit = TruncatedSeries._trusted(space, bound, 1, [1] + [0] * (space.sizes[bound] - 1))
        got = nabla_series(unit)
        assert (got._space, got._nums, got._den) == (space, want._nums, want._den)


@st.composite
def series_across_spaces(draw):
    """(own, shared): one series in its own space at bound b, one truncated
    to b from a space of bound B > b, in the same variables."""
    nvars, bound = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    wider = draw(st.integers(bound + 1, 6))
    own = draw(sparse_series(nvars, bound))
    shared = draw(sparse_series(nvars, wider)).truncate(bound)
    return own, shared


def reference_rows(f, g):
    """(index, lhs, rhs, equal) of each comparison row, read by coefficient."""
    return [
        (e, coefficient(f, e), coefficient(g, e), coefficient(f, e) == coefficient(g, e))
        for e in exponent_vectors(f.nvars, min(f.degree_bound, g.degree_bound))
    ]


@settings(max_examples=100, deadline=None)
@given(series_across_spaces())
def test_binary_operations_across_spaces_match_fraction_references(case):
    own, shared = case
    assert len(shared._space.codes) > len(own._space.codes)
    for f, g in ((own, shared), (shared, own)):
        assert same_terms(f + g, reference_add(f, g))
        assert same_terms(f - g, reference_add(f, reference_scale(g, -1)))
        assert same_terms(f * g, reference_mul(f, g))
        assert (f == g) == (list(f.terms()) == list(g.terms()))
        rows = egf._series_comparisons("identity", "label", f, g)
        assert [(row[2], F(row[3], row[4]), F(row[5], row[6]), row[7]) for row in rows] == (
            reference_rows(f, g)
        )


@settings(max_examples=100, deadline=None)
@given(series_across_spaces(), st.data())
def test_unary_operators_in_a_wider_space_match_fraction_references(case, data):
    _, f = case
    nvars_out = data.draw(st.integers(1, 4))
    row = st.lists(kernel_coefficients, min_size=nvars_out, max_size=nvars_out)
    rows = data.draw(st.lists(row, min_size=f.nvars, max_size=f.nvars))
    # into the same variable count the image reuses f's space, else a new one
    for target in (rows, [[int(i == j) for j in range(f.nvars)] for i in range(f.nvars)]):
        assert same_terms(subst_linear(f, target), reference_subst_linear(f, target))
    var = data.draw(st.integers(1, f.nvars))
    x = data.draw(st.lists(kernel_coefficients, min_size=f.nvars, max_size=f.nvars))
    assert same_terms(f.mul_var(var), reference_mul_var(f, var))
    assert same_terms(xi_apply(f, x), reference_xi_apply(f, x))
    assert same_terms(negate_vars(f), reference_negate_vars(f))
    exp_window = reference_exp_linear((1,) * f.nvars, f.degree_bound)
    assert same_terms(nabla_series(f), reference_mul(reference_negate_vars(f), exp_window))
    if f.degree_bound:
        assert same_terms(f.deriv(var), reference_deriv(f, var))


@st.composite
def zero_beside_a_higher_entry(draw):
    """A series whose first term has e_i = 0 beside some e_j > 0, j > i, and that i.

    X_(i+1) X^e sits at code(e) + (D + 1)^i; subtracting that step from
    code(e) instead borrows from the higher entry and lands on another
    valid vector, so a kernel that reads X^(e - e_i) there is wrong.
    """
    nvars, bound = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    axis = draw(st.integers(0, nvars - 2))
    candidates = [
        e for e in exponent_vectors(nvars, bound) if e[axis] == 0 and any(e[axis + 1:])
    ]
    e = draw(st.sampled_from(candidates))
    coeffs = draw(st.dictionaries(
        st.sampled_from(exponent_vectors(nvars, bound)), kernel_coefficients, max_size=6
    ))
    coeffs[e] = draw(kernel_coefficients.filter(bool))
    wider = draw(st.integers(bound, bound + 2))
    return TruncatedSeries(nvars, wider, coeffs).truncate(bound), axis + 1


@settings(max_examples=100, deadline=None)
@given(zero_beside_a_higher_entry(), st.data())
def test_raising_a_zero_entry_does_not_borrow(case, data):
    f, var = case
    x = data.draw(st.lists(kernel_coefficients, min_size=f.nvars, max_size=f.nvars))
    assert same_terms(f.mul_var(var), reference_mul_var(f, var))
    assert same_terms(xi_apply(f, x), reference_xi_apply(f, x))
    assert same_terms(f.deriv(var), reference_deriv(f, var))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_bound_zero_series_match_fraction_references(nvars, data):
    f, g = data.draw(sparse_series(nvars, 0)), data.draw(sparse_series(nvars, 0))
    x = data.draw(st.lists(kernel_coefficients, min_size=nvars, max_size=nvars))
    assert same_terms(f * g, reference_mul(f, g))
    assert same_terms(f + g, reference_add(f, g))
    assert same_terms(f.mul_var(nvars), reference_mul_var(f, nvars))
    assert same_terms(xi_apply(f, x), reference_xi_apply(f, x))
    assert same_terms(subst_linear(f, [x] * nvars), reference_subst_linear(f, [x] * nvars))
    assert same_terms(exp_linear(x, 0), reference_exp_linear(x, 0))


# --- the suite's independent routes catch a broken fast kernel ---------------


def nudged(series):
    """The series with its constant coefficient raised by one."""
    nums = [series._nums[0] + series._den] + series._nums[1:]
    return TruncatedSeries._trusted(series._space, series.degree_bound, series._den, nums)


def failed_identities(report):
    return {row[0] for row in report.comparisons if not row[7]}


@pytest.mark.parametrize("owner,name,caught", [
    (TruncatedSeries, "__mul__", {"two-block-factorization", "inversion-closed-form"}),
    (egf, "subst_linear", {"two-block-factorization", "inversion-swaps-blocks"}),
    (TruncatedSeries, "deriv", {"shift-annihilates-two-block", "inversion-conjugates-deriv"}),
], ids=["product", "subst_linear", "deriv"])
def test_operator_suite_catches_a_broken_kernel(monkeypatch, owner, name, caught):
    kernel = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: nudged(kernel(*args, **kw)))
    report = verify_operator_suite(degree=3, seed=1)
    assert not report.ok
    assert caught <= failed_identities(report)
