import itertools
import json
import math
from fractions import Fraction as F
from random import Random

import pytest

from mhscalc.egf import (
    TruncatedSeries,
    F_from_sequence,
    exp_linear,
    exponent_vectors,
    from_sequence,
    nabla_series,
    negate_vars,
    random_table_rule,
    subst_linear,
    suite_product_pairs,
    verify_operator_suite,
    xi_apply,
)
from mhscalc.errors import GuardExceeded
from mhscalc.multiseq import SequenceRule, nabla
from mhscalc.nestedsums import NestedSumSpec, c_rule


def geometric(x):
    x = F(x)
    return SequenceRule(1, lambda idx: x ** idx[0])


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
    f = from_sequence(SequenceRule.constant(1, 1), 2)
    assert f == series(1, 2, {(0,): 1, (1,): 1, (2,): F(1, 2)})


def test_from_sequence_geometric_is_exp_linear():
    x = F(3, 5)
    assert from_sequence(geometric(x), 6) == exp_linear((x,), 6)


def test_from_sequence_delta_sequence_is_one():
    a = SequenceRule(1, lambda idx: F(1) if idx == (0,) else F(0))
    assert from_sequence(a, 4) == TruncatedSeries.one(1, 4)


def test_ring_identities():
    one = TruncatedSeries.one(1, 2)
    x = TruncatedSeries.monomial(1, 2, (1,))
    f = series(1, 2, {(0,): 3, (1,): F(1, 2), (2,): -1})
    assert f * one == f
    assert (one + x) * (one - x) == series(1, 2, {(0,): 1, (2,): -1})


def test_exp_linear_multiplicativity():
    x, y = F(2, 3), F(-1, 4)
    assert exp_linear((x,), 6) * exp_linear((y,), 6) == exp_linear((x + y,), 6)


def test_ring_op_mismatch_errors():
    with pytest.raises(ValueError):
        TruncatedSeries.one(1, 2) + TruncatedSeries.one(2, 2)
    with pytest.raises(ValueError):
        TruncatedSeries.one(1, 2) + TruncatedSeries.one(1, 3)
    with pytest.raises(ValueError):
        TruncatedSeries.one(1, 2) * TruncatedSeries.one(1, 3)


def test_deriv():
    sq = TruncatedSeries.monomial(1, 3, (2,))
    assert sq.deriv(1) == series(1, 2, {(1,): 2})
    assert not TruncatedSeries.one(1, 3).deriv(1)
    x = F(5, 7)
    f = from_sequence(geometric(x), 5)
    assert f.deriv(1) == exp_linear((x,), 4).scale(x)
    with pytest.raises(ValueError):
        f.deriv(2)


def test_mul_var_truncation_contract():
    one = TruncatedSeries.one(1, 3)
    assert one.mul_var(1) == TruncatedSeries.monomial(1, 3, (1,))
    top = TruncatedSeries.monomial(1, 3, (3,))
    assert not top.mul_var(1)
    # canonical commutator [d, X] = 1 on a generic series, up to D - 1
    f = series(1, 3, {(0,): 2, (1,): F(1, 3), (2,): -5, (3,): F(7, 2)})
    lhs = f.mul_var(1).deriv(1) - f.deriv(1).mul_var(1)
    assert lhs == f.truncate(2)


def test_exp_linear_values():
    assert exp_linear((0, 0), 4) == TruncatedSeries.one(2, 4)
    assert exp_linear((1,), 2) == series(1, 2, {(0,): 1, (1,): 1, (2,): F(1, 2)})
    assert exp_linear((1, 1), 5) == from_sequence(SequenceRule.constant(2, 1), 5)


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


def test_negate_vars_matches_substitution():
    rng = Random(0)
    f = from_sequence(random_table_rule(rng, 2, 4), 4)
    assert negate_vars(f) == subst_linear(f, [(-1, 0), (0, -1)])


def test_nabla_series_closed_forms():
    assert nabla_series(TruncatedSeries.one(1, 5)) == exp_linear((1,), 5)
    x = F(2, 7)
    assert nabla_series(exp_linear((x,), 6)) == exp_linear((1 - x,), 6)


def test_nabla_series_matches_sequence_transform():
    rng = Random(1)
    for arity in (1, 2):
        a = random_table_rule(rng, arity, 7)
        f = from_sequence(a, 6)
        assert nabla_series(f) == from_sequence(nabla(a), 6)
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
    f = from_sequence(random_table_rule(rng, 2, 7), 6)
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
    f = from_sequence(c_rule(spec), 5)
    stepped = xi_apply(f, (F(1, 2), F(2))) + f.scale(F(3, 2))
    assert stepped == from_sequence(c_rule(spec.reduce_depth()), 5)


def test_two_block_series_slices():
    rng = Random(4)
    a = random_table_rule(rng, 1, 7)
    big = F_from_sequence(a, 6)
    f = from_sequence(a, 6)
    inverted = from_sequence(nabla(a), 6)
    # Y = 0 slice keeps exponents (n, 0); X = 0 slice keeps (0, k)
    for n in range(7):
        assert big.coefficient((n, 0)) == f.coefficient((n,))
        assert big.coefficient((0, n)) == inverted.coefficient((n,))


def test_two_block_series_constant_sequence():
    big = F_from_sequence(SequenceRule.constant(1, 1), 5)
    # all difference coefficients with k >= 1 vanish
    assert big == subst_linear(exp_linear((1,), 5), [(1, 0)])


def test_series_json_dump_graded_lex():
    f = series(2, 2, {(1, 1): F(-1, 2), (0, 0): 3, (1, 0): 1})
    payload = json.loads(f.to_json())
    assert payload == {
        "nvars": 2,
        "degree_bound": 2,
        "terms": [
            {"exponents": [0, 0], "coeff": "3"},
            {"exponents": [1, 0], "coeff": "1"},
            {"exponents": [1, 1], "coeff": "-1/2"},
        ],
    }


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
