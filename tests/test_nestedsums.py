import itertools
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from mhscalc.errors import GuardExceeded
from mhscalc.kernel import format_rational, gen_binomial, multinomial
from mhscalc.multiseq import MultiSequenceTable
from mhscalc.nestedsums import (
    C_DUALITY_STATEMENT,
    DIFFERENCE_STATEMENT,
    SHIFT_STATEMENT,
    NestedSumSpec,
    RecurrenceEvaluator,
    c_direct,
    c_recursive,
    chain_count,
    direct_summand_count,
    enumerate_chains,
    kt_value,
    random_rational,
    random_shift,
    random_shift_configuration,
    random_spec,
    recurrence_cell_count,
    two_index_value,
    verify_difference_formula,
    verify_duality,
    verify_recurrence,
    verify_shift_identity,
)
from mhscalc.report import Comparison, VerificationReport
from pointwise import c_sequence, iterated_delta, nabla


def c_by_literal_product(spec, n):
    """The defining sum, written as the plain cross-product over chain tuples."""
    total = F(0)
    chains_per_slot = [list(enumerate_chains(ni, spec.p)) for ni in n]
    for combo in itertools.product(*chains_per_slot):
        numerator = F(1)
        for i, chain in enumerate(combo):
            nu = tuple(chain[j] - chain[j + 1] for j in range(spec.p - 1)) + (chain[-1],)
            numerator *= multinomial(n[i], nu)
            for j in range(spec.p):
                numerator *= spec.xblocks[i][j] ** nu[j]
        denominator = F(1)
        for j in range(spec.p - 1):
            col_m = sum(chain[j] for chain in combo)
            col_v = sum(chain[j] - chain[j + 1] for chain in combo)
            linear = col_m + spec.tparams[j]
            denominator *= gen_binomial(linear - 1, col_v) * linear
        total += numerator / denominator
    return total


# --- spec construction -------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        NestedSumSpec(((F(1), F(2)), (F(3),)), (F(1),))  # ragged blocks
    with pytest.raises(ValueError):
        NestedSumSpec(((F(1), F(2)),), ())  # missing shift
    with pytest.raises(ValueError):
        NestedSumSpec(((F(1),),), (F(1),))  # extra shift at depth 1
    for bad in (0, -1, -2, F(-7)):
        with pytest.raises(ValueError):
            NestedSumSpec(((F(1), F(2)),), (F(bad),))
    # negative non-integers are valid shifts
    NestedSumSpec(((F(1), F(2)),), (F(-3, 2),))


def test_spec_parse_and_text():
    spec = NestedSumSpec.parse("1/2,1/3;0,1", "2")
    assert spec.r == 2 and spec.p == 2
    assert spec.xblocks == ((F(1, 2), F(1, 3)), (F(0), F(1)))
    assert spec.tparams == (F(2),)
    assert spec.text() == "x=1/2,1/3;0,1 t=2"
    depth1 = NestedSumSpec.parse("5;-2/3")
    assert depth1.p == 1 and depth1.text() == "x=5;-2/3"


def test_reduce_depth():
    spec = NestedSumSpec(((F(1), F(2)),), (F(1, 2),))
    reduced = spec.reduce_depth()
    assert reduced.xblocks == ((F(2),),)
    assert reduced.tparams == ()
    deep = NestedSumSpec(
        (tuple(map(F, (1, 2, 3))), tuple(map(F, (4, 5, 6)))), (F(1), F(2))
    )
    assert deep.reduce_depth().p == 2
    assert len(deep.reduce_depth().tparams) == 1
    again = deep.reduce_depth().reduce_depth()
    assert again.p == 1
    with pytest.raises(ValueError):
        again.reduce_depth()


def test_one_minus():
    spec = NestedSumSpec(((F(0), F(1)),), (F(1),))
    assert spec.one_minus().xblocks == ((F(1), F(0)),)
    spec2 = NestedSumSpec(((F(1, 3), F(1, 2)),), (F(2),))
    assert spec2.one_minus().xblocks == ((F(2, 3), F(1, 2)),)
    assert spec2.one_minus().one_minus() == spec2


# --- chain enumeration --------------------------------------------------------


def test_enumerate_chains_small():
    assert list(enumerate_chains(1, 2)) == [(1, 1), (1, 0)]
    for p in (1, 2, 4):
        assert list(enumerate_chains(0, p)) == [(0,) * p]
    chains = list(enumerate_chains(2, 3))
    assert chains == [
        (2, 2, 2),
        (2, 2, 1),
        (2, 2, 0),
        (2, 1, 1),
        (2, 1, 0),
        (2, 0, 0),
    ]
    assert len(chains) == chain_count(2, 3) == 6


def test_enumerate_chains_order_and_count():
    for n, p in [(3, 2), (2, 4), (5, 3)]:
        chains = list(enumerate_chains(n, p))
        assert chains == sorted(chains, reverse=True)
        assert len(set(chains)) == len(chains) == chain_count(n, p)
        assert all(c[0] == n for c in chains)
        assert all(all(a >= b for a, b in zip(c, c[1:])) for c in chains)


def _recursive_chains(n, p):
    """The enumerator's order, spelled as the textbook recursion."""

    def tails(bound, length):
        if length == 0:
            yield ()
            return
        for head in range(bound, -1, -1):
            for rest in tails(head, length - 1):
                yield (head,) + rest

    return [(n,) + tail for tail in tails(n, p - 1)]


def test_enumerate_chains_matches_recursive_order():
    for n in range(9):
        for p in range(1, 6):
            assert list(enumerate_chains(n, p)) == _recursive_chains(n, p)


def test_enumerate_chains_guard():
    with pytest.raises(GuardExceeded):
        list(enumerate_chains(100, 5, chain_guard=1000))


def test_enumerate_chains_checks_at_the_call():
    # callers build their tables after the call, so no chain may be needed
    with pytest.raises(GuardExceeded):
        enumerate_chains(100, 5, chain_guard=1000)
    with pytest.raises(ValueError):
        enumerate_chains(-1, 2)


# --- direct evaluation ---------------------------------------------------------


def test_depth_one_is_monomial():
    spec = NestedSumSpec(((F(2),), (F(3),)), ())
    assert c_direct(spec, (2, 1)) == 12


def test_depth_two_at_origin_is_inverse_shift():
    spec = NestedSumSpec(((F(5), F(7)),), (F(1, 2),))
    assert c_direct(spec, (0,)) == 2


def test_depth_two_first_value():
    # c(1) = x1/(t(t+1)) + x2/(t+1)
    x1, x2, t = F(1), F(1), F(1)
    spec = NestedSumSpec(((x1, x2),), (t,))
    assert c_direct(spec, (1,)) == 1
    x1, x2, t = F(1, 2), F(1, 3), F(2)
    spec = NestedSumSpec(((x1, x2),), (t,))
    assert c_direct(spec, (1,)) == x1 / (t * (t + 1)) + x2 / (t + 1) == F(7, 36)


def test_direct_matches_literal_product():
    rng = Random(11)
    for _ in range(25):
        spec = random_spec(rng, 3, 3)
        n = tuple(rng.randint(0, 3) for _ in range(spec.r))
        assert c_direct(spec, n) == c_by_literal_product(spec, n)


def test_direct_guard_and_count():
    spec = NestedSumSpec(((F(1), F(2), F(3)),), (F(1), F(1)))
    assert direct_summand_count(spec, (40,)) == 861  # C(42, 2)
    with pytest.raises(GuardExceeded):
        c_direct(spec, (40,), summand_guard=800)


def test_direct_index_validation():
    spec = NestedSumSpec(((F(1),), (F(2),)), ())
    with pytest.raises(ValueError):
        c_direct(spec, (1,))
    with pytest.raises(ValueError):
        c_direct(spec, (1, -1))


# --- single-slot and two-slot normalizations -----------------------------------


def test_kt_small_values():
    assert kt_value((F(2), F(4)), 1) == 3  # (x1 + x2) / 2
    for x in [(F(1),), (F(1, 2), F(1, 3)), (F(0), F(1), F(2))]:
        assert kt_value(x, 0) == 1
    for n in range(5):
        assert kt_value((F(-2, 3),), n) == F(-2, 3) ** n


def test_kt_reduces_to_direct():
    rng = Random(12)
    for _ in range(20):
        p = rng.randint(1, 4)
        x = tuple(random_rational(rng) for _ in range(p))
        spec = NestedSumSpec((x,), (F(1),) * (p - 1))
        for n in range(5):
            assert kt_value(x, n) == c_direct(spec, (n,))


def test_two_index_small_values():
    x, y = (F(3),), (F(-2),)
    for n in range(3):
        for k in range(3):
            assert two_index_value(x, y, n, k) == F(3) ** n * F(-2) ** k
    x, y = (F(1, 2), F(5)), (F(7), F(-1, 3))
    assert two_index_value(x, y, 0, 0) == 1
    assert two_index_value(x, y, 1, 0) == (x[0] + x[1]) / 2


def test_two_index_reduces_to_direct():
    rng = Random(13)
    for _ in range(15):
        p = rng.randint(1, 3)
        x = tuple(random_rational(rng) for _ in range(p))
        y = tuple(random_rational(rng) for _ in range(p))
        spec = NestedSumSpec((x, y), (F(1),) * (p - 1))
        n, k = rng.randint(0, 4), rng.randint(0, 4)
        assert two_index_value(x, y, n, k) == c_direct(spec, (n, k))


# --- recurrence -----------------------------------------------------------------


def test_recurrence_depth_two_identity():
    # (1 + t) c(1) - x1 c(0) = x2
    x1, x2, t = F(2, 3), F(-1, 5), F(3, 2)
    spec = NestedSumSpec(((x1, x2),), (t,))
    assert (1 + t) * c_recursive(spec, (1,)) - x1 * c_recursive(spec, (0,)) == x2


def test_recurrence_depth_one_is_monomial():
    spec = NestedSumSpec(((F(2, 5),), (F(-3),)), ())
    for n in itertools.product(range(4), repeat=2):
        assert c_recursive(spec, n) == F(2, 5) ** n[0] * F(-3) ** n[1]


def test_recurrence_matches_direct():
    rng = Random(14)
    for _ in range(20):
        spec = random_spec(rng, 3, 3)
        n = tuple(rng.randint(0, 4) for _ in range(spec.r))
        assert c_recursive(spec, n) == c_direct(spec, n)


def test_recurrence_evaluator_memo_reuse():
    spec = NestedSumSpec(((F(1, 2), F(1, 3), F(1, 5)),), (F(1), F(1)))
    evaluator = RecurrenceEvaluator(spec)
    evaluator.value((6,))
    entries = evaluator.memo_entries
    assert entries == 3 * 7  # three depth levels over 0..6
    evaluator.value((4,))  # inside the filled box: no growth
    assert evaluator.memo_entries == entries


def test_recurrence_table_matches_direct():
    cases = (
        ("2/3", "", (5,)),
        ("1/2,1/3;0,1", "2", (3, 4)),
        ("1/2,-2,3;1/5,1,0;-1,1/3,2", "3/2,-1/2", (2, 3, 2)),
    )
    for xtext, ttext, extents in cases:
        spec = NestedSumSpec.parse(xtext, ttext)
        table = RecurrenceEvaluator(spec).table(extents)
        assert table.shape == extents
        for idx in table.indices():
            assert table[idx] == c_direct(spec, idx)


def test_recurrence_cell_guard():
    spec = NestedSumSpec.parse("1/2,1/3;1/5,2", "2")
    assert recurrence_cell_count(spec, (4, 4)) == 2 * 5 * 5
    RecurrenceEvaluator(spec, cell_guard=50).table((5, 5))
    with pytest.raises(GuardExceeded):
        RecurrenceEvaluator(spec, cell_guard=49).value((4, 4))
    with pytest.raises(GuardExceeded):
        c_recursive(spec, (400, 400), 1000)


def test_verify_recurrence_report():
    spec = NestedSumSpec.parse("1/2,1/3;0,1", "2")
    report = verify_recurrence(spec, (3, 3))
    assert report.ok and len(report.comparisons) == 9


def reference_fill(spec, corner):
    """c over the box below `corner`: the recurrence on a dict of Fractions.

    This is the fill as it ran before the integer form, one Fraction
    operation per step, kept here as the reference for `RecurrenceEvaluator`.
    """
    levels = [spec]
    while levels[-1].p > 1:
        levels.append(levels[-1].reduce_depth())
    box = list(itertools.product(*(range(c + 1) for c in corner)))
    memo = {}
    for m in box:
        value = F(1)
        for i, block in enumerate(levels[-1].xblocks):
            value *= block[0] ** m[i]
        memo[(len(levels) - 1, m)] = value
    for level in range(len(levels) - 2, -1, -1):
        lspec = levels[level]
        for m in box:
            total = memo[(level + 1, m)]
            for k in range(spec.r):
                if m[k]:
                    below = m[:k] + (m[k] - 1,) + m[k + 1:]
                    total += lspec.xblocks[k][0] * m[k] * memo[(level, below)]
            memo[(level, m)] = total / (sum(m) + lspec.tparams[0])
    return {m: memo[(0, m)] for m in box}


# x: zero, integers and proper fractions; t: anything off {0, -1, -2, ...},
# negative non-integers included
fill_x = st.one_of(
    st.just(F(0)),
    st.integers(-4, 4).map(F),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)
fill_t = st.one_of(
    st.integers(-9, -1).map(lambda a: F(2 * a - 1, 2)),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(
        lambda t: t.denominator > 1 or t > 0
    ),
)


@st.composite
def fill_cases(draw):
    r, p = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    xblocks = tuple(tuple(draw(fill_x) for _ in range(p)) for _ in range(r))
    tparams = tuple(draw(fill_t) for _ in range(p - 1))
    extents = tuple(draw(st.integers(1, 6)) for _ in range(r))
    return NestedSumSpec(xblocks, tparams), extents


@settings(max_examples=80, deadline=None)
@given(fill_cases())
def test_recurrence_table_matches_reference_fill(case):
    spec, extents = case
    table = RecurrenceEvaluator(spec).table(extents)
    reference = reference_fill(spec, tuple(e - 1 for e in extents))
    assert dict(zip(table.indices(), table.values)) == reference


@pytest.mark.parametrize(
    "xtext, ttext, corner",
    [
        ("2/3", "", (7,)),  # p = 1: the monomial level alone
        ("-3/4;0;5", "", (3, 2, 4)),
        ("1/2,1/3;1/5,2", "-7/2", (0, 5)),  # corners with zero entries
        ("1/2,0,3;-2,1/7,1;0,0,1/3", "5/3,-1/2", (4, 0, 3)),
        ("1/2,1/3,-1,2", "3,-5/4,1/9", (0,)),
    ],
)
def test_recurrence_fill_explicit_cases(xtext, ttext, corner):
    spec = NestedSumSpec.parse(xtext, ttext)
    evaluator = RecurrenceEvaluator(spec)
    assert evaluator.value(corner) == reference_fill(spec, corner)[corner]
    assert evaluator.memo_entries == recurrence_cell_count(spec, corner)
    for m, value in reference_fill(spec, corner).items():
        assert evaluator.value(m) == value == c_direct(spec, m)


def test_recurrence_refill_outside_the_box():
    spec = NestedSumSpec.parse("1/2,1/3;-2/5,3", "-3/2")
    reference = reference_fill(spec, (3, 4))
    evaluator = RecurrenceEvaluator(spec, cell_guard=2 * 4 * 5)
    earlier = {m: evaluator.value(m) for m in itertools.product(range(4), range(1))}
    assert evaluator.memo_entries == 2 * 4 * 1
    # (0, 4) is outside the 4x1 box: the refill covers the box below (3, 4)
    assert evaluator.value((0, 4)) == reference[(0, 4)]
    assert evaluator.memo_entries == 2 * 4 * 5
    for m, value in earlier.items():
        assert evaluator.value(m) == value == reference[m]
    assert evaluator.table((4, 5)).values == tuple(reference.values())


def test_recurrence_refill_guard():
    spec = NestedSumSpec.parse("1/2,1/3;1/5,2", "2")
    evaluator = RecurrenceEvaluator(spec, cell_guard=2 * 5 * 3)
    first = evaluator.value((4, 0))
    assert evaluator.value((0, 2)) == c_direct(spec, (0, 2))  # refill to (4, 2): 30 cells
    with pytest.raises(GuardExceeded) as info:
        evaluator.value((0, 3))  # (4, 3) needs 40 cells, though (0, 3) alone needs 8
    assert info.value.size == 2 * 5 * 4
    assert evaluator.memo_entries == 2 * 5 * 3
    assert evaluator.value((4, 0)) == first


# --- identity verifiers ----------------------------------------------------------


def test_duality_depth_two_frozen_value():
    # both sides at n=1 equal ((1-x1) + t(1-x2)) / (t(1+t)) = 11/36
    spec = NestedSumSpec(((F(1, 2), F(1, 3)),), (F(2),))
    report = verify_duality(spec, (2,))
    assert report.ok
    at_one = report.comparisons[1]
    assert at_one.index == (1,)
    assert at_one.lhs == at_one.rhs == F(11, 36)


def test_duality_depth_one_is_complement_power():
    spec = NestedSumSpec(((F(2, 7),), (F(-1, 3),)), ())
    report = verify_duality(spec, (3, 3))
    assert report.ok
    rule = c_sequence(spec.one_minus())
    for comp in report.comparisons:
        assert comp.rhs == rule(comp.index)


def test_duality_self_dual_at_one_half():
    spec = NestedSumSpec(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))), (F(5, 3),))
    report = verify_duality(spec, (3, 3))
    assert report.ok
    # one_minus fixes the spec, so the transform reproduces c itself
    rule = c_sequence(spec)
    for comp in report.comparisons:
        assert comp.lhs == rule(comp.index)


def test_duality_with_negative_noninteger_shift():
    spec = NestedSumSpec(((F(1, 2), F(2)), (F(-1), F(1, 3))), (F(-3, 2),))
    assert verify_duality(spec, (3, 3)).ok


FIXED_DUALITY_CASES = [
    (NestedSumSpec(((F(1, 2), F(1, 3)),), (F(2),)), (2,)),
    (NestedSumSpec(((F(2, 7),), (F(-1, 3),)), ()), (3, 3)),
    (NestedSumSpec(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))), (F(5, 3),)), (3, 3)),
    (NestedSumSpec(((F(1, 2), F(2)), (F(-1), F(1, 3))), (F(-3, 2),)), (3, 3)),
    (NestedSumSpec.parse("1/2,-1/3", "3/4"), (4,)),
]


def pointwise_duality(spec, box):
    """The duality report built point by point: nabla of direct values."""
    transformed = nabla(c_sequence(spec))
    dual = spec.one_minus()
    return VerificationReport(
        "c-duality",
        C_DUALITY_STATEMENT,
        [
            Comparison("c-duality", spec.text(), n, transformed(n), c_direct(dual, n))
            for n in itertools.product(*(range(extent) for extent in box))
        ],
    )


@pytest.mark.parametrize("spec, box", FIXED_DUALITY_CASES)
def test_duality_report_matches_pointwise_route(spec, box):
    report = verify_duality(spec, box)
    reference = pointwise_duality(spec, box)
    assert report.to_text() == reference.to_text()
    assert report.to_json() == reference.to_json()


def test_duality_fails_on_a_corrupted_fill_value(monkeypatch):
    spec = NestedSumSpec.parse("1/2,1/3;1/5,2", "2")
    table = RecurrenceEvaluator.table

    def corrupted(self, extents):
        out = table(self, extents)
        if self.spec != spec:
            return out
        values = list(out.values)
        values[1 * extents[1] + 2] += F(1, 10**9)  # index (1, 2), not the corner
        return MultiSequenceTable(out.arity, out.shape, tuple(values))

    monkeypatch.setattr(RecurrenceEvaluator, "table", corrupted)
    report = verify_duality(spec, (4, 4))
    # nabla at n reads every value below n, so exactly the points above (1, 2) fail
    assert {comp.index for comp in report.failures} == {
        (i, j) for i in range(1, 4) for j in range(2, 4)
    }
    assert report.to_text().endswith("result: FAIL (6 of 16), 16 comparisons\n")


def test_duality_guard_trips_at_the_corner():
    spec = NestedSumSpec.parse("1/2,1/3", "2")
    with pytest.raises(GuardExceeded) as info:
        verify_duality(spec, (200,), summand_guard=100)
    assert info.value.what == "direct summand count" and info.value.size == 200
    assert verify_duality(spec, (100,), summand_guard=100).ok
    with pytest.raises(ValueError):
        verify_duality(spec, (0,), summand_guard=0)


def test_difference_formula_zero_order_slice():
    spec = NestedSumSpec.parse("0,1", "1")
    report = verify_difference_formula(spec, (3,), (1,))
    assert report.ok
    for comp in report.comparisons:
        n, k = comp.index
        if k == 0:
            assert comp.lhs == c_direct(spec, (n,))


def test_difference_formula_origin_slice_is_duality():
    spec = NestedSumSpec.parse("1/2,-1/3", "3/4")
    diff = verify_difference_formula(spec, (1,), (4,))
    dual = verify_duality(spec, (4,))
    assert diff.ok and dual.ok
    diff_at_origin = {
        comp.index[1]: comp.lhs for comp in diff.comparisons if comp.index[0] == 0
    }
    for comp in dual.comparisons:
        assert diff_at_origin[comp.index[0]] == comp.lhs


def test_difference_formula_explicit_instance():
    report = verify_difference_formula(
        NestedSumSpec(((F(0), F(1)),), (F(1),)), (2,), (2,)
    )
    assert report.ok and len(report.comparisons) == 4


def test_shift_identity_two_slot_product():
    x = F(1, 3)
    spec = NestedSumSpec(((x,), (1 - x,)), ())
    report = verify_shift_identity(spec, (1, 2), 1, (3, 3))
    assert report.ok
    rule = c_sequence(spec)
    assert rule((1, 1)) == F(2, 9)
    at_11 = next(c for c in report.comparisons if c.index == (1, 1))
    assert at_11.lhs == at_11.rhs == F(2, 9)


def test_shift_identity_single_slot_constant_block():
    gamma = F(3, 4)
    spec = NestedSumSpec(((gamma, gamma),), (F(2, 3),))
    report = verify_shift_identity(spec, (1,), gamma, (4,))
    assert report.ok
    rule = c_sequence(spec)
    for n in range(4):
        assert rule((n + 1,)) == gamma * rule((n,))


def test_shift_identity_on_doubled_spec():
    spec = NestedSumSpec(((F(1, 2), F(-2)), (F(1, 5), F(3))), (F(7, 5),))
    double = spec.doubled()
    for i in range(1, spec.r + 1):
        report = verify_shift_identity(double, (i, spec.r + i), 1, (2, 2, 2, 2))
        assert report.ok


def test_shift_identity_rejects_bad_hypothesis():
    spec = NestedSumSpec(((F(1), F(0)), (F(1), F(1))), (F(1),))
    # column sums are (2, 1): not constant, so no gamma satisfies the hypothesis
    with pytest.raises(ValueError):
        verify_shift_identity(spec, (1, 2), 2, (2, 2))
    with pytest.raises(ValueError):
        verify_shift_identity(spec, (1, 1), 2, (2, 2))
    with pytest.raises(ValueError):
        verify_shift_identity(spec, (0, 1), 2, (2, 2))


FIXED_DIFFERENCE_CASES = [
    (NestedSumSpec.parse("0,1", "1"), (3,), (2,)),
    (NestedSumSpec.parse("1/2,-1/3", "3/4"), (1,), (4,)),
    (NestedSumSpec.parse("2/7;-1/3"), (3, 2), (2, 3)),
    (NestedSumSpec.parse("1/2,1/3;1/5,2", "2"), (2, 3), (3, 2)),
    (NestedSumSpec.parse("1/2,2,-1;-1,1/3,0", "-3/2,5"), (2, 2), (2, 2)),
]


def pointwise_difference_formula(spec, nbox, kbox):
    """The difference-formula report built point by point from direct values."""
    c, double = c_sequence(spec), spec.doubled()
    return VerificationReport(
        "difference-formula",
        DIFFERENCE_STATEMENT,
        [
            Comparison(
                "difference-formula", spec.text(), n + k,
                iterated_delta(c, k, n), c_direct(double, n + k),
            )
            for n in itertools.product(*(range(extent) for extent in nbox))
            for k in itertools.product(*(range(extent) for extent in kbox))
        ],
    )


@pytest.mark.parametrize("spec, nbox, kbox", FIXED_DIFFERENCE_CASES)
def test_difference_formula_report_matches_pointwise_route(spec, nbox, kbox):
    report = verify_difference_formula(spec, nbox, kbox)
    reference = pointwise_difference_formula(spec, nbox, kbox)
    assert report.ok
    assert report.to_text() == reference.to_text()
    assert report.to_json() == reference.to_json()


def corrupt_fill(monkeypatch, spec, change):
    """Make RecurrenceEvaluator.table of `spec` return change(index, value) at every index."""
    table = RecurrenceEvaluator.table

    def corrupted(self, extents):
        out = table(self, extents)
        if self.spec != spec:
            return out
        values = tuple(change(index, value) for index, value in zip(out.indices(), out.values))
        return MultiSequenceTable(out.arity, out.shape, values)

    monkeypatch.setattr(RecurrenceEvaluator, "table", corrupted)


def test_difference_formula_fails_exactly_where_a_fill_value_is_read(monkeypatch):
    spec = NestedSumSpec.parse("1/2,1/3;1/5,2", "2")
    nbox, kbox = (3, 3), (3, 2)
    pairs = [
        (n, k)
        for n in itertools.product(range(3), range(3))
        for k in itertools.product(range(3), range(2))
    ]
    # every value of the c[x|t] fill over nbox + kbox - 1 = (5, 4), the top
    # slab that only the corner's c_direct checks included
    for m in itertools.product(range(5), range(4)):
        with monkeypatch.context() as patch:
            corrupt_fill(patch, spec, lambda index, value: value + (index == m))
            report = verify_difference_formula(spec, nbox, kbox)
        # (delta^k c)(n) weights c(m) by +-C(k, m - n), nonzero for n <= m <= n + k
        assert {comp.index for comp in report.failures} == {
            n + k for n, k in pairs
            if all(ni <= mi <= ni + ki for ni, mi, ki in zip(n, m, k))
        }, m


def test_difference_formula_doubled_fill_is_checked_but_at_the_corner(monkeypatch):
    spec = NestedSumSpec.parse("1/2,1/3;1/5,2", "2")
    for m, failures in [((1, 0, 2, 1), {(1, 0, 2, 1)}), ((2, 2, 2, 1), set())]:
        with monkeypatch.context() as patch:
            corrupt_fill(patch, spec.doubled(), lambda index, value: value + (index == m))
            report = verify_difference_formula(spec, (3, 3), (3, 2))
        # the corner's right side is c_direct, not the fill
        assert {comp.index for comp in report.failures} == failures


def test_difference_formula_corner_is_chain_enumeration(monkeypatch):
    # both fills doubled: the transform and the doubled fill still agree, so
    # only the chain-enumerated corner can fail
    spec = NestedSumSpec.parse("1/2,1/3;1/5,2", "2")
    table = RecurrenceEvaluator.table
    monkeypatch.setattr(
        RecurrenceEvaluator, "table",
        lambda self, extents: MultiSequenceTable(
            self.spec.r, tuple(extents), tuple(2 * v for v in table(self, extents).values)
        ),
    )
    report = verify_difference_formula(spec, (3, 3), (3, 2))
    assert [comp.index for comp in report.failures] == [(2, 2, 2, 1)]


def test_difference_formula_guard_trips_at_the_corner_first(monkeypatch):
    spec = NestedSumSpec.parse("1/2,1/3", "2")
    # the doubled corner (9, 9) has 10 * 10 summands
    with pytest.raises(GuardExceeded) as info:
        verify_difference_formula(spec, (10,), (10,), summand_guard=99)
    assert info.value.what == "direct summand count" and info.value.size == 100
    assert verify_difference_formula(spec, (10,), (10,), summand_guard=100).ok
    # at depth 1 every point has one summand and the fills bound the box:
    # the doubled fill over (31, 31) has 961 cells
    with pytest.raises(GuardExceeded) as info:
        verify_difference_formula(NestedSumSpec.parse("1/2"), (31,), (31,), summand_guard=100)
    assert info.value.what == "recurrence cell count" and info.value.size == 961


SHIFT_SPEC = NestedSumSpec(((F(1, 3), F(1, 2)), (F(2, 3), F(1, 2)), (F(-2), F(5, 7))), (F(2),))


def test_shift_identity_fails_exactly_where_a_fill_value_is_read(monkeypatch):
    subset, box = (1, 2), (3, 2, 2)
    corner = (2, 1, 1)
    points = set(itertools.product(range(3), range(2), range(2)))
    # every value of the fill over the box one larger in every slot
    for m in itertools.product(range(4), range(3), range(3)):
        with monkeypatch.context() as patch:
            corrupt_fill(patch, SHIFT_SPEC, lambda index, value: value + (index == m))
            report = verify_shift_identity(SHIFT_SPEC, subset, 1, box)
        # the right side reads c(n) but at the corner; the left side c(n + e_i)
        expected = {m} - {corner} if m in points else set()
        for i in subset:
            n = m[: i - 1] + (m[i - 1] - 1,) + m[i:]
            if n in points:
                expected.add(n)
        assert {comp.index for comp in report.failures} == expected, m


def test_shift_identity_corner_is_chain_enumeration(monkeypatch):
    with monkeypatch.context() as patch:
        corrupt_fill(patch, SHIFT_SPEC, lambda index, value: 2 * value)
        report = verify_shift_identity(SHIFT_SPEC, (1, 2), 1, (3, 2, 2))
    assert [comp.index for comp in report.failures] == [(2, 1, 1)]


def pointwise_shift(spec, subset, constant, box):
    """The shift report built point by point from direct values."""
    c, constant = c_sequence(spec), F(constant)
    label = f"{spec.text()} S={tuple(subset)} gamma={format_rational(constant)}"
    return VerificationReport(
        "shift",
        SHIFT_STATEMENT,
        [
            Comparison(
                "shift", label, n,
                sum((c(n[: i - 1] + (n[i - 1] + 1,) + n[i:]) for i in subset), F(0)),
                constant * c(n),
            )
            for n in itertools.product(*(range(extent) for extent in box))
        ],
    )


def test_shift_identity_report_matches_pointwise_route():
    cases = [
        (SHIFT_SPEC, (1, 2), 1, (3, 2, 2)),
        (NestedSumSpec(((F(3, 4), F(3, 4)),), (F(2, 3),)), (1,), F(3, 4), (4,)),
        (NestedSumSpec(((F(1, 3),), (F(2, 3),)), ()), (1, 2), 1, (3, 3)),
    ]
    rng = Random(19)
    for _ in range(3):
        spec, subset, constant = random_shift_configuration(rng, 3, 3)
        cases.append((spec, subset, constant, (3,) * spec.r))
    for spec, subset, constant, box in cases:
        report = verify_shift_identity(spec, subset, constant, box)
        reference = pointwise_shift(spec, subset, constant, box)
        assert report.ok
        assert report.to_text() == reference.to_text()
        assert report.to_json() == reference.to_json()


def test_shift_identity_guard_trips_at_the_corner_first():
    # the corner (9, 9) has 10 * 10 summands
    spec = NestedSumSpec(((F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))), (F(2),))
    with pytest.raises(GuardExceeded) as info:
        verify_shift_identity(spec, (1, 2), 1, (10, 10), summand_guard=99)
    assert info.value.what == "direct summand count" and info.value.size == 100
    # the fill over (11, 11) has 2 * 121 cells, over twice the guard
    with pytest.raises(GuardExceeded) as info:
        verify_shift_identity(spec, (1, 2), 1, (10, 10), summand_guard=100)
    assert info.value.what == "recurrence cell count" and info.value.size == 242
    assert verify_shift_identity(spec, (1, 2), 1, (10, 10), summand_guard=121).ok


# x: zero, integers and proper fractions
route_x = st.one_of(
    st.just(F(0)),
    st.integers(-4, 4).map(F),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(route_x, min_size=1, max_size=4), st.integers(0, 6))
def test_kt_value_is_c_direct_at_unit_shifts(x, n):
    spec = NestedSumSpec((tuple(x),), (1,) * (len(x) - 1))
    assert kt_value(x, n) == c_direct(spec, (n,))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda p: st.tuples(
        st.lists(route_x, min_size=p, max_size=p),
        st.lists(route_x, min_size=p, max_size=p),
    )
), st.integers(0, 4), st.integers(0, 4))
def test_two_index_value_is_c_direct_at_unit_shifts(xy, n, k):
    x, y = xy
    spec = NestedSumSpec((tuple(x), tuple(y)), (1,) * (len(x) - 1))
    assert two_index_value(x, y, n, k) == c_direct(spec, (n, k))


def test_duality_reduces_to_single_slot_duality():
    # at r=1 and unit shifts the duality is the classical single-slot one:
    # the transform of kt sums equals kt at complemented parameters
    rng = Random(17)
    for _ in range(5):
        p = rng.randint(1, 3)
        x = tuple(random_rational(rng) for _ in range(p))
        spec = NestedSumSpec((x,), (F(1),) * (p - 1))
        report = verify_duality(spec, (4,))
        assert report.ok
        complement = tuple(1 - v for v in x)
        for comp in report.comparisons:
            assert comp.rhs == kt_value(complement, comp.index[0])


def test_random_shift_configuration_satisfies_hypothesis():
    rng = Random(15)
    for _ in range(20):
        spec, subset, constant = random_shift_configuration(rng, 3, 3)
        for j in range(spec.p):
            assert sum(spec.xblocks[i - 1][j] for i in subset) == constant


def test_random_shift_never_nonpositive_integer():
    rng = Random(16)
    for _ in range(200):
        t = random_shift(rng)
        assert not (t.denominator == 1 and t.numerator <= 0)


def test_report_serializations():
    spec = NestedSumSpec.parse("1/2,1/3", "2")
    report = verify_duality(spec, (2,))
    payload = __import__("json").loads(report.to_json())
    assert payload["ok"] is True
    assert payload["identity"] == "c-duality"
    first = payload["comparisons"][0]
    assert set(first) == {"identity", "spec", "index", "lhs", "rhs", "equal"}
    assert first["lhs"] == "1/2"
    csv_lines = report.to_csv().splitlines()
    assert csv_lines[0] == "identity,spec,index,lhs,rhs,equal"
    assert len(csv_lines) == 1 + len(report.comparisons)
