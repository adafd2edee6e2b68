import itertools
import operator
import tracemalloc
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from mhscalc import guards, nestedsums
from mhscalc.guards import GuardExceeded, chain_count, direct_summand_count, recurrence_cell_count
from mhscalc.guards import NUMERATOR_TABLE_MAX_BITS, fill_bits, sweep_summand_count
from mhscalc.kernel import common_denominator, format_rational, gen_binomial, gen_binomial_pair
from mhscalc.kernel import multinomial
from mhscalc.mhs import multi_indices_of_weight, verify_mhs_duality
from mhscalc.multiseq import MultiSequenceTable
from mhscalc.nestedsums import (
    C_DUALITY_STATEMENT,
    DIFFERENCE_STATEMENT,
    SHIFT_STATEMENT,
    NestedSumSpec,
    RecurrenceEvaluator,
    c_direct,
    c_recursive,
    chain_tails,
    direct_window,
    enumerate_chains,
    parse_shifts,
    random_rational,
    random_shift,
    random_shift_configuration,
    random_spec,
    random_table,
    verify_difference_formula,
    verify_duality,
    verify_recurrence,
    verify_shift_identity,
)
from pointwise import c_sequence, iterated_delta, kt_value, nabla, two_index_value
from reference_report import Comparison, ReferenceReport


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


def c_direct_by_fraction_groups(spec, n):
    """`c_direct` as it ran before its int form, kept as its reference.

    The same grouping of summands by per-column sums (sum_i m_ij,
    sum_i v_ij), with every chain weight, group sum and division a Fraction.
    """
    p = spec.p
    groups = {(0,) * (2 * (p - 1)): F(1)}
    for block, ni in zip(spec.xblocks, n):
        merged = {}
        for key, partial in groups.items():
            for chain in enumerate_chains(ni, p):
                nu = tuple(chain[j] - chain[j + 1] for j in range(p - 1)) + (chain[-1],)
                weight = F(multinomial(ni, nu))
                for x, v in zip(block, nu):
                    weight *= x**v
                columns = tuple(entry for pair in zip(chain, nu[:-1]) for entry in pair)
                new_key = tuple(map(operator.add, key, columns))
                merged[new_key] = merged.get(new_key, 0) + partial * weight
        groups = merged
    total = F(0)
    for key, numerator in groups.items():
        denominator = F(1)
        for j in range(p - 1):
            linear = key[2 * j] + spec.tparams[j]
            denominator *= gen_binomial(linear - 1, key[2 * j + 1]) * linear
        total += numerator / denominator
    return total


def direct_denominator_columns(spec, n):
    """The distinct (j, sum_i m_ij, sum_i v_ij), j < p - 1, over all chain tuples."""
    columns = set()
    chains_per_slot = [list(enumerate_chains(ni, spec.p)) for ni in n]
    for combo in itertools.product(*chains_per_slot):
        for j in range(spec.p - 1):
            col_m = sum(chain[j] for chain in combo)
            col_v = sum(chain[j] - chain[j + 1] for chain in combo)
            columns.add((j, col_m, col_v))
    return columns


# --- spec construction -------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="^need at least one parameter block$"):
        NestedSumSpec((), ())
    with pytest.raises(ValueError, match="^blocks must be nonempty$"):
        NestedSumSpec(((),), ())
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


def test_chain_tails_are_the_chains_without_their_head():
    for n in range(6):
        for p in range(1, 5):
            assert [(n,) + tail for tail in chain_tails(n, p)] == list(enumerate_chains(n, p))
    assert list(chain_tails(3, 1)) == [()]
    for n, p in ((-1, 2), (2, 0)):
        with pytest.raises(ValueError):
            chain_tails(n, p)


def test_enumerate_chains_checks_at_the_call():
    # callers build their tables after the call, so no chain may be needed
    with pytest.raises(ValueError):
        enumerate_chains(-1, 2)
    with pytest.raises(ValueError):
        enumerate_chains(2, 0)


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
        c_direct(spec, (40,), guard=800)


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
        for idx in itertools.product(*map(range, table.shape)):
            assert table[idx] == c_direct(spec, idx)


def test_recurrence_cell_guard():
    spec = NestedSumSpec.parse("1/2,1/3;1/5,2", "2")
    assert recurrence_cell_count(spec, (4, 4)) == 2 * 5 * 5
    RecurrenceEvaluator(spec, guard=50).table((5, 5))
    with pytest.raises(GuardExceeded):
        RecurrenceEvaluator(spec, guard=49).value((4, 4))
    with pytest.raises(GuardExceeded):
        c_recursive(spec, (400, 400), 1000)


def test_sweep_summand_count_sums_every_point_of_the_box():
    for r, p in itertools.product(range(1, 4), range(1, 5)):
        spec = NestedSumSpec(((F(1),) * p,) * r, (F(1),) * (p - 1))
        for box in itertools.product(range(1, 5), repeat=r):
            points = itertools.product(*map(range, box))
            total = sum(direct_summand_count(spec, n) for n in points)
            assert sweep_summand_count(spec, box) == total, (r, p, box)


PLAN_SPEC = NestedSumSpec.parse("1/2,1/3;1/4,2/3", "2")
FILL_BITS = NUMERATOR_TABLE_MAX_BITS


@pytest.mark.parametrize("verify, args, plan", [
    (verify_duality, (PLAN_SPEC, (3, 2)), [
        ("direct summand count", 6, 1000),
        ("recurrence cell count", 12, 2000), ("recurrence fill bits", 108, FILL_BITS),
        ("recurrence cell count", 12, 2000), ("recurrence fill bits", 108, FILL_BITS),
        ("difference-pass subtraction count", 9, 64000),
    ]),
    (verify_difference_formula, (PLAN_SPEC, (2, 2), (2, 1)), [
        ("direct summand count", 8, 1000),
        ("recurrence cell count", 12, 2000), ("recurrence fill bits", 108, FILL_BITS),
        ("recurrence cell count", 16, 2000), ("recurrence fill bits", 144, FILL_BITS),
        ("difference-pass subtraction count", 4, 64000),
    ]),
    (verify_shift_identity, (NestedSumSpec.parse("1/3,1/2;2/3,1/2", "2"), (1, 2), 1, (3, 2)), [
        ("direct summand count", 6, 1000),
        ("recurrence cell count", 24, 2000), ("recurrence fill bits", 312, FILL_BITS),
    ]),
    (verify_recurrence, (PLAN_SPEC, (3, 2)), [
        ("direct summand count", 6, 1000),
        ("recurrence cell count", 12, 2000), ("recurrence fill bits", 108, FILL_BITS),
        ("sweep summand count", 18, 1000),
    ]),
], ids=["c-duality", "difference-formula", "shift", "recurrence"])
def test_each_fill_identity_checks_its_plan_once(monkeypatch, verify, args, plan):
    # the corner's summands, then each fill's cells at p * guard and its
    # bits, then the difference pass or the sweep; the callees run none
    checked = []

    def check(*blocks):
        checked.append(guards.check(*blocks))
        return checked[-1]

    monkeypatch.setattr(nestedsums, "check", check)
    assert verify(*args, guard=1000).ok
    assert [list(each) for each in checked] == [plan]


def test_verify_recurrence_report():
    spec = NestedSumSpec.parse("1/2,1/3;0,1", "2")
    report = verify_recurrence(spec, (3, 3))
    assert report.ok and len(report.comparisons) == 9


def test_depth_one_direct_builds_only_the_power_it_reads():
    # the one chain reads x^n: a table of x^0..x^n would hold some 3 MB at
    # n = 4000, and a pool of the n + 1 chain entries some 140 kB
    spec, n = NestedSumSpec.parse("2/3"), 4000
    tracemalloc.start()
    try:
        value = c_direct(spec, (n,), guard=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == F(2**n, 3**n)
    assert peak < 64 * 1024


def _refuse(*args, **kwargs):
    raise AssertionError("work ran before the guard was checked")


@pytest.mark.parametrize(
    "xtext, ttext, what, size",
    [
        # depth 1: one summand per point, so the fill's 20001 cells trip
        ("1/2", "", "recurrence cell count", 20001),
        # depth 2: the corner's 20001 summands trip first
        ("1/2,1/3", "2", "direct summand count", 20001),
    ],
)
def test_recurrence_guards_trip_before_any_evaluation(monkeypatch, xtext, ttext, what, size):
    monkeypatch.setattr(nestedsums, "c_direct", _refuse)
    monkeypatch.setattr(nestedsums, "direct_window", _refuse)
    monkeypatch.setattr(nestedsums, "_points", _refuse)
    with pytest.raises(GuardExceeded) as info:
        verify_recurrence(NestedSumSpec.parse(xtext, ttext), (20001,), guard=100)
    assert (info.value.what, info.value.size) == (what, size)


def test_recurrence_sweep_guard_trips_before_any_evaluation(monkeypatch):
    # the corner's 20 summands and the fill's 40 cells pass; the sweep's
    # points list C(21, 2) = 210 summands in all
    monkeypatch.setattr(nestedsums, "direct_window", _refuse)
    monkeypatch.setattr(nestedsums, "_points", _refuse)
    with pytest.raises(GuardExceeded) as info:
        verify_recurrence(NestedSumSpec.parse("1/2,1/3", "2"), (20,), guard=100)
    assert (info.value.what, info.value.size) == ("sweep summand count", 210)
    monkeypatch.undo()
    assert verify_recurrence(NestedSumSpec.parse("1/2,1/3", "2"), (20,), guard=210).ok


@pytest.mark.parametrize(
    "verify",
    [
        lambda spec, box, guard: verify_duality(spec, box, guard),
        lambda spec, box, guard: verify_difference_formula(spec, box, box, guard),
        lambda spec, box, guard: verify_recurrence(spec, box, guard),
        lambda spec, box, guard: verify_shift_identity(spec, (1, 2), 1, box, guard),
    ],
    ids=["c-duality", "difference-formula", "recurrence", "shift"],
)
@pytest.mark.parametrize("xtext, ttext", [("1/3;2/3", ""), ("1/3,1/2;2/3,1/2", "2")])
def test_verifiers_check_every_guard_before_any_work(monkeypatch, verify, xtext, ttext):
    # a box of 10^12 points: listing it before the guard would never finish,
    # and at depth 1 the corner's one summand holds powers x^(10^6 - 1)
    monkeypatch.setattr(nestedsums, "_points", _refuse)
    monkeypatch.setattr(nestedsums, "c_direct", _refuse)
    monkeypatch.setattr(nestedsums, "direct_window", _refuse)
    with pytest.raises(GuardExceeded):
        verify(NestedSumSpec.parse(xtext, ttext), (10**6, 10**6), 100)


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
def fill_cases(draw, max_p=4, max_extent=6):
    r, p = draw(st.integers(1, 3)), draw(st.integers(1, max_p))
    xblocks = tuple(tuple(draw(fill_x) for _ in range(p)) for _ in range(r))
    tparams = tuple(draw(fill_t) for _ in range(p - 1))
    extents = tuple(draw(st.integers(1, max_extent)) for _ in range(r))
    return NestedSumSpec(xblocks, tparams), extents


@settings(max_examples=80, deadline=None)
@given(fill_cases(max_p=3, max_extent=4))
def test_direct_matches_literal_product_on_drawn_specs(case):
    # r, p <= 3 and n_i <= 3 keep the literal cross-product small
    spec, extents = case
    n = tuple(extent - 1 for extent in extents)
    assert c_direct(spec, n) == c_by_literal_product(spec, n)


@settings(max_examples=80, deadline=None)
@given(fill_cases(max_p=3, max_extent=5))
@example((NestedSumSpec(((F(0), F(0), F(0)), (F(0), F(1, 2), F(0))), (F(1), F(2))), (4, 3)))
@example((NestedSumSpec(((F(1, 2), F(-2, 3), F(5, 7)),), (F(3), F(1, 4))), (5,)))
@example((NestedSumSpec(((F(1, 2), F(1, 3)), (F(-4, 9), F(2)), (F(1, 6), F(0))), (F(-5, 2),)),
          (3, 4, 2)))
@example((NestedSumSpec(((F(3, 4), F(-1, 5), F(2, 9)),), (F(-7, 3), F(-1, 2))), (5,)))
def test_direct_matches_fraction_group_reference(case):
    # r <= 3, depths 1-3, n_i <= 4; the examples pin zero parameters,
    # denominators that differ within a block, and negative non-integer
    # shifts, where gen_binomial changes sign
    spec, extents = case
    n = tuple(extent - 1 for extent in extents)
    assert c_direct(spec, n) == c_direct_by_fraction_groups(spec, n)


def decode_columns(code, radix, p):
    """The columns (m_1, v_1, ..., m_{p-1}, v_{p-1}) packed in a code base `radix`."""
    digits = []
    for _ in range(2 * (p - 1)):
        code, digit = divmod(code, radix)
        digits.append(digit)
    assert code == 0
    return tuple(reversed(digits))


@settings(max_examples=80, deadline=None)
@given(st.lists(fill_x, min_size=1, max_size=3), st.integers(0, 6), st.integers(1, 4))
def test_block_chain_weights_are_ints_over_d_to_the_n(block, n, extra):
    # any radix above n holds every column entry as one digit
    block, radix = tuple(block), n + extra
    scale, data = nestedsums._block_chain_data(*common_denominator(block), n, radix)
    assert scale == common_denominator(block)[0] ** n
    chains = list(enumerate_chains(n, len(block)))
    assert len(data) == len(chains)
    for chain, (code, weight) in zip(chains, data):
        nu = tuple(m - below for m, below in zip(chain, chain[1:])) + chain[-1:]
        expected = F(multinomial(n, nu))
        for x, v in zip(block, nu):
            expected *= x**v
        assert isinstance(weight, int) and F(weight, scale) == expected
        columns = tuple(entry for pair in zip(chain, nu[:-1]) for entry in pair)
        assert decode_columns(code, radix, len(block)) == columns


def over_common_denominator(block):
    """A block as `direct_window` passes it to `_block_chain_data`: d and the numerators over d."""
    d, numerators = common_denominator(block)
    return d, tuple(numerators)


def test_direct_reads_no_recurrence_fill(monkeypatch):
    def refuse(self, corner):
        raise AssertionError("c_direct read a recurrence fill")

    rng = Random(17)
    cases = [(spec, tuple(rng.randint(0, 3) for _ in range(spec.r)))
             for spec in (random_spec(rng, 3, 3) for _ in range(12))]
    expected = [c_direct_by_fraction_groups(spec, n) for spec, n in cases]
    monkeypatch.setattr(RecurrenceEvaluator, "_fill", refuse)
    with pytest.raises(AssertionError, match="read a recurrence fill"):
        c_recursive(*cases[0])
    assert [c_direct(spec, n) for spec, n in cases] == expected


@pytest.mark.parametrize(
    "spec,n",
    [
        (NestedSumSpec(((F(1, 2), F(1, 3), F(-2)),), (F(2), F(-3, 2))), (6,)),
        (NestedSumSpec(((F(1, 2), F(1, 3)), (F(0), F(5, 4))), (F(1, 3),)), (4, 3)),
        (NestedSumSpec(((F(1), F(2), F(3)),) * 3, (F(1), F(7, 2))), (2, 3, 2)),
    ],
)
def test_direct_builds_each_column_factor_once_per_call(monkeypatch, spec, n):
    calls = []

    def counting(a, b, k):
        calls.append((a, b, k))
        return gen_binomial_pair(a, b, k)

    monkeypatch.setattr(nestedsums, "gen_binomial_pair", counting)
    first = c_direct(spec, n)
    per_call = len(calls)
    assert c_direct(spec, n) == first == c_by_literal_product(spec, n)
    # the second call builds every factor again: no cache outlives a call
    assert len(calls) == 2 * per_call
    assert per_call == len(direct_denominator_columns(spec, n))


# --- windows: chain enumeration over a list of points -----------------------


@st.composite
def window_cases(draw):
    """A spec with r, p <= 3 and up to 8 points with entries <= 3, repeats and zeros allowed."""
    r, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    xblocks = tuple(tuple(draw(fill_x) for _ in range(p)) for _ in range(r))
    tparams = tuple(draw(fill_t) for _ in range(p - 1))
    point = st.tuples(*[st.integers(0, 3)] * r)
    points = draw(st.lists(point, max_size=6))
    repeats = draw(st.lists(st.sampled_from(points), max_size=2)) if points else []
    return NestedSumSpec(xblocks, tparams), points + repeats


def window_value(pair):
    numerator, denominator = pair
    assert isinstance(numerator, int) and isinstance(denominator, int) and denominator > 0
    return F(numerator, denominator)


@settings(max_examples=80, deadline=None)
@given(window_cases())
@example((NestedSumSpec(((F(1, 2), F(-2, 3), F(5, 7)), (F(0), F(1, 3), F(0))),
                       (F(-7, 3), F(-1, 2))),
          [(0, 0), (2, 3), (0, 3), (2, 3), (3, 0), (0, 0)]))
@example((NestedSumSpec(((F(3, 4), F(-1, 5)),), (F(-5, 2),)), [(3,), (0,), (3,), (1,)]))
@example((NestedSumSpec(((F(2, 3), F(-1, 4), F(5)), (F(-3, 2), F(1, 7), F(2, 5))),
                       (F(-7, 3), F(5, 2))),
          [(0, 1), (6, 5), (1, 0), (2, 2), (6, 5)]))
def test_window_matches_fraction_group_reference(case):
    # repeated points, zero entries and negative non-integer shifts, where
    # gen_binomial changes sign, each give the pointwise reference value;
    # the last example's (6, 5) sets the key radix R = 12, and its column
    # sums reach R - 1 = 11 next to the small points' codes
    spec, points = case
    values = direct_window(spec, points)
    assert len(values) == len(points)
    assert [window_value(pair) for pair in values] == [
        c_direct_by_fraction_groups(spec, n) for n in points
    ]


WINDOW_CASES = [
    (NestedSumSpec(((F(1, 2), F(1, 3), F(-2)),), (F(2), F(-3, 2))),
     [(n,) for n in range(6)] + [(2,), (4,)]),
    (NestedSumSpec(((F(1, 2), F(1, 3)), (F(0), F(5, 4))), (F(1, 3),)),
     list(itertools.product(range(4), range(3)))),
    (NestedSumSpec(((F(1), F(2), F(3)),) * 3, (F(1), F(7, 2))),
     [(2, 3, 2), (0, 1, 2), (2, 2, 2), (0, 1, 2)]),
]


@pytest.mark.parametrize("spec,points", WINDOW_CASES)
def test_window_builds_chains_per_slot_entry_and_factors_per_column(monkeypatch, spec, points):
    chain_calls, binomial_calls = [], []
    block_chain_data = nestedsums._block_chain_data

    def counting_chains(d, numerators, n, radix):
        chain_calls.append(((d, tuple(numerators)), n))
        return block_chain_data(d, numerators, n, radix)

    def counting_binomial(a, b, k):
        binomial_calls.append((a, b, k))
        return gen_binomial_pair(a, b, k)

    monkeypatch.setattr(nestedsums, "_block_chain_data", counting_chains)
    monkeypatch.setattr(nestedsums, "gen_binomial_pair", counting_binomial)
    values = direct_window(spec, points)
    assert [window_value(pair) for pair in values] == [c_direct(spec, n) for n in points]
    chain_calls.clear()
    binomial_calls.clear()
    direct_window(spec, points)
    # the second call builds everything again, since no cache outlives a
    # call: one chain list per distinct (slot, n_i), one factor per column
    slot_entries = {(i, n[i]) for n in points for i in range(spec.r)}
    assert sorted(chain_calls) == sorted(
        (over_common_denominator(spec.xblocks[i]), ni) for i, ni in slot_entries
    )
    columns = set().union(*(direct_denominator_columns(spec, n) for n in points))
    assert len(binomial_calls) == len(set(binomial_calls)) == len(columns)


@pytest.mark.parametrize("spec,points", WINDOW_CASES)
def test_window_builds_one_common_denominator_per_slot(monkeypatch, spec, points):
    blocks = []

    def counting(values):
        values = tuple(values)
        blocks.append(values)
        return common_denominator(values)

    monkeypatch.setattr(nestedsums, "common_denominator", counting)
    values = direct_window(spec, points)
    expected = [c_direct_by_fraction_groups(spec, n) for n in points]
    assert [window_value(pair) for pair in values] == expected
    # once per slot for the whole window, not once per distinct (slot, n_i)
    assert blocks == list(spec.xblocks)


def test_window_drops_each_chain_list_after_its_last_reader():
    # a line of the last axis, as the recurrence sweep passes it, reads each
    # chain list at one point only: holding all 30 lists peaks near 5x one
    # corner window, dropping each after its reader near 2x
    spec = NestedSumSpec.parse("1/2,-1/3,2/7", "5/2,-1/3")
    tracemalloc.start()
    try:
        direct_window(spec, [(29,)])
        _, corner_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        direct_window(spec, [(n,) for n in range(30)])
        _, line_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert line_peak < 3.5 * corner_peak


def test_window_reads_no_recurrence_fill(monkeypatch):
    def refuse(self, corner):
        raise AssertionError("direct_window read a recurrence fill")

    rng = Random(23)
    cases = [(spec, list(itertools.product(range(3), repeat=spec.r)))
             for spec in (random_spec(rng, 3, 3) for _ in range(8))]
    expected = [[c_direct_by_fraction_groups(spec, n) for n in points] for spec, points in cases]
    monkeypatch.setattr(RecurrenceEvaluator, "_fill", refuse)
    assert [[window_value(pair) for pair in direct_window(spec, points)]
            for spec, points in cases] == expected


def test_window_checks_every_point_before_any_chain(monkeypatch):
    spec = NestedSumSpec(((F(1), F(2), F(3)),), (F(1), F(1)))
    monkeypatch.setattr(nestedsums, "_block_chain_data", _refuse)
    monkeypatch.setattr(nestedsums, "enumerate_chains", _refuse)
    # 861 summands at n = 40, the last of the window
    with pytest.raises(GuardExceeded, match="^direct summand count: 861 exceeds guard 800$"):
        direct_window(spec, [(0,), (3,), (40,)], guard=800)
    assert direct_window(spec, [], guard=800) == []


@settings(max_examples=80, deadline=None)
@given(fill_cases())
def test_recurrence_table_matches_reference_fill(case):
    spec, extents = case
    table = RecurrenceEvaluator(spec).table(extents)
    reference = reference_fill(spec, tuple(e - 1 for e in extents))
    assert dict(zip(itertools.product(*map(range, table.shape)), table.values)) == reference


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
    # an evaluator holds one fill: a read outside its box raises, never refills
    spec = NestedSumSpec.parse("1/2,1/3;-2/5,3", "-3/2")
    reference = reference_fill(spec, (3, 1))
    evaluator = RecurrenceEvaluator(spec)
    # the first read fills the box below (3, 1); the others read inside it
    earlier = {m: evaluator.value(m) for m in [(3, 1), *reference]}
    assert evaluator.memo_entries == 2 * 4 * 2
    for outside in [(0, 2), (4, 0), (4, 2)]:
        with pytest.raises(ValueError, match="outside the filled box"):
            evaluator.value(outside)
    for box in [(3, 2), (4, 1), (5, 2), (4, 3)]:
        with pytest.raises(ValueError, match="not the filled box"):
            evaluator.table(box)
    assert evaluator.memo_entries == 2 * 4 * 2
    for m, value in earlier.items():
        assert evaluator.value(m) == value == reference[m]
    assert evaluator.table((4, 2)).values == tuple(reference.values())


def test_recurrence_refill_guard():
    spec = NestedSumSpec.parse("1/2,1/3;1/5,2", "2")
    with pytest.raises(GuardExceeded) as info:
        RecurrenceEvaluator(spec, guard=2 * 5 * 3 - 1).value((4, 2))
    assert info.value.size == 2 * 5 * 3
    evaluator = RecurrenceEvaluator(spec, guard=2 * 5 * 3)
    first = evaluator.value((4, 2))
    assert evaluator.memo_entries == 2 * 5 * 3
    # (4, 3) would need 40 cells: the read raises before any guard is checked
    with pytest.raises(ValueError, match="outside the filled box"):
        evaluator.value((0, 3))
    assert evaluator.memo_entries == 2 * 5 * 3
    assert evaluator.value((4, 2)) == first == c_direct(spec, (4, 2))
    assert evaluator.value((0, 2)) == c_direct(spec, (0, 2))

@pytest.mark.parametrize(
    "xtext, ttext",
    [
        ("2/3;-1/4", ""),  # p = 1: E_0(s) = d^s
        ("1/2,1/3;-2/5,3", "-1/2"),  # E_0(0) = -1, and E_0(s) < 0 for every s
        ("1/2,0,3;-2,1/7,1", "5/3,-7/2"),  # E_0 changes sign with s
        ("1/3,2,-1/2,4", "-5/4,-1/2,-9/7"),  # three negative shift numerators
    ],
)
def test_recurrence_table_equals_value_at_every_point(xtext, ttext):
    spec = NestedSumSpec.parse(xtext, ttext)
    box = (5,) * spec.r
    evaluator = RecurrenceEvaluator(spec)
    table = evaluator.table(box)
    assert table.denominator > 0
    for m in itertools.product(*map(range, box)):
        assert table[m] == evaluator.value(m) == c_direct(spec, m)


@st.composite
def row_fill_cases(draw):
    """r = 1..3 and p = 1..5, zero x entries in any column, and rows of width 1.

    The fill walks rows of the last axis: a last extent of 1 gives rows of
    one cell, and a zero x_{k,l} drops slot k's term at level l.  The head
    H_l(s) has factors at s - 1 only at levels l >= 1 with l < p - 1, so
    only p >= 3 reads them, and p = 5 reads them at three levels.
    """
    r, p = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    xblocks = [[draw(fill_x) for _ in range(p)] for _ in range(r)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, p - 1)),
                              max_size=r * p)):
        xblocks[i][j] = F(0)
    tparams = tuple(draw(fill_t) for _ in range(p - 1))
    extents = tuple(draw(st.integers(1, 4)) for _ in range(r - 1))
    extents += (draw(st.one_of(st.just(1), st.integers(1, 5))),)
    return NestedSumSpec(tuple(map(tuple, xblocks)), tparams), extents


@settings(max_examples=120, deadline=None)
@given(row_fill_cases())
@example((NestedSumSpec(((F(1, 2), F(-2, 3), F(5, 7)), (F(1, 3), F(3, 4), F(-1, 5)),
                        (F(2), F(1, 9), F(-3, 8))), (F(-5, 9), F(7, 2))), (3, 4, 1)))
@example((NestedSumSpec(((F(0), F(1, 2)), (F(2, 3), F(0)), (F(-1, 4), F(5))), (F(3, 2),)),
          (3, 2, 4)))
@example((NestedSumSpec(((F(1, 3), F(-1, 2), F(0), F(4)),), (F(-7, 2), F(1, 5), F(2))), (1,)))
@example((NestedSumSpec(((F(0),) * 4, (F(1, 6), F(0), F(-2), F(1, 4))), (F(1, 2),) * 3),
          (4, 1)))
@example((NestedSumSpec(((F(1, 2), F(2, 3), F(-5, 7), F(3, 4), F(1, 5)),),
                       (F(3, 2), F(-7, 4), F(5, 3), F(-1, 9))), (41,)))
@example((NestedSumSpec(((F(1, 3), F(-1, 8), F(2, 9), F(5, 6), F(2)),
                        (F(-3, 4), F(1, 2), F(7, 9), F(-1, 6), F(-1))),
                       (F(-5, 2), F(4, 3), F(-1, 7), F(9, 8))), (4, 1)))
@example((NestedSumSpec(((F(1, 2), F(-4, 3), F(2, 7), F(3)), (F(5, 6), F(1, 9), F(-1), F(1, 2)),
                        (F(-2, 5), F(3, 4), F(1, 8), F(-7))), (F(-9, 4), F(7, 5), F(-3, 2))),
          (2, 3, 1)))
@example((NestedSumSpec(((F(-1, 6), F(3, 8), F(4, 5), F(1, 7), F(-2, 3)),
                        (F(2, 9), F(-5, 4), F(1, 3), F(3, 2), F(1, 3))),
                       (F(7, 3), F(-3, 5), F(8, 7), F(-11, 2))), (2, 41)))
def test_row_fill_matches_reference_fill(case):
    # the examples pin rows of width 1 at r = 2 and 3, a zero column at
    # each level, a one-point box at p = 4, a slot whose x are all zero,
    # and, at p = 4 and 5, D_0 != D_L, every b_l > 1 with negative a_l,
    # and rows of 41 cells
    spec, extents = case
    corner = tuple(e - 1 for e in extents)
    reference = reference_fill(spec, corner)
    evaluator = RecurrenceEvaluator(spec)
    table = evaluator.table(extents)
    assert dict(zip(itertools.product(*map(range, extents)), table.values)) == reference
    assert evaluator.memo_entries == recurrence_cell_count(spec, corner)
    assert all(evaluator.value(m) == value for m, value in reference.items())


def test_fill_denominator_bits_are_pinned():
    # every level shares the denominators 2, 3 and 6: E_0(top) holds D_0^top
    # = 6^top once, where a product of each level's lcm held 6^(3 top) in
    # 702 bits
    spec = NestedSumSpec.parse("1/6,1/2,1/3;1/3,1/6,1/2", "5/2,-1/3")
    table = RecurrenceEvaluator(spec).table((20, 20))
    assert table.denominator.bit_length() == 506
    assert fill_bits(spec, (19, 19)) == 400 * 506


def test_fill_bits_is_an_int_past_float_range():
    # each sum below overflows the floats: top is past 2^1024, top log2 D_0
    # is past the largest float, or lgamma(top + 1 + t) is
    huge = 10**400
    assert fill_bits(NestedSumSpec.parse("1/2"), (huge - 1,)) == huge * (huge - 1)
    assert fill_bits(NestedSumSpec.parse("3"), (huge,)) == 0
    wide = NestedSumSpec(((F(1, 2**2000),),), ())
    assert fill_bits(wide, (10**306,)) == (10**306 + 1) * 2000 * 10**306
    # log2 6 + log2 |(2)(3)...(top + 2)| / (top + 1), about 1019 bits per unit of top
    per_cell = fill_bits(NestedSumSpec.parse("1/2,1/3", "2"), (10**306,)) // (10**306 + 1)
    assert 1000 * 10**306 < per_cell < 1030 * 10**306


@settings(max_examples=80, deadline=None)
@given(fill_cases())
def test_fill_bits_estimate_the_table_within_a_bit_per_cell(case):
    spec, extents = case
    table = RecurrenceEvaluator(spec).table(extents)
    cells = len(table.values)
    measured = cells * table.denominator.bit_length()
    assert abs(fill_bits(spec, tuple(e - 1 for e in extents)) - measured) <= cells


def test_fill_bits_guard_refuses_corners_past_any_float(monkeypatch):
    # (10^300 + 1) cells times ceil(10^300 log2 3) bits: the product is an
    # int, where the float product would overflow
    spec = NestedSumSpec.parse("1/3,1/2", "1")
    monkeypatch.setattr(nestedsums, "_points", _refuse)
    with pytest.raises(GuardExceeded) as info:
        c_recursive(spec, (10**300,), guard=10**400)
    assert info.value.what == "recurrence fill bits"
    assert info.value.size > 10**600


@pytest.mark.parametrize("t, exact", [
    (F(2**60) + F(1, 3), True),  # past 2^40: (top + 1) log2(|t| + top), near exact
    (-F(2**60) - F(1, 2), True),
    (F(10**400, 7), True),  # past any float
    (F(-1, 10**30), True),  # log-gamma near its pole at 0, still exact in floats
    (F(-3) + F(1, 10**20), False),  # a float pole: bounded above instead
    (F(1, 10**400), False),
])
def test_fill_bits_on_shifts_floats_cannot_hold(t, exact):
    spec = NestedSumSpec(((F(1, 2), F(2, 3)),), (t,))
    for extent in (6, 40):
        table = RecurrenceEvaluator(spec).table((extent,))
        measured = extent * table.denominator.bit_length()
        estimate = fill_bits(spec, (extent - 1,))
        assert estimate >= measured - extent
        assert estimate <= measured if exact else estimate >= measured


def test_fill_bits_guard_boundary(monkeypatch):
    # x = 1/2 at depth 1: E_0(n) = 2^n, so the table below n holds
    # (n + 1) * n bits; n = 16383 is the last n at or under 2^28
    spec = NestedSumSpec.parse("1/2")
    assert fill_bits(spec, (16383,)) == 16383 * 16384 <= NUMERATOR_TABLE_MAX_BITS
    assert fill_bits(spec, (16384,)) == 16384 * 16385 > NUMERATOR_TABLE_MAX_BITS
    assert c_recursive(spec, (16383,)) == F(1, 2**16383)
    monkeypatch.setattr(nestedsums, "_points", _refuse)
    with pytest.raises(GuardExceeded) as info:
        c_recursive(spec, (16384,))
    assert (info.value.what, info.value.size) == ("recurrence fill bits", 16384 * 16385)
    assert info.value.limit == NUMERATOR_TABLE_MAX_BITS


# --- identity verifiers ----------------------------------------------------------


def failed(report):
    """The indices of the report's failing rows, in report order."""
    return [index for _, _, index, *_, equal in report.comparisons if not equal]


def test_duality_depth_two_frozen_value():
    # both sides at n=1 equal ((1-x1) + t(1-x2)) / (t(1+t)) = 11/36
    spec = NestedSumSpec(((F(1, 2), F(1, 3)),), (F(2),))
    report = verify_duality(spec, (2,))
    assert report.ok
    _, _, index, ln, ld, rn, rd, _ = report.comparisons[1]
    assert index == (1,)
    assert F(ln, ld) == F(rn, rd) == F(11, 36)


def test_duality_depth_one_is_complement_power():
    spec = NestedSumSpec(((F(2, 7),), (F(-1, 3),)), ())
    report = verify_duality(spec, (3, 3))
    assert report.ok
    rule = c_sequence(spec.one_minus())
    for _, _, index, _, _, rn, rd, _ in report.comparisons:
        assert F(rn, rd) == rule(index)


def test_duality_self_dual_at_one_half():
    spec = NestedSumSpec(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))), (F(5, 3),))
    report = verify_duality(spec, (3, 3))
    assert report.ok
    # one_minus fixes the spec, so the transform reproduces c itself
    rule = c_sequence(spec)
    for _, _, index, ln, ld, *_ in report.comparisons:
        assert F(ln, ld) == rule(index)


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
    return ReferenceReport(
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
        return MultiSequenceTable(out.shape, tuple(values))

    monkeypatch.setattr(RecurrenceEvaluator, "table", corrupted)
    report = verify_duality(spec, (4, 4))
    # nabla at n reads every value below n, so exactly the points above (1, 2) fail
    assert set(failed(report)) == {
        (i, j) for i in range(1, 4) for j in range(2, 4)
    }
    assert report.to_text().endswith("result: FAIL (6 of 16), 16 comparisons\n")


def test_duality_guard_trips_at_the_corner():
    spec = NestedSumSpec.parse("1/2,1/3", "2")
    with pytest.raises(GuardExceeded) as info:
        verify_duality(spec, (200,), guard=100)
    assert info.value.what == "direct summand count" and info.value.size == 200
    assert verify_duality(spec, (100,), guard=100).ok
    with pytest.raises(ValueError):
        verify_duality(spec, (0,), guard=0)


def test_difference_formula_zero_order_slice():
    spec = NestedSumSpec.parse("0,1", "1")
    report = verify_difference_formula(spec, (3,), (1,))
    assert report.ok
    for _, _, (n, k), ln, ld, *_ in report.comparisons:
        if k == 0:
            assert F(ln, ld) == c_direct(spec, (n,))


def test_difference_formula_origin_slice_is_duality():
    spec = NestedSumSpec.parse("1/2,-1/3", "3/4")
    diff = verify_difference_formula(spec, (1,), (4,))
    dual = verify_duality(spec, (4,))
    assert diff.ok and dual.ok
    diff_at_origin = {
        k: F(ln, ld) for _, _, (n, k), ln, ld, *_ in diff.comparisons if n == 0
    }
    for _, _, (n,), ln, ld, *_ in dual.comparisons:
        assert diff_at_origin[n] == F(ln, ld)


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
    _, _, _, ln, ld, rn, rd, _ = next(row for row in report.comparisons if row[2] == (1, 1))
    assert F(ln, ld) == F(rn, rd) == F(2, 9)


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
    return ReferenceReport(
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
        indices = itertools.product(*map(range, out.shape))
        values = tuple(change(index, value) for index, value in zip(indices, out.values))
        return MultiSequenceTable(out.shape, values)

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
        assert set(failed(report)) == {
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
        assert set(failed(report)) == failures


def test_difference_formula_corner_is_chain_enumeration(monkeypatch):
    # both fills doubled: the transform and the doubled fill still agree, so
    # only the chain-enumerated corner can fail
    spec = NestedSumSpec.parse("1/2,1/3;1/5,2", "2")
    table = RecurrenceEvaluator.table
    monkeypatch.setattr(
        RecurrenceEvaluator, "table",
        lambda self, extents: MultiSequenceTable(
            tuple(extents), tuple(2 * v for v in table(self, extents).values)
        ),
    )
    report = verify_difference_formula(spec, (3, 3), (3, 2))
    assert failed(report) == [(2, 2, 2, 1)]


def test_difference_formula_guard_trips_at_the_corner_first(monkeypatch):
    spec = NestedSumSpec.parse("1/2,1/3", "2")
    # the doubled corner (9, 9) has 10 * 10 summands
    with pytest.raises(GuardExceeded) as info:
        verify_difference_formula(spec, (10,), (10,), guard=99)
    assert info.value.what == "direct summand count" and info.value.size == 100
    assert verify_difference_formula(spec, (10,), (10,), guard=100).ok
    # at depth 1 every point has one summand and the fills bound the box:
    # the doubled fill over (31, 31) has 961 cells
    with pytest.raises(GuardExceeded) as info:
        verify_difference_formula(NestedSumSpec.parse("1/2"), (31,), (31,), guard=100)
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
        assert set(failed(report)) == expected, m


def test_shift_identity_corner_is_chain_enumeration(monkeypatch):
    with monkeypatch.context() as patch:
        corrupt_fill(patch, SHIFT_SPEC, lambda index, value: 2 * value)
        report = verify_shift_identity(SHIFT_SPEC, (1, 2), 1, (3, 2, 2))
    assert failed(report) == [(2, 1, 1)]


RECURRENCE_SPEC = NestedSumSpec.parse("1/2,1/3;1/5,2", "2")


def test_recurrence_fails_exactly_where_a_fill_value_is_wrong(monkeypatch):
    # each point compares its own fill value with its own chain enumeration
    for m in itertools.product(range(3), range(3)):
        with monkeypatch.context() as patch:
            corrupt_fill(patch, RECURRENCE_SPEC, lambda index, value: value + (index == m))
            report = verify_recurrence(RECURRENCE_SPEC, (3, 3))
        assert failed(report) == [m], m


def test_recurrence_fails_exactly_where_a_direct_value_is_wrong(monkeypatch):
    window = nestedsums.direct_window
    for m in itertools.product(range(3), range(3)):

        def nudged(spec, points, guard):
            pairs = window(spec, points, guard)
            return [(num + den * (n == m), den) for n, (num, den) in zip(points, pairs)]

        with monkeypatch.context() as patch:
            patch.setattr(nestedsums, "direct_window", nudged)
            report = verify_recurrence(RECURRENCE_SPEC, (3, 3))
        assert failed(report) == [m], m


def test_recurrence_builds_each_lines_chains_once(monkeypatch):
    # one window per line of the last axis: a line builds the chains of
    # slots 1..r-1 once, and those of slot r once per entry of the line
    windows = []
    window, block_chain_data = nestedsums.direct_window, nestedsums._block_chain_data

    def counting_window(spec, points, guard):
        windows.append((list(points), []))
        return window(spec, points, guard)

    def counting_chains(d, numerators, n, radix):
        windows[-1][1].append(((d, tuple(numerators)), n))
        return block_chain_data(d, numerators, n, radix)

    monkeypatch.setattr(nestedsums, "direct_window", counting_window)
    monkeypatch.setattr(nestedsums, "_block_chain_data", counting_chains)
    spec = NestedSumSpec.parse("1/2,1/3;1/5,2;-3/4,2/7", "5/2")
    box = (2, 3, 4)
    assert verify_recurrence(spec, box).ok
    heads = list(itertools.product(range(2), range(3)))
    assert [points for points, _ in windows] == [[head + (c,) for c in range(4)] for head in heads]
    for head, (_, builds) in zip(heads, windows):
        blocks = list(map(over_common_denominator, spec.xblocks))
        expected = [(blocks[i], ni) for i, ni in enumerate(head)]
        expected += [(blocks[2], c) for c in range(4)]
        assert sorted(builds) == sorted(expected), head
    # 6 lines of 2 + 4 builds, where a window per point builds 24 * 3
    assert sum(len(builds) for _, builds in windows) == 36


def test_sweeps_enumerate_chains_once_per_corner_and_read_no_table_fraction(monkeypatch):
    calls = {}
    for name in ("c_direct", "direct_window"):

        def counted(*args, name=name, original=getattr(nestedsums, name), **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(nestedsums, name, counted)

    def no_fraction(self, index):
        raise AssertionError("a sweep read a Fraction off a table")

    monkeypatch.setattr(MultiSequenceTable, "__getitem__", no_fraction)
    spec = RECURRENCE_SPEC
    # (sweep, c_direct calls, direct_window calls); c_direct runs one window
    sweeps = {
        "c-duality": (lambda: verify_duality(spec, (3, 3)), 1, 1),
        "difference-formula": (lambda: verify_difference_formula(spec, (3, 3), (3, 2)), 1, 1),
        "shift": (lambda: verify_shift_identity(SHIFT_SPEC, (1, 2), 1, (3, 2, 2)), 1, 1),
        "recurrence": (lambda: verify_recurrence(spec, (3, 3)), 0, 3),
    }
    for identity, (sweep, c_direct_calls, window_calls) in sweeps.items():
        calls.update(c_direct=0, direct_window=0)
        assert sweep().ok, identity
        assert calls == {"c_direct": c_direct_calls, "direct_window": window_calls}, identity
    for weight in range(1, 4):
        assert all(verify_mhs_duality(mu, 4).ok for mu in multi_indices_of_weight(weight))


def pointwise_shift(spec, subset, constant, box):
    """The shift report built point by point from direct values."""
    c, constant = c_sequence(spec), F(constant)
    label = f"{spec.text()} S={tuple(subset)} gamma={format_rational(constant)}"
    return ReferenceReport(
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
        verify_shift_identity(spec, (1, 2), 1, (10, 10), guard=99)
    assert info.value.what == "direct summand count" and info.value.size == 100
    # the fill over (11, 11) has 2 * 121 cells, over twice the guard
    with pytest.raises(GuardExceeded) as info:
        verify_shift_identity(spec, (1, 2), 1, (10, 10), guard=100)
    assert info.value.what == "recurrence cell count" and info.value.size == 242
    assert verify_shift_identity(spec, (1, 2), 1, (10, 10), guard=121).ok


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
        for _, _, (n,), _, _, rn, rd, _ in report.comparisons:
            assert F(rn, rd) == kt_value(complement, n)


def test_random_shift_configuration_satisfies_hypothesis():
    rng = Random(15)
    for _ in range(20):
        spec, subset, constant = random_shift_configuration(rng, 3, 3)
        for j in range(spec.p):
            assert sum(spec.xblocks[i - 1][j] for i in subset) == constant


@pytest.mark.parametrize("max_r", [1, 0, -3])
def test_random_shift_configuration_needs_two_slots(max_r):
    with pytest.raises(ValueError, match=f"max_r must be at least 2.*got {max_r}$"):
        random_shift_configuration(Random(0), max_r, 2)


def test_parse_shifts_blank_is_no_shifts():
    assert parse_shifts("") == parse_shifts("  ") == ()
    assert parse_shifts(" 1/2, -3 ") == (F(1, 2), F(-3))
    assert NestedSumSpec.parse("1/2", " ") == NestedSumSpec(((F(1, 2),),), ())
    with pytest.raises(ValueError, match="not a rational literal"):
        parse_shifts("1,,2")


def test_random_table_draws_one_rational_per_cell_in_row_major_order():
    table, rng = random_table(Random(4), (2, 3)), Random(4)
    assert table.shape == (2, 3)
    assert table.values == tuple(random_rational(rng) for _ in range(6))


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
