import itertools
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mhscalc import guards, mhs
from mhscalc.mhs import (
    MultiIndex,
    dual_index,
    embed_type1,
    embed_type2,
    mhs_table,
    mhs_value,
    multi_indices_of_weight,
    verify_mhs_duality,
)
from mhscalc.guards import GuardExceeded
from mhscalc.multiseq import MultiSequenceTable
from mhscalc.nestedsums import chain_tails, enumerate_chains
from pointwise import kt_value

multi_indices = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(
    lambda parts: MultiIndex(tuple(parts))
)


def test_multi_index_validation():
    with pytest.raises(ValueError):
        MultiIndex(())
    with pytest.raises(ValueError):
        MultiIndex((1, 0, 2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mhs_value(MultiIndex((1, 2)), -1), "n must be a natural, got -1"),
        (lambda: mhs_table(MultiIndex((1, 2)), -1), "n must be a natural, got -1"),
        (lambda: next(multi_indices_of_weight(0)), "weight must be positive, got 0"),
    ],
    ids=["mhs_value", "mhs_table", "multi_indices_of_weight"],
)
def test_malformed_sum_input_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_multi_index_parse_and_str():
    mu = MultiIndex.parse("(1,2,3)")
    assert mu.parts == (1, 2, 3)
    assert str(mu) == "(1,2,3)"
    assert MultiIndex.parse("4").parts == (4,)
    with pytest.raises(ValueError):
        MultiIndex.parse("(1,a)")


def test_weight_and_depth():
    mu = MultiIndex((4, 1, 1))
    assert mu.weight == 6
    assert mu.depth == 3


def test_compositions_enumeration():
    assert [mu.parts for mu in multi_indices_of_weight(3)] == [
        (3,),
        (1, 2),
        (2, 1),
        (1, 1, 1),
    ]
    assert sum(1 for _ in multi_indices_of_weight(6)) == 32


def test_mhs_at_zero_is_one():
    for parts in [(1,), (3, 2), (1, 1, 1, 1), (5,)]:
        assert mhs_value(MultiIndex(parts), 0) == 1


def test_mhs_small_values():
    assert mhs_value(MultiIndex((1,)), 2) == F(1, 3)
    assert mhs_value(MultiIndex((1, 1)), 1) == F(3, 4)  # 1/(2*1) + 1/(2*2)


def test_mhs_depth_one_is_power():
    for n in range(6):
        assert mhs_value(MultiIndex((2,)), n) == F(1, (n + 1) ** 2)


@pytest.mark.parametrize(
    "mu,dual",
    [
        ((1, 2, 3), (2, 2, 1, 1)),
        ((2, 2, 2), (1, 2, 2, 1)),
        ((4, 1, 1), (1, 1, 1, 3)),
        ((1, 1), (2,)),
        ((1,), (1,)),
    ],
)
def test_dual_index_known_pairs(mu, dual):
    assert dual_index(MultiIndex(mu)).parts == dual


@given(multi_indices)
def test_dual_is_weight_preserving_involution(mu):
    dual = dual_index(mu)
    assert dual.weight == mu.weight
    assert dual_index(dual) == mu


def _duality_rows(mus, max_n):
    """The rows of `verify_mhs_duality` for each mu, joined in order as the CLI joins them."""
    return [row for mu in mus for row in verify_mhs_duality(mu, max_n).comparisons]


def test_mhs_duality_report_values():
    mus = [MultiIndex(parts) for parts in [(2,), (1,), (2, 1), (3,), (1, 2, 3)]]
    rows = _duality_rows(mus, 2)
    assert all(row[7] for row in rows) and len(rows) == 5 * 3
    values = {(label, index): F(ln, ld) for _, label, index, ln, ld, *_ in rows}
    assert values["mu=(2) mu*=(1,1)", (1,)] == F(3, 4) == mhs_value(MultiIndex((1, 1)), 1)
    for label in ["mu=(1) mu*=(1)", "mu=(2,1) mu*=(1,2)", "mu=(3) mu*=(1,1,1)"]:
        assert values[label, (0,)] == 1
    assert values["mu=(1,2,3) mu*=(2,2,1,1)", (2,)] == mhs_value(MultiIndex((2, 2, 1, 1)), 2)


def _patch_table(monkeypatch, edit):
    """Make mhs.mhs_table return edit(mu, values) in place of its values."""

    def patched(mu, max_n, *guard):
        values = edit(mu, list(mhs_table(mu, max_n).values))
        return MultiSequenceTable((max_n + 1,), tuple(values))

    monkeypatch.setattr(mhs, "mhs_table", patched)


def _off_by_one(bad, n):
    def edit(mu, values):
        if mu == bad:
            values[n] += 1
        return values

    return edit


def test_mhs_duality_fails_on_a_corrupted_value(monkeypatch):
    # s_(2,1)(2) off by one: the transform weights it into every n >= 2,
    # the corner (chain enumeration) among them
    bad = MultiIndex((2, 1))
    _patch_table(monkeypatch, _off_by_one(bad, 2))
    rows = _duality_rows([MultiIndex((3,)), bad], 4)
    failed = [(label, index) for _, label, index, *_, equal in rows if not equal]
    assert [index for _, index in failed] == [(2,), (3,), (4,)]
    assert all(label.startswith("mu=(2,1)") for label, _ in failed)


def test_mhs_duality_fails_on_a_corrupted_dual_value(monkeypatch):
    # the dual's table is the right side below the corner, point by point
    _patch_table(monkeypatch, _off_by_one(MultiIndex((1, 2)), 2))
    rows = _duality_rows([MultiIndex((3,)), MultiIndex((2, 1))], 4)
    assert [(label, index) for _, label, index, *_, equal in rows if not equal] == [
        ("mu=(2,1) mu*=(1,2)", (2,))
    ]


def test_mhs_duality_corner_is_chain_enumeration(monkeypatch):
    # doubling every table value keeps the transform and the dual's table in
    # agreement; only the chain-enumerated corner can catch it
    _patch_table(monkeypatch, lambda mu, values: [2 * value for value in values])
    rows = _duality_rows([mu for w in range(1, 4) for mu in multi_indices_of_weight(w)], 4)
    assert len(rows) == 7 * 5
    assert [index for _, _, index, *_, equal in rows if not equal] == [(4,)] * 7


def test_mhs_table_equals_chain_enumeration():
    for weight in range(1, 7):
        for mu in multi_indices_of_weight(weight):
            table = mhs_table(mu, 12)
            assert table.shape == (13,)
            assert list(table.values) == [mhs_value(mu, n) for n in range(13)]


def test_mhs_table_bits_bound_the_numerators():
    for mu in map(MultiIndex, [(1,), (3,), (1, 1, 1, 1), (2, 1, 3), (1, 5)]):
        for n in (0, 1, 7, 40):
            table = mhs_table(mu, n)
            assert table.denominator == math.lcm(*range(1, n + 2)) ** mu.weight
            bits = sum(numerator.bit_length() for numerator in table.numerators)
            assert bits <= guards.mhs_table_bits(mu, n)


def test_mhs_table_bits_guard_trips_before_the_table():
    # mu = (1) up to 200000: 200001 numerators of about 290,000 bits each
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded) as info:
            mhs_table(MultiIndex((1,)), 200000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.what == "mhs table numerator bits"
    assert (info.value.size, info.value.limit) == (60_000_900_003, guards.NUMERATOR_TABLE_MAX_BITS)
    assert peak < 100_000


def test_mhs_table_cell_guard():
    assert mhs_table(MultiIndex((1, 2, 3)), 9, guard=30).values[0] == 1
    with pytest.raises(GuardExceeded) as info:
        mhs_table(MultiIndex((1, 2, 3)), 10, guard=30)
    assert (info.value.size, info.value.limit) == (33, 30)


def _fraction_sum(mu, n):
    """s_mu(n) as a plain sum of Fractions over the chains."""
    total = F(0)
    for chain in enumerate_chains(n, mu.depth):
        denominator = 1
        for m, part in zip(chain, mu.parts):
            denominator *= (m + 1) ** part
        total += F(1, denominator)
    return total


@given(multi_indices, st.integers(0, 9))
def test_mhs_value_equals_fraction_sum(mu, n):
    assert mhs_value(mu, n) == _fraction_sum(mu, n)


def test_mhs_value_routes_agree():
    # one Fraction per chain at depth 1 and 2, integer numerators from depth
    # 3 on: every mu of weight <= 6 up to n = 8 against the Fraction sum
    mus = [mu for weight in range(1, 7) for mu in multi_indices_of_weight(weight)]
    expected = [_fraction_sum(mu, n) for mu in mus for n in range(9)]
    assert [mhs_value(mu, n) for mu in mus for n in range(9)] == expected


def mhs_value_by_chain_products(mu, n):
    """s_mu(n) as the integer route summed it before prefixes: one loop per chain."""
    first, *rest = mu.parts
    lcm = math.lcm(*range(1, n + 2))
    scaled = [[(lcm // (m + 1)) ** part for m in range(n + 1)] for part in rest]
    total = 0
    for chain in enumerate_chains(n, mu.depth):
        term = 1
        for row, m in zip(scaled, chain[1:]):
            term *= row[m]
        total += term
    return F(total, (n + 1) ** first * lcm ** (mu.weight - first))


deep_indices = st.lists(st.integers(1, 4), min_size=3, max_size=10).map(
    lambda parts: MultiIndex(tuple(parts))
)


@settings(max_examples=60, deadline=None)
@given(deep_indices, st.integers(0, 14))
@example(MultiIndex((2, 1, 3)), 0)
@example(MultiIndex((1, 4, 2)), 9)
@example(MultiIndex((1,) * 4), 12)
@example(MultiIndex((1,) * 7), 12)
@example(MultiIndex((1,) * 8), 12)
@example(MultiIndex((2, 1, 3, 1, 1, 1, 1, 1, 1, 1)), 6)
def test_prefix_products_match_the_per_chain_loop(mu, n):
    # depth >= 3 takes the integer route, split at q = depth // 2 (the
    # examples cover q = 1 to 5); the reference loops over every chain, so
    # the deepest indices keep to small n
    assume(guards.chain_count(n, mu.depth) <= 60_000)
    assert mhs_value(mu, n) == mhs_value_by_chain_products(mu, n)


def _refuse(*args, **kwargs):
    raise AssertionError("mhs_value read a prefix sum")


def test_mhs_value_reads_no_table(monkeypatch):
    mus = [mu for weight in range(1, 8) for mu in multi_indices_of_weight(weight)]
    expected = [mhs_value(mu, n) for mu in mus for n in (0, 1, 5, 8)]
    monkeypatch.setattr(mhs, "mhs_table", _refuse)
    monkeypatch.setattr(itertools, "accumulate", _refuse)
    assert [mhs_value(mu, n) for mu in mus for n in (0, 1, 5, 8)] == expected


@pytest.mark.parametrize(
    "parts,n",
    [
        ((1, 1, 1), 0),
        ((2, 1, 3), 6),
        ((1,) * 7, 12),
        ((1,) * 4, 12),
        ((1,) * 8, 12),
        ((2, 1, 3, 1, 1, 1, 1, 1, 1, 1), 6),
    ],
)
def test_mhs_value_walks_each_prefix_once(monkeypatch, parts, n):
    mu = MultiIndex(parts)
    q = mu.depth // 2
    calls, listed = [], []

    def counting(n, p):
        calls.append((n, p))
        listed.append(list(chain_tails(n, p)))
        return iter(listed[-1])

    monkeypatch.setattr(mhs, "chain_tails", counting)
    # the suffixes and the prefixes are read as tails; no whole chain is built
    monkeypatch.setattr(mhs, "enumerate_chains", _refuse)
    assert mhs_value(mu, n) == mhs_value_by_chain_products(mu, n)
    # one table of suffixes (m_(p-q+1)..m_p), then one walk of the prefixes
    assert calls == [(n, q + 1), (n, mu.depth - q)]
    suffixes, prefixes = listed
    assert len(suffixes) == math.comb(n + q, q)
    assert len(prefixes) == guards.chain_count(n, mu.depth - q)
    # one summand per suffix under the prefix's last entry: one per chain
    assert sum(math.comb(prefix[-1] + q, q) for prefix in prefixes) == guards.chain_count(n, mu.depth)


def test_mhs_value_bits_guard_boundary():
    # depth 3 and more tabulates up to 2^28 bits of numerators: at depth 3
    # the rows of mu_2 and mu_3 and the suffix table, a copy of the last row
    assert guards.NUMERATOR_TABLE_MAX_BITS == 2**28
    mu = MultiIndex((1, 1, 1))
    assert guards.numerator_table_bits(mu, 7722) == 178_934_187
    assert guards.suffix_table_bits(mu, 7722) == 178_934_187 // 2
    guards.check(guards.plan_mhs_value(mu, 7722, 10**8))
    with pytest.raises(GuardExceeded) as info:
        guards.check(guards.plan_mhs_value(mu, 7723, 10**8))
    assert info.value.what == "mhs value numerator bits"
    assert (info.value.size, info.value.limit) == (268_470_792, 2**28)
    # depth 1 and 2 tabulate nothing, so only their chains are bounded
    guards.check(guards.plan_mhs_value(MultiIndex((1, 500)), 10**6, 10**7))
    with pytest.raises(GuardExceeded, match="^mhs value numerator bits: 24036013501 "):
        mhs_value(MultiIndex((1, 1, 500)), 4000)


def test_mhs_duality_checks_its_plan_once(monkeypatch):
    # mu = (3), mu* = (1,1,1): the corner's chains and rows' bits, each
    # table's cells and bits, then the transform; the callees run none
    checked = []

    def check(*blocks):
        checked.append(guards.check(*blocks))
        return checked[-1]

    monkeypatch.setattr(mhs, "check", check)
    assert verify_mhs_duality(MultiIndex((3,)), 6, guard=1000).ok
    bits = guards.NUMERATOR_TABLE_MAX_BITS
    assert [list(each) for each in checked] == [[
        ("chain count", 28, 1000), ("mhs value numerator bits", 220, bits),
        ("mhs table cell count", 7, 1000), ("mhs table numerator bits", 231, bits),
        ("mhs table cell count", 21, 1000), ("mhs table numerator bits", 273, bits),
        ("difference-pass subtraction count", 21, 64000),
    ]]


def test_mhs_value_suffix_table_guard_boundary():
    # arithmetic only: the suffix table of (1,1,20,20) at q = 2 holds
    # C(n+2, 2) products of at most 40 * 1.5 (n+1) bits, next to the rows
    mu = MultiIndex((1, 1, 20, 20))
    assert guards.suffix_table_bits(mu, 200) == 244_830_060
    assert guards.suffix_table_bits(mu, 210) == 283_153_560
    rows_and_suffixes = [
        guards.numerator_table_bits(mu, n) + guards.suffix_table_bits(mu, n) for n in (205, 206)
    ]
    assert rows_and_suffixes == [266_137_374, 270_012_973]
    # the plan bounds both, so n = 210 is refused
    with pytest.raises(GuardExceeded) as info:
        guards.check(guards.plan_mhs_value(mu, 210, guards.DEFAULT_GUARD))
    assert info.value.what == "mhs value numerator bits"
    assert (info.value.size, info.value.limit) == (285_891_601, 2**28)
    # the last n admitted and the first refused, with the first one's bits
    boundaries = [((1, 1, 20, 20), 205, 270_012_973), ((1, 1000, 1, 1), 361, 269_994_681),
                  ((2, 3, 4, 5), 339, 270_527_746), ((1, 1, 1, 50, 50, 50), 49, 269_406_378)]
    for parts, last, bits in boundaries:
        mu = MultiIndex(parts)
        guards.check(guards.plan_mhs_value(mu, last, 10**8))
        with pytest.raises(GuardExceeded) as info:
            guards.check(guards.plan_mhs_value(mu, last + 1, 10**8))
        assert (info.value.what, info.value.size) == ("mhs value numerator bits", bits)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=3, max_size=8), st.integers(0, 12))
@example([1, 1, 1], 12)  # 639 bits, over the 507 of a plan without the copy
def test_mhs_value_plan_bounds_the_tables_it_builds(parts, n):
    # the rows (L/(m+1))^mu_j of mu_2..mu_p and the products of the last
    # q = p // 2 rows over every suffix m_(p-q+1) >= ... >= m_p, at depth 3
    # (q = 1) a copy of the last row: their bits are at most the plan's entry
    mu = MultiIndex(tuple(parts))
    lcm = math.lcm(*range(1, n + 2))
    rows = [[(lcm // (m + 1)) ** part for m in range(n + 1)] for part in parts[1:]]
    bits = sum(value.bit_length() for row in rows for value in row)
    q = mu.depth // 2
    suffixes = itertools.combinations_with_replacement(range(n, -1, -1), q)
    bits += sum(
        math.prod(row[m] for row, m in zip(rows[-q:], suffix)).bit_length() for suffix in suffixes
    )
    (what, size, _), = guards.plan_mhs_value(mu, n, guards.DEFAULT_GUARD)[1:]
    assert what == "mhs value numerator bits" and bits <= size


def test_mhs_value_bits_guard_trips_before_the_table():
    # 899,811 chains pass the chain guard; the table's rows of (L/(m+1))^1 and
    # (L/(m+1))^100, m <= 1340, and the copy of the last, would hold about 2^29 bits
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded) as info:
            mhs_value(MultiIndex((1, 1, 100)), 1340)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.what == "mhs value numerator bits"
    assert (info.value.size, info.value.limit) == (542_181_721, 2**28)
    assert peak < 100_000


def test_mhs_value_guard_trips_before_the_table():
    # 2 * 3001 numerators of about 4,300 bits would take megabytes
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded) as info:
            mhs_value(MultiIndex((1, 1, 1)), 3000, guard=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.size, info.value.limit) == (4_504_501, 100)
    assert peak < 100_000


def test_duality_sweep_small():
    rows = _duality_rows([mu for w in range(1, 5) for mu in multi_indices_of_weight(w)], 5)
    assert all(row[7] for row in rows)
    assert len(rows) == 15 * 6  # compositions of weight <= 4, n <= 5


@pytest.mark.parametrize(
    "mu,expected",
    [((2,), (0, 1, 0)), ((1,), (1, 0)), ((1, 2, 3), (1, 0, 1, 0, 0, 1, 0))],
)
def test_embed_type1_vectors(mu, expected):
    assert embed_type1(MultiIndex(mu)) == expected


@pytest.mark.parametrize(
    "mu,expected",
    [((2,), (0, 0, 1)), ((1,), (0, 1)), ((1, 1), (1, 0, 1))],
)
def test_embed_type2_vectors(mu, expected):
    assert embed_type2(MultiIndex(mu)) == expected


@pytest.mark.parametrize("parts", [(1,), (2,), (1, 1), (1, 2, 3), (2, 2)])
def test_embeddings_reproduce_mhs(parts):
    mu = MultiIndex(parts)
    for n in range(5):
        expected = mhs_value(mu, n)
        assert kt_value(embed_type1(mu), n) == expected
        assert kt_value(embed_type2(mu), n) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(lambda parts: MultiIndex(tuple(parts))),
    st.integers(0, 5),
)
def test_embeddings_reproduce_mhs_everywhere(mu, n):
    # single-slot sums at the 0/1 parameter vectors, against chain enumeration
    expected = mhs_value(mu, n)
    assert kt_value(embed_type1(mu), n) == expected
    assert kt_value(embed_type2(mu), n) == expected


@given(multi_indices)
def test_embedding_complement_links_duality(mu):
    complement = tuple(1 - v for v in embed_type1(mu))
    assert complement == embed_type2(dual_index(mu))
