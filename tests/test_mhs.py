import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mhscalc import mhs
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
from mhscalc.errors import GuardExceeded
from mhscalc.multiseq import MultiSequenceTable
from mhscalc.nestedsums import enumerate_chains, kt_value

multi_indices = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(
    lambda parts: MultiIndex(tuple(parts))
)


def test_multi_index_validation():
    with pytest.raises(ValueError):
        MultiIndex(())
    with pytest.raises(ValueError):
        MultiIndex((1, 0, 2))


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


def test_mhs_duality_report_values():
    mus = [MultiIndex(parts) for parts in [(2,), (1,), (2, 1), (3,), (1, 2, 3)]]
    report = verify_mhs_duality(0, 2, mus=mus)
    assert report.ok and len(report.comparisons) == 5 * 3
    values = {(comp.spec, comp.index): comp.lhs for comp in report.comparisons}
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
    report = verify_mhs_duality(0, 4, mus=[MultiIndex((3,)), bad])
    assert [comp.index for comp in report.failures] == [(2,), (3,), (4,)]
    assert all(comp.spec.startswith("mu=(2,1)") for comp in report.failures)


def test_mhs_duality_fails_on_a_corrupted_dual_value(monkeypatch):
    # the dual's table is the right side below the corner, point by point
    _patch_table(monkeypatch, _off_by_one(MultiIndex((1, 2)), 2))
    report = verify_mhs_duality(0, 4, mus=[MultiIndex((3,)), MultiIndex((2, 1))])
    assert [(comp.spec, comp.index) for comp in report.failures] == [
        ("mu=(2,1) mu*=(1,2)", (2,))
    ]


def test_mhs_duality_corner_is_chain_enumeration(monkeypatch):
    # doubling every table value keeps the transform and the dual's table in
    # agreement; only the chain-enumerated corner can catch it
    _patch_table(monkeypatch, lambda mu, values: [2 * value for value in values])
    report = verify_mhs_duality(3, 4)
    assert len(report.comparisons) == 7 * 5
    assert [comp.index for comp in report.failures] == [(4,)] * 7


def test_mhs_table_equals_chain_enumeration():
    for weight in range(1, 7):
        for mu in multi_indices_of_weight(weight):
            table = mhs_table(mu, 8)
            assert table.shape == (9,)
            assert list(table.values) == [mhs_value(mu, n) for n in range(9)]


def test_mhs_table_cell_guard():
    assert mhs_table(MultiIndex((1, 2, 3)), 9, cell_guard=30).values[0] == 1
    with pytest.raises(GuardExceeded) as info:
        mhs_table(MultiIndex((1, 2, 3)), 10, cell_guard=30)
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


def test_mhs_value_routes_agree(monkeypatch):
    mus = [mu for weight in range(1, 7) for mu in multi_indices_of_weight(weight)]
    integer = [mhs_value(mu, n) for mu in mus for n in range(9)]
    monkeypatch.setattr(mhs, "NUMERATOR_TABLE_MAX_BITS", -1)
    assert not any(mhs.integer_numerators(mu, 8) for mu in mus)
    assert [mhs_value(mu, n) for mu in mus for n in range(9)] == integer


def test_integer_numerators_bound():
    # depth 3 and more, up to 2^28 bits of tabulated numerators
    assert mhs.NUMERATOR_TABLE_MAX_BITS == 2**28
    assert not mhs.integer_numerators(MultiIndex((1, 1)), 12)
    assert mhs.integer_numerators(MultiIndex((1, 1, 1)), 12)
    assert mhs.numerator_table_bits(MultiIndex((1, 1, 1)), 9458) == 268_418_043
    assert mhs.integer_numerators(MultiIndex((1, 1, 1)), 9458)
    assert not mhs.integer_numerators(MultiIndex((1, 1, 1)), 9459)
    assert not mhs.integer_numerators(MultiIndex((1, 1, 500)), 4000)


def test_mhs_value_guard_trips_before_the_table():
    # 2 * 3001 numerators of about 4,300 bits would take megabytes
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded) as info:
            mhs_value(MultiIndex((1, 1, 1)), 3000, chain_guard=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.size, info.value.limit) == (4_504_501, 100)
    assert peak < 100_000


def test_duality_sweep_small():
    report = verify_mhs_duality(4, 5)
    assert report.ok
    assert len(report.comparisons) == 15 * 6  # compositions of weight <= 4, n <= 5


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
