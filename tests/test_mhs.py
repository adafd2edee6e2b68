from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from mhscalc import mhs
from mhscalc.mhs import (
    MultiIndex,
    dual_index,
    embed_type1,
    embed_type2,
    mhs_value,
    multi_indices_of_weight,
    verify_mhs_duality,
)
from mhscalc.nestedsums import kt_value

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


def test_mhs_duality_fails_on_a_corrupted_value(monkeypatch):
    # s_(2,1)(2) off by one: the transform weights it into every n >= 2
    bad = MultiIndex((2, 1))

    def corrupted(mu, n, *guard):
        return mhs_value(mu, n) + (1 if (mu, n) == (bad, 2) else 0)

    monkeypatch.setattr(mhs, "mhs_value", corrupted)
    report = verify_mhs_duality(0, 4, mus=[MultiIndex((3,)), bad])
    assert [comp.index for comp in report.failures] == [(2,), (3,), (4,)]
    assert all(comp.spec.startswith("mu=(2,1)") for comp in report.failures)


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


@given(multi_indices)
def test_embedding_complement_links_duality(mu):
    complement = tuple(1 - v for v in embed_type1(mu))
    assert complement == embed_type2(dual_index(mu))
