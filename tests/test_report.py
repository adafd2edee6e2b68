"""The row report against the Comparison-list reference, and the verifiers' rows."""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mhscalc import cli
from mhscalc.cli import main
from mhscalc.report import VerificationReport, comparison_row, sweep_report
from reference_report import Comparison, ReferenceReport

BIG = 10 ** (sys.get_int_max_str_digits() + 100)

integers = st.one_of(
    st.integers(-60, 60),
    st.integers(-3, 3).map(lambda k: k * BIG + 7),
)
denominators = st.one_of(st.integers(1, 60), st.just(BIG + 1))
scales = st.integers(1, 6)


@st.composite
def sides(draw):
    """(ln, ld, rn, rd): equal over different unreduced denominators, or independent."""
    numerator, denominator = draw(integers), draw(denominators)
    left, right = draw(scales), draw(scales)
    if draw(st.booleans()):
        return numerator * left, denominator * left, numerator * right, denominator * right
    return numerator * left, denominator * left, draw(integers), draw(denominators)


rows = st.lists(
    st.tuples(
        st.sampled_from(["c-duality", "egf-suite"]),
        st.text(st.sampled_from('ab ,;="/|'), max_size=6),
        st.lists(st.integers(0, 12), min_size=1, max_size=3).map(tuple),
        sides(),
    ).map(lambda drawn: comparison_row(*drawn[:3], *drawn[3])),
    max_size=12,
)


def _reference(report: VerificationReport, row_list) -> ReferenceReport:
    return ReferenceReport(report.identity, report.statement, [
        Comparison(identity, label, index, F(ln, ld), F(rn, rd))
        for identity, label, index, ln, ld, rn, rd, _ in row_list
    ])


def test_equal_rows_over_unreduced_denominators():
    row = comparison_row("c-duality", "spec", (0,), 2, 4, 1, 2)
    assert row[-1] is True
    assert comparison_row("c-duality", "spec", (0,), 0, 3, 0, 5)[-1] is True
    assert comparison_row("c-duality", "spec", (0,), -1, 2, 1, 2)[-1] is False


@settings(max_examples=80, deadline=None)
@given(rows)
def test_row_report_matches_the_reference(row_list):
    report = VerificationReport("c-duality", "statement", list(row_list))
    reference = _reference(report, row_list)
    assert report.to_text() == reference.to_text()
    assert report.to_json() == reference.to_json()
    assert report.to_csv() == reference.to_csv()
    assert report.ok == reference.ok
    assert [index for _, _, index, *_, equal in report.comparisons if not equal] == [
        comp.index for comp in reference.failures
    ]


# equal or independent sides (BIG among them), zero against zero, zero
# against a nonzero value (FAIL), and BIG against itself
mixed_sides = st.one_of(
    sides(),
    st.tuples(st.just(0), denominators, st.just(0), denominators),
    st.tuples(st.just(0), denominators, integers.filter(bool), denominators),
    st.tuples(scales, scales).map(lambda s: (BIG * s[0], s[0], BIG * s[1], s[1])),
)


@st.composite
def rows_with_repeated_indices(draw):
    """Rows whose indices come from a pool of 3, so that each text is reused."""
    index = st.lists(st.integers(0, 12), min_size=1, max_size=3).map(tuple)
    pool = draw(st.lists(index, min_size=3, max_size=3))
    return draw(st.lists(
        st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(pool), mixed_sides).map(
            lambda drawn: comparison_row("egf-suite", drawn[0], drawn[1], *drawn[2])
        ),
        max_size=16,
    ))


@settings(max_examples=80, deadline=None)
@given(rows_with_repeated_indices())
def test_rows_with_repeated_indices_match_the_reference(row_list):
    report = VerificationReport("egf-suite", "statement", list(row_list))
    reference = _reference(report, row_list)
    assert report.to_text() == reference.to_text()
    assert report.to_json() == reference.to_json()
    assert report.to_csv() == reference.to_csv()


def test_comparisons_read_as_a_sequence():
    report = sweep_report("c-duality", "statement", "spec", [(0,), (1,), (2,)],
                          [(1, 2), (3, 1), (-1, 1)], [(2, 4), (3, 1), (1, 1)])
    assert report.comparisons == [
        ("c-duality", "spec", (0,), 1, 2, 2, 4, True),
        ("c-duality", "spec", (1,), 3, 1, 3, 1, True),
        ("c-duality", "spec", (2,), -1, 1, 1, 1, False),
    ]
    given_rows = report.comparisons[:1]
    assert VerificationReport("c-duality", "statement", given_rows).comparisons is given_rows
    first, second = VerificationReport("a", "s"), VerificationReport("b", "s")
    assert first.comparisons == [] and first.comparisons is not second.comparisons


def test_extend_takes_comparisons():
    report = VerificationReport("c-duality", "statement", [
        comparison_row("c-duality", "spec", (0,), 1, 3, 2, 6),
    ])
    part = sweep_report("c-duality", "statement", "spec", [(1,)], [(1, 1)], [(2, 1)])
    report.comparisons.extend(part.comparisons)
    assert report.comparisons == [
        ("c-duality", "spec", (0,), 1, 3, 2, 6, True),
        ("c-duality", "spec", (1,), 1, 1, 2, 1, False),
    ]
    assert not report.ok and report.to_text().endswith("result: FAIL (1 of 2), 2 comparisons\n")


HOT_PATH_COMMANDS = [
    ("verify", "--identity=egf-suite", "--degree=2"),
    ("verify", "--identity=c-duality", "--x=1/2,1/3;2,-1", "--t=3/2", "--nmax=2"),
    ("verify", "--identity=mhs-duality", "--wmax=3", "--nmax=3"),
    ("verify", "--identity=recurrence", "--count=2", "--seed=7"),
]


def _is_row(row) -> bool:
    """Whether `row` is a `Row`: an 8-tuple of strs, ints and the cross-multiplied verdict."""
    identity, label, index, ln, ld, rn, rd, equal = row
    return (
        type(row) is tuple and type(identity) is str and type(label) is str
        and type(index) is tuple
        and all(type(value) is int for value in (*index, ln, ld, rn, rd))
        and ld > 0 and rd > 0 and equal is (ln * rd == rn * ld)
    )


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", HOT_PATH_COMMANDS, ids=[argv[1] for argv in HOT_PATH_COMMANDS])
def test_verify_builds_no_comparison(capsys, monkeypatch, argv, fmt):
    """Each check of a verify run is an int row, printed as the reference prints it."""
    reports = []
    emit_report = cli._emit_report

    def recording(args, report):
        reports.append(report)
        return emit_report(args, report)

    monkeypatch.setattr(cli, "_emit_report", recording)
    assert main([*argv, f"--format={fmt}"]) == 0
    [report] = reports
    assert type(report.comparisons) is list and report.comparisons
    assert all(map(_is_row, report.comparisons))
    reference = _reference(report, report.comparisons)
    rendered = {"text": reference.to_text(), "json": reference.to_json() + "\n",
                "csv": reference.to_csv()}
    assert capsys.readouterr().out == rendered[fmt]
