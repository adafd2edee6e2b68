"""Comparison reports produced by the identity verifiers.

A report stores one row of ints per checked point:

    (identity, label, index, lhs numerator, lhs denominator,
     rhs numerator, rhs denominator, equal)

Both denominators are positive but need not be in lowest terms, and `equal`
is decided by cross-multiplication, so a verifier appends rows straight from
the int numerators of its tables and series.  A report's `comparisons` is
the list of its rows; the verdict and the text, JSON and CSV renderings read
it: an equal row is reduced once and its text printed for both sides, a FAIL
row formats each side.

All orderings are deterministic (index order within a sweep, insertion order
across sweeps), so a report's bytes depend only on its inputs.  `render_csv`
is the package's one CSV writer: the reports and the CLI's value and `bench`
outputs use it.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Sequence

from .kernel import format_ratio

# (identity, label, index, lhs numerator, lhs denominator, rhs numerator,
#  rhs denominator, equal); denominators > 0.
Row = tuple[str, str, tuple[int, ...], int, int, int, int, bool]


def comparison_row(
    identity: str, label: str, index: tuple[int, ...], ln: int, ld: int, rn: int, rd: int
) -> Row:
    """The row comparing ln/ld with rn/rd (ld, rd > 0) by cross-multiplication."""
    return (identity, label, index, ln, ld, rn, rd, ln * rd == rn * ld)


def render_csv(rows: Sequence[dict], fields: Sequence[str] | None = None) -> str:
    """A header line, then one line per row: `fields`, else the first row's keys.

    A list field prints as its entries separated by spaces, e.g. `0 1 1 0`.
    """
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields or list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(
        {key: " ".join(map(str, value)) if isinstance(value, list) else value
         for key, value in row.items()}
        for row in rows
    )
    return buffer.getvalue()


class VerificationReport:
    """All comparisons from one verification run, one `Row` each.

    `statement` is the identity being checked, written as a formula; it
    heads the text rendering and is embedded in the JSON envelope.  A library
    verifier reports one case; the CLI's `_cmd_verify` alone joins a sweep's
    reports, extending the first one's `comparisons` in case order.
    """

    def __init__(self, identity: str, statement: str, comparisons: list[Row] | None = None):
        self.identity = identity
        self.statement = statement
        self.comparisons: list[Row] = [] if comparisons is None else comparisons

    @property
    def ok(self) -> bool:
        return all(row[7] for row in self.comparisons)

    def _dicts(self) -> list[dict]:
        """Each row as the dict its JSON and CSV renderings print."""
        out = []
        for identity, label, index, ln, ld, rn, rd, equal in self.comparisons:
            left = format_ratio(ln, ld)
            out.append({
                "identity": identity,
                "spec": label,
                "index": list(index),
                "lhs": left,
                "rhs": left if equal else format_ratio(rn, rd),
                "equal": equal,
            })
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "identity": self.identity,
                "statement": self.statement,
                "ok": self.ok,
                "checked": len(self.comparisons),
                "comparisons": self._dicts(),
            },
            indent=2,
        )

    def to_csv(self) -> str:
        """One row per comparison; the index prints as space-separated entries."""
        return render_csv(self._dicts(), ("identity", "spec", "index", "lhs", "rhs", "equal"))

    def to_text(self) -> str:
        lines = [f"identity: {self.identity}", f"statement: {self.statement}"]
        failed, texts = 0, {}  # each distinct index's text, built once
        for _, label, index, ln, ld, rn, rd, equal in self.comparisons:
            left, at = format_ratio(ln, ld), texts.get(index) or texts.setdefault(index, str(index))
            if equal:
                lines.append(f"ok   {label} @ {at}: lhs={left} rhs={left}")
            else:
                failed += 1
                lines.append(f"FAIL {label} @ {at}: lhs={left} rhs={format_ratio(rn, rd)}")
        checked = len(self.comparisons)
        verdict = f"FAIL ({failed} of {checked})" if failed else "PASS"
        lines.append(f"result: {verdict}, {checked} comparisons")
        return "\n".join(lines) + "\n"


def sweep_report(
    identity: str,
    statement: str,
    label: str,
    points: Iterable[tuple[int, ...]],
    lhs: Iterable[tuple[int, int]],
    rhs: Iterable[tuple[int, int]],
) -> VerificationReport:
    """One row per point: the i-th point with the i-th lhs and rhs.

    Each value is an int pair (numerator, denominator > 0), not necessarily
    reduced, as a table's `pairs`, a fill's numerators or chain enumeration
    give it.  The three iterables are consumed in lockstep, so generators
    keep each point's evaluation next to its comparison.
    """
    return VerificationReport(identity, statement, [
        comparison_row(identity, label, index, ln, ld, rn, rd)
        for index, (ln, ld), (rn, rd) in zip(points, lhs, rhs, strict=True)
    ])
