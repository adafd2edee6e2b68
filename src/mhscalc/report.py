"""Comparison reports produced by the identity verifiers.

A report stores one row of ints per checked point:

    (identity, label, index, lhs numerator, lhs denominator,
     rhs numerator, rhs denominator, equal)

Both denominators are positive but need not be in lowest terms, and `equal`
is decided by cross-multiplication, so a verifier appends rows straight from
the int numerators of its tables and series.  The verdict and the text, JSON
and CSV renderings read the rows: an equal row is reduced once and its text
printed for both sides, a FAIL row formats each side.  A `Comparison` (one
check with reduced Fractions) is built only where a caller reads one, from
`comparisons` or `failures`; `extend` takes Comparisons from library callers.

All orderings are deterministic (index order within a sweep, insertion order
across sweeps), so a report's bytes depend only on its inputs.  `render_csv`
is the package's one CSV writer: the reports and the CLI's value and `bench`
outputs use it.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .kernel import format_ratio, format_rational

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


@dataclass(frozen=True)
class Comparison:
    """One exact lhs-vs-rhs check at a concrete index."""

    identity: str
    spec: str
    index: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction
    equal: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "equal", self.lhs == self.rhs)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "spec": self.spec,
            "index": list(self.index),
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "equal": self.equal,
        }


def _comparison(row: Row) -> Comparison:
    identity, label, index, ln, ld, rn, rd, _ = row
    return Comparison(identity, label, index, Fraction(ln, ld), Fraction(rn, rd))


class _Comparisons(Sequence):
    """A read-only view of report rows as Comparisons, each built when read."""

    __slots__ = ("_rows",)

    def __init__(self, rows: list[Row]):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [_comparison(row) for row in self._rows[position]]
        return _comparison(self._rows[position])

    def __iter__(self) -> Iterator[Comparison]:
        return map(_comparison, self._rows)


class VerificationReport:
    """All comparisons from one verification run, stored as `rows`.

    `statement` is the identity being checked, written as a formula; it
    heads the text rendering and is embedded in the JSON envelope.  Another
    report's checks join this one by `report.rows.extend(part.rows)`.
    """

    def __init__(self, identity: str, statement: str, comparisons: Iterable[Comparison] = ()):
        self.identity = identity
        self.statement = statement
        self.rows: list[Row] = []
        self.extend(comparisons)

    @property
    def comparisons(self) -> Sequence[Comparison]:
        return _Comparisons(self.rows)

    @property
    def ok(self) -> bool:
        return all(row[7] for row in self.rows)

    @property
    def failures(self) -> list[Comparison]:
        return [_comparison(row) for row in self.rows if not row[7]]

    def extend(self, comparisons: Iterable[Comparison]) -> None:
        self.rows.extend(
            (comp.identity, comp.spec, comp.index, comp.lhs.numerator, comp.lhs.denominator,
             comp.rhs.numerator, comp.rhs.denominator, comp.equal)
            for comp in comparisons
        )

    def _dicts(self) -> list[dict]:
        """Each row as `Comparison.to_dict` would give it."""
        out = []
        for identity, label, index, ln, ld, rn, rd, equal in self.rows:
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
                "checked": len(self.rows),
                "comparisons": self._dicts(),
            },
            indent=2,
        )

    def to_csv(self) -> str:
        """One row per comparison; the index prints as space-separated entries."""
        return render_csv(self._dicts(), ("identity", "spec", "index", "lhs", "rhs", "equal"))

    def to_text(self) -> str:
        lines = [f"identity: {self.identity}", f"statement: {self.statement}"]
        failed = 0
        for _, label, index, ln, ld, rn, rd, equal in self.rows:
            left = format_ratio(ln, ld)
            if equal:
                lines.append(f"ok   {label} @ {index}: lhs={left} rhs={left}")
            else:
                failed += 1
                lines.append(f"FAIL {label} @ {index}: lhs={left} rhs={format_ratio(rn, rd)}")
        checked = len(self.rows)
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
    reduced: a table side is `MultiSequenceTable.pairs`, and a Fraction or
    an int gives its pair by `as_integer_ratio`.  The three iterables are
    consumed in lockstep, so generators keep each point's evaluation next
    to its comparison.
    """
    report = VerificationReport(identity, statement)
    report.rows = [
        comparison_row(identity, label, index, ln, ld, rn, rd)
        for index, (ln, ld), (rn, rd) in zip(points, lhs, rhs, strict=True)
    ]
    return report
