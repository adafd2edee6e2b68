"""Comparison reports produced by the identity verifiers.

Every verifier emits one `Comparison` per checked point; a report is a named
bundle of comparisons with text/JSON/CSV renderings.  All orderings are
deterministic (index order within a sweep, insertion order across sweeps), so
a report's bytes depend only on its inputs.  `render_csv` is the package's
one CSV writer: a report's rows are its comparisons' `to_dict`, and the
CLI's value and `bench` outputs use it too.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .kernel import format_rational


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


@dataclass
class VerificationReport:
    """All comparisons from one verification run.

    `statement` is the identity being checked, written as a formula; it
    heads the text rendering and is embedded in the JSON envelope.
    """

    identity: str
    statement: str
    comparisons: list[Comparison]

    @property
    def ok(self) -> bool:
        return all(comp.equal for comp in self.comparisons)

    @property
    def failures(self) -> list[Comparison]:
        return [comp for comp in self.comparisons if not comp.equal]

    def extend(self, comparisons: Iterable[Comparison]) -> None:
        self.comparisons.extend(comparisons)

    def to_json(self) -> str:
        return json.dumps(
            {
                "identity": self.identity,
                "statement": self.statement,
                "ok": self.ok,
                "checked": len(self.comparisons),
                "comparisons": [comp.to_dict() for comp in self.comparisons],
            },
            indent=2,
        )

    def to_csv(self) -> str:
        """One row per comparison; the index prints as space-separated entries."""
        rows = [comp.to_dict() for comp in self.comparisons]
        return render_csv(rows, ("identity", "spec", "index", "lhs", "rhs", "equal"))

    def to_text(self) -> str:
        lines = [f"identity: {self.identity}", f"statement: {self.statement}"]
        for comp in self.comparisons:
            mark = "ok  " if comp.equal else "FAIL"
            lines.append(
                f"{mark} {comp.spec} @ {comp.index}: "
                f"lhs={format_rational(comp.lhs)} rhs={format_rational(comp.rhs)}"
            )
        verdict = "PASS" if self.ok else f"FAIL ({len(self.failures)} of {len(self.comparisons)})"
        lines.append(f"result: {verdict}, {len(self.comparisons)} comparisons")
        return "\n".join(lines) + "\n"


def sweep_report(
    identity: str,
    statement: str,
    label: str,
    points: Iterable[tuple[int, ...]],
    lhs: Iterable[Fraction],
    rhs: Iterable[Fraction],
) -> VerificationReport:
    """One comparison per point: the i-th point with the i-th lhs and rhs.

    The three iterables are consumed in lockstep, so generators keep each
    point's evaluation next to its comparison.
    """
    return VerificationReport(
        identity,
        statement,
        [
            Comparison(identity, label, index, left, right)
            for index, left, right in zip(points, lhs, rhs, strict=True)
        ],
    )
