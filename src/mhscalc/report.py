"""Comparison reports produced by the identity verifiers.

Every verifier emits one `Comparison` per checked point; a report is a named
bundle of comparisons with text/JSON/CSV renderings.  All orderings are
deterministic (index order within a sweep, insertion order across sweeps), so
a report's bytes depend only on its inputs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .kernel import format_rational


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
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["identity", "spec", "index", "lhs", "rhs", "equal"])
        for comp in self.comparisons:
            writer.writerow(
                [
                    comp.identity,
                    comp.spec,
                    " ".join(str(i) for i in comp.index),
                    format_rational(comp.lhs),
                    format_rational(comp.rhs),
                    comp.equal,
                ]
            )
        return buffer.getvalue()

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
