"""Reference report: the renderings of a plain list of `Comparison`s.

This is the report as it was before rows of ints: each comparison holds two
reduced Fractions and its own verdict, and every rendering formats both
sides of every comparison.  `test_report.py` checks that the row report
gives the same bytes and verdict, and the pointwise routes of the verifier
tests build their expected reports here.
"""

import json
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from mhscalc.report import render_csv


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


def format_fraction(value: Fraction) -> str:
    """`str` of the Fraction, through `Decimal` past the int digit limit."""
    try:
        return str(value)
    except ValueError:
        text = str(Decimal(value.numerator))
        return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


def to_dict(comp: Comparison) -> dict:
    return {
        "identity": comp.identity,
        "spec": comp.spec,
        "index": list(comp.index),
        "lhs": format_fraction(comp.lhs),
        "rhs": format_fraction(comp.rhs),
        "equal": comp.equal,
    }


class ReferenceReport:
    def __init__(self, identity: str, statement: str, comparisons: list[Comparison]):
        self.identity = identity
        self.statement = statement
        self.comparisons = comparisons

    @property
    def ok(self) -> bool:
        return all(comp.equal for comp in self.comparisons)

    @property
    def failures(self) -> list[Comparison]:
        return [comp for comp in self.comparisons if not comp.equal]

    def to_json(self) -> str:
        return json.dumps(
            {
                "identity": self.identity,
                "statement": self.statement,
                "ok": self.ok,
                "checked": len(self.comparisons),
                "comparisons": [to_dict(comp) for comp in self.comparisons],
            },
            indent=2,
        )

    def to_csv(self) -> str:
        rows = [to_dict(comp) for comp in self.comparisons]
        return render_csv(rows, ("identity", "spec", "index", "lhs", "rhs", "equal"))

    def to_text(self) -> str:
        lines = [f"identity: {self.identity}", f"statement: {self.statement}"]
        for comp in self.comparisons:
            mark = "ok  " if comp.equal else "FAIL"
            lines.append(
                f"{mark} {comp.spec} @ {comp.index}: "
                f"lhs={format_fraction(comp.lhs)} rhs={format_fraction(comp.rhs)}"
            )
        verdict = "PASS" if self.ok else f"FAIL ({len(self.failures)} of {len(self.comparisons)})"
        lines.append(f"result: {verdict}, {len(self.comparisons)} comparisons")
        return "\n".join(lines) + "\n"
