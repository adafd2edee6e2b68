"""Multiple harmonic sums, dual indices, and the binomial-transform duality.

For a multi-index mu = (mu_1, ..., mu_p) the multiple harmonic sum is

    s_mu(n) = sum over n = n_1 >= n_2 >= ... >= n_p >= 0
              of 1 / ((n_1+1)^{mu_1} ... (n_p+1)^{mu_p})

and the duality states that the alternating binomial transform of s_mu is
s at the dual index:

    sum_{k=0}^{n} (-1)^k C(n, k) s_mu(k) = s_{mu*}(n).

The dual index mu* is built by complementing the partial-sum set of mu
inside {1, ..., weight-1}; `dual_index` below is validated both against the
known small duals and, sweep-wise, against the duality identity itself.

s_mu values are computed by direct chain enumeration (no recurrence), so
they can serve as an independent oracle for the parametric nested sums that
embed them.  The duality is checked as the generalized one is: the
`binomial_transform` of the table s_mu(0..N) against s_{mu*} point by point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .multiseq import MultiSequenceTable, binomial_transform
from .nestedsums import enumerate_chains
from .report import VerificationReport, sweep_report

DEFAULT_CHAIN_GUARD = 10**7


@dataclass(frozen=True)
class MultiIndex:
    """Nonempty tuple of positive integers; weight = sum, depth = length."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("multi-index must be nonempty")
        if any(part < 1 for part in self.parts):
            raise ValueError(f"multi-index parts must be positive, got {self.parts}")
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    @classmethod
    def parse(cls, text: str) -> "MultiIndex":
        """Parse "(1,2,3)"; bare "1,2,3" is accepted too."""
        token = text.strip()
        if token.startswith("(") and token.endswith(")"):
            token = token[1:-1]
        try:
            parts = tuple(int(item) for item in token.split(","))
        except ValueError:
            raise ValueError(f"not a multi-index: {text!r}") from None
        return cls(parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(part) for part in self.parts) + ")"


def multi_indices_of_weight(weight: int) -> Iterator[MultiIndex]:
    """All compositions of `weight`, in lexicographic order of cut sets."""
    if weight < 1:
        raise ValueError(f"weight must be positive, got {weight}")
    for cuts in range(weight):
        for positions in itertools.combinations(range(1, weight), cuts):
            bounds = (0,) + positions + (weight,)
            yield MultiIndex(tuple(b - a for a, b in zip(bounds, bounds[1:])))


def mhs_value(mu: MultiIndex, n: int, chain_guard: int = DEFAULT_CHAIN_GUARD) -> Fraction:
    """s_mu(n) by direct enumeration of weakly decreasing chains."""
    if n < 0:
        raise ValueError(f"n must be a natural, got {n}")
    total = Fraction(0)
    for chain in enumerate_chains(n, mu.depth, chain_guard):
        denom = 1
        for nj, muj in zip(chain, mu.parts):
            denom *= (nj + 1) ** muj
        total += Fraction(1, denom)
    return total


def dual_index(mu: MultiIndex) -> MultiIndex:
    """Complement the partial-sum set of mu inside {1, ..., weight-1}.

    With w = weight(mu) and S = {mu_1, mu_1+mu_2, ...} (the proper partial
    sums), the dual is the composition of w whose cut set is the complement
    of S.  Weight is preserved and the construction is an involution.
    """
    w = mu.weight
    cuts = set(itertools.accumulate(mu.parts[:-1]))
    complement = [t for t in range(1, w) if t not in cuts]
    bounds = [0] + complement + [w]
    return MultiIndex(tuple(b - a for a, b in zip(bounds, bounds[1:])))


def embed_type1(mu: MultiIndex) -> tuple[int, ...]:
    """0/1 parameter vector of length weight+1 reproducing s_mu.

    Per part: mu_j - 1 zeros then a one; a final zero closes the vector.
    Feeding it to the single-slot parametric sum gives s_mu(n) for every n.
    """
    out: list[int] = []
    for part in mu.parts:
        out.extend([0] * (part - 1))
        out.append(1)
    out.append(0)
    return tuple(out)


def embed_type2(mu: MultiIndex) -> tuple[int, ...]:
    """The second 0/1 embedding: last block is mu_p zeros then a one."""
    out: list[int] = []
    for part in mu.parts[:-1]:
        out.extend([0] * (part - 1))
        out.append(1)
    out.extend([0] * mu.parts[-1])
    out.append(1)
    return tuple(out)


MHS_DUALITY_STATEMENT = "sum_{k<=n} (-1)^k C(n,k) s_mu(k) = s_{mu*}(n)"


def verify_mhs_duality(
    max_weight: int,
    max_n: int,
    mus: Sequence[MultiIndex] | None = None,
) -> VerificationReport:
    """Check the duality for every mu of weight <= max_weight and n <= max_n.

    An explicit `mus` list overrides the weight sweep.  Per mu the left side
    is `binomial_transform` of the table s_mu(0..max_n) and the right side
    s_{mu*} at each n, both by chain enumeration (`mhs_value`).
    """
    if mus is None:
        mus = [
            mu
            for weight in range(1, max_weight + 1)
            for mu in multi_indices_of_weight(weight)
        ]
    report = VerificationReport("mhs-duality", MHS_DUALITY_STATEMENT, [])
    points = [(n,) for n in range(max_n + 1)]
    for mu in mus:
        dual = dual_index(mu)
        values = tuple(mhs_value(mu, n) for n in range(max_n + 1))
        part = sweep_report(
            "mhs-duality",
            MHS_DUALITY_STATEMENT,
            f"mu={mu} mu*={dual}",
            points,
            binomial_transform(MultiSequenceTable(1, (max_n + 1,), values)).values,
            (mhs_value(dual, n) for n in range(max_n + 1)),
        )
        report.extend(part.comparisons)
    return report
