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

Two routes compute s_mu.  `mhs_value` enumerates the chains of the
definition (from depth 3 on, integer numerators over one common denominator
and one division at the end), so it serves as an independent oracle for the parametric nested
sums that embed s_mu and for the second route.  `mhs_table` fills
s_mu(0..N) at once by nested prefix sums, innermost part first:

    s_(mu_1..mu_p)(n) = (n+1)^{-mu_1} * sum_{m<=n} s_(mu_2..mu_p)(m).

The duality is checked as the generalized one is: the `binomial_transform`
of the table s_mu(0..N) against the table of s_{mu*}, with `mhs_value` of
mu* at the corner n = N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import DEFAULT_GUARD, check_guard
from .multiseq import MultiSequenceTable, binomial_transform
from .nestedsums import enumerate_chains
from .report import VerificationReport, sweep_report


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


# The largest numerator table, in bits, that `mhs_value` builds: 32 MiB.
NUMERATOR_TABLE_MAX_BITS = 2**28


def numerator_table_bits(mu: MultiIndex, n: int) -> int:
    """A bound on the bits of the numerators `mhs_value` would tabulate.

    The rows of mu_2..mu_p hold n+1 numerators each, of at most
    mu_j * log2 lcm(1..n+1) < mu_j * 1.5 (n+1) bits, since ln lcm(1..x) =
    psi(x) < 1.03883 x (Rosser and Schoenfeld).
    """
    return 3 * (n + 1) ** 2 * (mu.weight - mu.parts[0]) // 2


def integer_numerators(mu: MultiIndex, n: int) -> bool:
    """Whether `mhs_value` sums integer numerators rather than Fractions.

    It does where the chains outnumber the numerators it tabulates (depth 3
    and more) and the table stays within NUMERATOR_TABLE_MAX_BITS.
    """
    return mu.depth >= 3 and numerator_table_bits(mu, n) <= NUMERATOR_TABLE_MAX_BITS


def mhs_value(mu: MultiIndex, n: int, chain_guard: int = DEFAULT_GUARD) -> Fraction:
    """s_mu(n) by direct enumeration of weakly decreasing chains.

    Every chain starts at n, and with L = lcm(1..n+1) the rest of each
    summand is an integer over L^(weight - mu_1).  Where
    `integer_numerators` holds, the chains add those integers from a table
    of (L/(m+1))^mu_j and one Fraction is built at the end; elsewhere they
    add one Fraction each.  Both sum the same summands exactly.  The chain
    guard is checked before either starts.
    """
    if n < 0:
        raise ValueError(f"n must be a natural, got {n}")
    chains = enumerate_chains(n, mu.depth, chain_guard)
    if not integer_numerators(mu, n):
        total = Fraction(0)
        for chain in chains:
            denom = 1
            for m, part in zip(chain, mu.parts):
                denom *= (m + 1) ** part
            total += Fraction(1, denom)
        return total
    first, *rest = mu.parts
    lcm = math.lcm(*range(1, n + 2))
    # scaled[j][m] = (L / (m+1))^{mu_(j+2)}, the numerator of part j+2 at m
    scaled = [[(lcm // (m + 1)) ** part for m in range(n + 1)] for part in rest]
    total = 0
    for chain in chains:
        term = 1
        for row, m in zip(scaled, chain[1:]):
            term *= row[m]
        total += term
    return Fraction(total, (n + 1) ** first * lcm ** (mu.weight - first))


def mhs_table(
    mu: MultiIndex, max_n: int, cell_guard: int = DEFAULT_GUARD
) -> MultiSequenceTable:
    """s_mu(0..max_n) as a 1-D table, by nested prefix sums.

    One pass per part, innermost first, fills depth * (max_n+1) cells; a fill
    of more than `cell_guard` cells raises GuardExceeded before it starts.
    """
    if max_n < 0:
        raise ValueError(f"n must be a natural, got {max_n}")
    check_guard("mhs table cell count", mu.depth * (max_n + 1), cell_guard)
    *outer, last = mu.parts
    row = [Fraction(1, (m + 1) ** last) for m in range(max_n + 1)]
    for part in reversed(outer):
        row = [
            prefix / (m + 1) ** part
            for m, prefix in enumerate(itertools.accumulate(row))
        ]
    return MultiSequenceTable((max_n + 1,), tuple(row))


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
    guard: int = DEFAULT_GUARD,
) -> VerificationReport:
    """Check the duality for every mu of weight <= max_weight and n <= max_n.

    An explicit `mus` list overrides the weight sweep.  Per mu the left side
    is `binomial_transform` of `mhs_table(mu)` and the right side
    `mhs_table(mu*)`, except at the corner n = max_n, where it is chain
    enumeration (`mhs_value`).  The corner's left side weights every table
    value of mu by a nonzero C(max_n, k), so a wrong value anywhere in the
    row fails there.

    The corner's `mhs_value` runs first and checks its chain guard before
    it tabulates anything, so the guard trips before any work on mu; both
    tables are guarded at `guard` cells.
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
        corner_rhs = mhs_value(dual, max_n, guard)
        lhs = binomial_transform(mhs_table(mu, max_n, guard)).values
        rhs = mhs_table(dual, max_n, guard).values[:-1] + (corner_rhs,)
        part = sweep_report(
            "mhs-duality", MHS_DUALITY_STATEMENT, f"mu={mu} mu*={dual}", points, lhs, rhs
        )
        report.extend(part.comparisons)
    return report
