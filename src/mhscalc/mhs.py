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
definition, so it serves as an independent oracle for the parametric nested
sums that embed s_mu and for the second route.  From depth 3 on it adds
integer numerators over one common denominator and divides once at the end:
it splits each chain after its prefix (m_2..m_{p-q}), tabulates the products
of the suffixes (m_{p-q+1}..m_p) once, q = p // 2, and adds each prefix's
product times every suffix product that fits under the prefix.  Each
chain's summand is still its own product, added once; no factor comes out
of a sum, so no partial sum is shared between chains.  An input whose
tables would pass `guards.NUMERATOR_TABLE_MAX_BITS` is refused.
At depth 1 and 2 it tabulates nothing and adds one Fraction per chain.
`mhs_table` fills s_mu(0..N) at once by nested prefix sums, innermost part
first:

    s_(mu_1..mu_p)(n) = (n+1)^{-mu_1} * sum_{m<=n} s_(mu_2..mu_p)(m).

The prefix sums run on ints over L^weight, L = lcm(1..N+1): the innermost
row is (L/(m+1))^mu_p over L^mu_p, and each outer part multiplies the
prefix sums by (L/(m+1))^part, as `mhs_value` scales its chains.

The duality is checked as the generalized one is: the `binomial_transform`
of the table s_mu(0..N) against the table of s_{mu*}, with `mhs_value` of
mu* at the corner n = N.  `verify_mhs_duality` checks one mu per call; the
CLI's `verify` lists the multi-indices of a sweep and joins their reports.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .guards import DEFAULT_GUARD, Plan, check, checked, plan_difference_pass
from .guards import plan_mhs_table, plan_mhs_value
from .kernel import parse_integers
from .multiseq import MultiSequenceTable, binomial_transform
from .nestedsums import chain_tails, enumerate_chains
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
            parts = parse_integers(token)
        except ValueError:
            raise ValueError(f"not a multi-index: {text!r}") from None
        return cls(parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(part) for part in self.parts) + ")"


def _composition(cuts, weight: int) -> MultiIndex:
    """The composition of `weight` whose proper partial sums are `cuts`, ascending."""
    bounds = (0, *cuts, weight)
    return MultiIndex(tuple(b - a for a, b in zip(bounds, bounds[1:])))


def multi_indices_of_weight(weight: int) -> Iterator[MultiIndex]:
    """All compositions of `weight`, in lexicographic order of cut sets."""
    if weight < 1:
        raise ValueError(f"weight must be positive, got {weight}")
    for cuts in range(weight):
        for positions in itertools.combinations(range(1, weight), cuts):
            yield _composition(positions, weight)


def mhs_value(mu: MultiIndex, n: int, guard: int | Plan = DEFAULT_GUARD) -> Fraction:
    """s_mu(n) by direct enumeration of weakly decreasing chains.

    Every chain starts at n, and with L = lcm(1..n+1) the rest of each
    summand is an integer over L^(weight - mu_1).  From depth 3 on, the
    chains add those integers from a table of (L/(m+1))^mu_j and one
    Fraction is built at the end; at depth 1 and 2, where the chains number
    no more than the table's entries, they add one Fraction each.  Both sum
    the same summands exactly.  `guards.plan_mhs_value` is checked first:
    rows over NUMERATOR_TABLE_MAX_BITS are refused, not summed as Fractions,
    since their summands are so wide that one Fraction per chain is no faster.

    The integer route splits each chain n = m_1 >= ... >= m_p after its
    prefix (m_2..m_{p-q}) and tabulates the products of the suffix rows,
    one per suffix (m_{p-q+1}..m_p), once per call.  It lists both by their
    tails (`chain_tails`): the suffixes reversed, so that they ascend in
    their first entry and the C(m+q, q) of them that fit under a prefix
    ending in m come first.  It multiplies each prefix's factors once and
    adds the prefix product times each of those suffix products in one
    pass of C-level `map` and `sum`: one product and one addition per
    chain.  q = p // 2 is fixed by the depth; the plan bounds the rows and
    the C(n+q, q) suffix products (at depth 3, a copy of the last row's
    entries).  Unlike `mhs_table`, it keeps no running sum across
    prefixes and takes no factor out of a sum, so the routes stay independent.
    """
    if n < 0:
        raise ValueError(f"n must be a natural, got {n}")
    checked(guard, plan_mhs_value, mu, n)
    if mu.depth < 3:
        total = Fraction(0)
        for chain in enumerate_chains(n, mu.depth):
            denom = 1
            for m, part in zip(chain, mu.parts):
                denom *= (m + 1) ** part
            total += Fraction(1, denom)
        return total
    first, *rest = mu.parts
    lcm = math.lcm(*range(1, n + 2))
    q = mu.depth // 2
    # row j holds (L / (m+1))^{mu_(j+2)} at m, the numerator of part j+2;
    # the last q rows (parts p-q+1..p) are the suffix's
    rows = [[(lcm // (m + 1)) ** part for m in range(n + 1)] for part in rest]
    prefix_rows, suffix_rows = rows[:-q], rows[-q:]
    # reversed, the suffixes ascend in their first entry, so those that fit
    # under a prefix ending in m are the first C(m+q, q)
    suffix = [math.prod(map(operator.getitem, suffix_rows, s)) for s in chain_tails(n, q + 1)]
    suffix.reverse()
    fits = [math.comb(m + q, q) for m in range(n + 1)]
    total = 0
    for prefix in chain_tails(n, mu.depth - q):
        head = math.prod(map(operator.getitem, prefix_rows, prefix))
        total += sum(map(head.__mul__, suffix[: fits[prefix[-1]]]))
    return Fraction(total, (n + 1) ** first * lcm ** (mu.weight - first))


def mhs_table(mu: MultiIndex, max_n: int, guard: int | Plan = DEFAULT_GUARD) -> MultiSequenceTable:
    """s_mu(0..max_n) as a 1-D table, by nested prefix sums on ints.

    One pass per part, innermost first, fills depth * (max_n+1) cells over
    L^weight, once `guard` admits `guards.plan_mhs_table`.
    """
    if max_n < 0:
        raise ValueError(f"n must be a natural, got {max_n}")
    checked(guard, plan_mhs_table, mu, max_n)
    lcm = math.lcm(*range(1, max_n + 2))
    scaled = [lcm // (m + 1) for m in range(max_n + 1)]
    *outer, last = mu.parts
    row = [q**last for q in scaled]
    for part in reversed(outer):
        row = [prefix * q**part for prefix, q in zip(itertools.accumulate(row), scaled)]
    return MultiSequenceTable._trusted((max_n + 1,), tuple(row), lcm**mu.weight)


def dual_index(mu: MultiIndex) -> MultiIndex:
    """Complement the partial-sum set of mu inside {1, ..., weight-1}.

    With w = weight(mu) and S = {mu_1, mu_1+mu_2, ...} (the proper partial
    sums), the dual is the composition of w whose cut set is the complement
    of S.  Weight is preserved and the construction is an involution.
    """
    w = mu.weight
    cuts = set(itertools.accumulate(mu.parts[:-1]))
    return _composition([t for t in range(1, w) if t not in cuts], w)


def embed_type1(mu: MultiIndex) -> tuple[int, ...]:
    """0/1 parameter vector of length weight+1 reproducing s_mu.

    Entry t of 1..weight is 1 where t is a partial sum of mu, else 0 (per
    part: mu_j - 1 zeros then a one); a final zero closes the vector.
    Feeding it to the single-slot parametric sum gives s_mu(n) for every n.
    """
    sums = set(itertools.accumulate(mu.parts))
    return tuple(int(t in sums) for t in range(1, mu.weight + 1)) + (0,)


def embed_type2(mu: MultiIndex) -> tuple[int, ...]:
    """The second 0/1 embedding: last block is mu_p zeros then a one.

    Type 1 ends 0^(mu_p - 1), 1, 0, so type 2 is type 1 with those last two
    entries made 0, 1.
    """
    return embed_type1(mu)[:-2] + (0, 1)


MHS_DUALITY_STATEMENT = "sum_{k<=n} (-1)^k C(n,k) s_mu(k) = s_{mu*}(n)"


def verify_mhs_duality(
    mu: MultiIndex, max_n: int, guard: int = DEFAULT_GUARD
) -> VerificationReport:
    """Check the duality for one multi-index mu at every n <= max_n.

    The left side is `binomial_transform` of `mhs_table(mu)` and the right
    side `mhs_table(mu*)`, except at the corner n = max_n, where it is chain
    enumeration (`mhs_value`).  The corner's left side weights every table
    value of mu by a nonzero C(max_n, k), so a wrong value anywhere in the
    row fails there.  Every guard is checked before any work, in the order
    of the plan below.
    """
    dual = dual_index(mu)
    line = (max_n + 1,)
    plan = check(plan_mhs_value(dual, max_n, guard), plan_mhs_table(mu, max_n, guard),
                 plan_mhs_table(dual, max_n, guard), plan_difference_pass(line, line, guard))
    corner_rhs = mhs_value(dual, max_n, plan)
    lhs = binomial_transform(mhs_table(mu, max_n, plan)).pairs()
    rhs = mhs_table(dual, max_n, plan).pairs()[:-1] + [corner_rhs.as_integer_ratio()]
    points = [(n,) for n in range(max_n + 1)]
    return sweep_report(
        "mhs-duality", MHS_DUALITY_STATEMENT, f"mu={mu} mu*={dual}", points, lhs, rhs
    )
