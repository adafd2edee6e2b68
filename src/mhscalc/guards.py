"""Work guards: every work estimate, limit and guard message of the package.

Each guarded building block has one `plan_*`, its (what, size, limit)
entries in the order they are checked.  A route `check`s its blocks' plans
once, by arithmetic before any work, and passes the checked `Plan` down as
its callees' `guard`; a callee handed one runs no estimate (`checked`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from .kernel import format_rational

Entry = tuple[str, int, int]

# The default --guard of every subcommand and of every guarded library call.
DEFAULT_GUARD = 10**7

# A difference pass may run this many subtractions per unit of a work guard.
# A unit is one summand or one fill cell, each dearer than one subtraction;
# at 64, the transform of a line of L <= 129 cells, L(L-1)/2 <= 64 L
# subtractions, passes wherever the line's cells pass.
SUBTRACTIONS_PER_GUARD = 64

# The largest numerator table, in bits, that `mhs_value`, `mhs_table` or a
# recurrence fill builds: 32 MiB.
NUMERATOR_TABLE_MAX_BITS = 2**28


class GuardExceeded(RuntimeError):
    """A work-size guard was exceeded before any summation started.

    Carries the offending size and the configured limit so callers (and the
    CLI) can report actionable numbers.
    """

    def __init__(self, what: str, size: int, limit: int):
        super().__init__(f"{what}: {format_rational(size)} exceeds guard {format_rational(limit)}")
        self.what, self.size, self.limit = what, size, limit


class Plan(tuple):
    """Checked (what, size, limit) entries: only `check` builds one, so it proves they passed."""


def check(*plans: Sequence[Entry]) -> Plan:
    """Raise GuardExceeded at the first entry over its limit; else the entries, joined."""
    plan = Plan(entry for block in plans for entry in block)
    for what, size, limit in plan:
        if size > limit:
            raise GuardExceeded(what, size, limit)
    return plan


def checked(guard: int | Plan, plan_block: Callable[..., list[Entry]], *args) -> Plan:
    """`guard` itself when a route checked it, else `check(plan_block(*args, guard))`."""
    return guard if isinstance(guard, Plan) else check(plan_block(*args, guard))


def chain_count(n: int, p: int) -> int:
    """Chains n = m_1 >= ... >= m_p >= 0: C(n+p-1, p-1)."""
    return math.comb(n + p - 1, p - 1)


def direct_summand_count(spec, n: Sequence[int]) -> int:
    """Chain tuples the defining sum of a `NestedSumSpec` runs over at index n."""
    return math.prod(chain_count(ni, spec.p) for ni in n)


def sweep_summand_count(spec, box: Sequence[int]) -> int:
    """Chain tuples the defining sums at every point of the box prod [0, box_i) run over.

    Per slot, sum_{n < box_i} C(n+p-1, p-1) = C(box_i+p-1, p).
    """
    return math.prod(math.comb(extent + spec.p - 1, spec.p) for extent in box)


def recurrence_cell_count(spec, n: Sequence[int]) -> int:
    """Cells a recurrence fill up to corner n computes: p * prod(n_i + 1)."""
    return spec.p * math.prod(ni + 1 for ni in n)


def _log2_rising(a: int, b: int, count: int, number: type = float) -> float | Fraction:
    """log2 |t (t+1) ... (t+count-1)| for t = a/b off {0, -1, -2, ...}, b > 0.

    That is log2 |Gamma(t+count) / Gamma(t)|, from two log-gammas.  Past
    |t| = 2**40, where their difference loses its bits, within float
    precision of a pole, or in Fractions (`number`), it is bounded above by
    count * log2(|t| + count).
    """
    if number is float and abs(a) < b << 40:
        t = a / b
        try:
            return (math.lgamma(t + count) - math.lgamma(t)) / math.log(2)
        except ValueError:
            pass
    return number(count) * number(math.log2(abs(a) + count * b) - math.log2(b))


def fill_bits(spec, corner: Sequence[int]) -> int:
    """The bits of the table a recurrence fill up to `corner` scales.

    The table holds prod(n_i + 1) numerators over E_0(top), top = |corner|
    (see `nestedsums.RecurrenceEvaluator`), so this is prod(n_i + 1) times
    the ceiling of

        log2 |E_0(top)| = top log2 D_0
                          + sum_l [(top+1) log2 b_l + log2 |Gamma(top+1+t_l) / Gamma(t_l)|],

    D_0 the lcm of every x-denominator and t_l = a_l/b_l: O(p) float
    operations, within one bit of `abs(E_0(top)).bit_length()` per cell.
    E_0 is the level-0 denominator whatever the levels below keep.  The
    fill keeps each level below the last over E_0 up to small linear
    factors and holds two levels at once, the one it fills and the one it
    reads, so it holds up to about twice the bits estimated here.  Where
    its floats overflow, from a top of about 10^305, it sums Fractions.
    """
    top = sum(corner)
    lcm = math.lcm(*[x.denominator for block in spec.xblocks for x in block])
    for number in float, Fraction:
        try:
            bits = number(top) * number(math.log2(lcm))
            for t in spec.tparams:
                a, b = t.numerator, t.denominator
                bits += number(top + 1) * number(math.log2(b)) + _log2_rising(a, b, top + 1, number)
            return math.prod([ni + 1 for ni in corner]) * math.ceil(bits)
        except OverflowError:  # a Fraction never overflows
            pass


def difference_subtractions(shape: Sequence[int], orders: Sequence[int]) -> int:
    """The subtractions one difference pass over `shape` with `orders` runs.

    At axis i each block holds L_i steps of the axis, and its triangle's
    rows below the first hold L_i - 1, ..., N_i steps (N_i = L_i - K_i + 1),
    one subtraction per entry.  One step of every block holds `step`
    entries in all: the cells at that axis' pass over L_i, where every
    axis before it already holds N_j * K_j entries.  A 1-D transform of length L runs L(L-1)/2.
    """
    total = 0
    cells = math.prod(shape)
    for extent, count in zip(shape, orders):
        width = extent - count + 1
        step = cells // extent
        total += step * (extent * (extent - 1) - width * (width - 1)) // 2
        cells = step * width * count
    return total


def numerator_table_bits(mu, n: int) -> int:
    """A bound on the bits of the rows of numerators `mhs_value` tabulates.

    The rows of mu_2..mu_p hold n+1 numerators each, of at most
    mu_j * log2 lcm(1..n+1) < mu_j * 1.5 (n+1) bits, since ln lcm(1..x) =
    psi(x) < 1.03883 x (Rosser and Schoenfeld).  The suffix products
    tabulated next to them are bounded by `suffix_table_bits`.
    """
    return 3 * (n + 1) ** 2 * (mu.weight - mu.parts[0]) // 2


def suffix_table_bits(mu, n: int) -> int:
    """A bound on the bits of the suffix products `mhs_value` tabulates, q = depth // 2.

    The table holds one product per tail (m_(p-q+1), ..., m_p) of a chain
    under n, C(n+q, q) of them, each of at most
    (mu_(p-q+1) + ... + mu_p) * 1.5 (n+1) bits as in `numerator_table_bits`.
    At depth 3, q = 1 and the table is a copy of the last row: `math.prod`
    of one entry builds a new int.
    """
    q = mu.depth // 2
    return math.comb(n + q, q) * 3 * (n + 1) * sum(mu.parts[-q:]) // 2


def mhs_table_bits(mu, n: int) -> int:
    """A bound on the bits of the numerators `mhs_table` builds up to n.

    Each of the n+1 numerators is L^weight s_mu(m), L = lcm(1..n+1), with
    weight * log2 L < weight * 1.5 (n+1) bits as in `numerator_table_bits`,
    and s_mu(m) <= (n+1)^(depth-1), since each of the
    C(m+depth-1, depth-1) <= (m+1)^(depth-1) chains adds at most 1.
    """
    return (n + 1) * (3 * (n + 1) * mu.weight // 2 + (mu.depth - 1) * (n + 1).bit_length() + 2)


def suite_product_pairs(degree: int, max_slots: int) -> int:
    """An upper bound on the term pairs of the operator suite's largest product.

    The two-block factorization multiplies two series in 2r variables, each
    with up to C(D + 2r, 2r) terms; the bound is the square of that.  The
    truncated product meets only the C(D + 4r, 4r) pairs of total degree
    <= D (3,003 at D = 6, r = 2, where the bound is 44,100).
    """
    return math.comb(degree + 2 * max_slots, 2 * max_slots) ** 2


def plan_window(spec, points: Sequence[Sequence[int]], guard: int) -> list[Entry]:
    """The summands of a `direct_window`, point by point."""
    return [("direct summand count", direct_summand_count(spec, n), guard) for n in points]


def plan_sweep(spec, box: Sequence[int], guard: int) -> list[Entry]:
    """The summands of the direct windows over every point of the box."""
    return [("sweep summand count", sweep_summand_count(spec, box), guard)]


def plan_fill(spec, corner: Sequence[int], guard: int) -> list[Entry]:
    """A recurrence fill has at most `guard` cells and scales at most NUMERATOR_TABLE_MAX_BITS bits."""
    return [
        ("recurrence cell count", recurrence_cell_count(spec, corner), guard),
        ("recurrence fill bits", fill_bits(spec, corner), NUMERATOR_TABLE_MAX_BITS),
    ]


def plan_difference_pass(shape: Sequence[int], orders: Sequence[int], guard: int) -> list[Entry]:
    """A difference pass runs at most SUBTRACTIONS_PER_GUARD * guard subtractions."""
    subtractions = difference_subtractions(shape, orders)
    return [("difference-pass subtraction count", subtractions, SUBTRACTIONS_PER_GUARD * guard)]


def plan_mhs_value(mu, n: int, guard: int) -> list[Entry]:
    """The chains of `mhs_value`, and from depth 3 on the bits of its rows and suffix table."""
    plan = [("chain count", chain_count(n, mu.depth), guard)]
    if mu.depth >= 3:
        bits = numerator_table_bits(mu, n) + suffix_table_bits(mu, n)
        plan.append(("mhs value numerator bits", bits, NUMERATOR_TABLE_MAX_BITS))
    return plan


def plan_mhs_table(mu, max_n: int, guard: int) -> list[Entry]:
    """An `mhs_table` holds at most `guard` cells and NUMERATOR_TABLE_MAX_BITS bits."""
    return [
        ("mhs table cell count", mu.depth * (max_n + 1), guard),
        ("mhs table numerator bits", mhs_table_bits(mu, max_n), NUMERATOR_TABLE_MAX_BITS),
    ]


def plan_series_product(degree: int, max_slots: int, guard: int) -> list[Entry]:
    return [("series product term pairs", suite_product_pairs(degree, max_slots), guard)]
