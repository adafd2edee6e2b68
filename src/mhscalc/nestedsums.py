"""Parametric nested sums over tuples of weakly decreasing chains.

The central object is the r-slot, depth-p sum

    c[x_1; ...; x_r | t_1..t_{p-1}](n_1, ..., n_r)
      = sum over chains n_i = m_{i1} >= ... >= m_{ip} >= 0 (one per slot)
        of   prod_i M(n_i; v_i1..v_ip) x_i1^{v_i1} ... x_ip^{v_ip}
           / prod_{j<p} [ C(m_1j+...+m_rj + t_j - 1, v_1j+...+v_rj)
                          * (m_1j+...+m_rj + t_j) ]

with v_ij = m_ij - m_i,j+1 (v_ip = m_ip), M a multinomial coefficient, and
C the generalized binomial.  The t_j must avoid {0, -1, -2, ...}: the linear
factor is then never zero, and every generalized-binomial factor is either
positive or a non-integer rational, hence nonzero.

Two independent evaluation routes are provided:

* `direct_window` enumerates the chain tuples of the defining sum at each
  point of a list, grouping summands that share a denominator (an exact
  regrouping).  It runs on ints: chain weights of slot i over d_i^{n_i},
  d_i the lcm of the denominators of block i, group keys packed into one
  int each (so merging two groups' keys is one int addition), group sums
  over prod_i d_i^{n_i}, column factors as reduced int pairs of
  `kernel.gen_binomial_pair`, and one int pair per point.  The chains of
  a (slot, n_i) and each column's denominator factor are built once per
  window; `c_direct` is its one-point call, with one Fraction;
* `c_recursive` runs the depth-reduction recurrence

      c(n) = [ sum_k x_{k1} n_k c(n - e_k) + c_reduced(n) ] / (|n| + t_1)

  over the whole box below n, turning the exponential chain count into
  O(p * prod(n_i + 1) * r) steps.  The steps run on integers: level l
  stores the numerators of c over one known denominator F_l(|m|) per
  (level, |m|), and every level below the monomial one shares E_0(|m|),
  the level-0 denominator, up to a product of small linear factors (see
  `RecurrenceEvaluator`).  So no gcd runs in the loop, the only products
  of two big integers are the monomials of level p-1 times one tail factor
  each, and each value read costs one Fraction.  The fill walks the box
  one row of the last axis at a time, the earlier slots' terms as C-level
  maps over earlier rows.

Verifiers at the bottom check, on finite boxes and each over the whole box
at once from recurrence fills, the recurrence against `direct_window` at
every point, and with c_direct at the corner the duality (nabla c[x;t] =
c[1-x;t]), the difference formula (iterated differences of c are again c at
doubled parameters) and the shift identity for parameter blocks summing to
a constant vector.  They pass int pairs to `sweep_report` and build no
Fraction per point.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterator, Sequence

from .guards import DEFAULT_GUARD, Plan, check, checked
from .guards import plan_difference_pass, plan_fill, plan_sweep, plan_window
from .guards import direct_summand_count  # noqa: F401  (perfbench's tracer reads it here)
from .kernel import common_denominator, gen_binomial_pair, multinomial, format_rational
from .kernel import parse_rational
from .kernel import gen_binomial  # noqa: F401  (perfbench's tracer wraps it here)
from .multiseq import MultiSequenceTable, binomial_transform, iterated_delta
from .report import VerificationReport, sweep_report

Index = tuple[int, ...]


def _is_nonpositive_integer(value: Fraction) -> bool:
    return value.denominator == 1 and value.numerator <= 0


def parse_shifts(text: str) -> tuple[Fraction, ...]:
    """Parse the CLI shift grammar: "2", "1/2,-3/4"; blank text is no shifts."""
    text = text.strip()
    return tuple(parse_rational(item) for item in text.split(",")) if text else ()


@dataclass(frozen=True)
class NestedSumSpec:
    """Parameter bundle: r blocks of p rationals plus p-1 shift parameters."""

    xblocks: tuple[tuple[Fraction, ...], ...]
    tparams: tuple[Fraction, ...]

    def __post_init__(self):
        xblocks = tuple(tuple(Fraction(x) for x in block) for block in self.xblocks)
        tparams = tuple(Fraction(t) for t in self.tparams)
        object.__setattr__(self, "xblocks", xblocks)
        object.__setattr__(self, "tparams", tparams)
        if not xblocks:
            raise ValueError("need at least one parameter block")
        p = len(xblocks[0])
        if p < 1:
            raise ValueError("blocks must be nonempty")
        if any(len(block) != p for block in xblocks):
            raise ValueError(f"all blocks must have equal length, got {self.xblocks}")
        if len(tparams) != p - 1:
            raise ValueError(f"need {p - 1} shift parameters for depth {p}, got {len(tparams)}")
        for t in tparams:
            if _is_nonpositive_integer(t):
                raise ValueError(f"shift parameter {t} is a nonpositive integer")

    @property
    def r(self) -> int:
        return len(self.xblocks)

    @property
    def p(self) -> int:
        return len(self.xblocks[0])

    def reduce_depth(self) -> "NestedSumSpec":
        """Drop the first component of every block and the first shift parameter."""
        if self.p < 2:
            raise ValueError("cannot reduce a depth-1 spec")
        return NestedSumSpec(
            tuple(block[1:] for block in self.xblocks),
            self.tparams[1:],
        )

    def one_minus(self) -> "NestedSumSpec":
        """Replace every x by 1 - x; shift parameters unchanged."""
        return NestedSumSpec(
            tuple(tuple(1 - x for x in block) for block in self.xblocks),
            self.tparams,
        )

    def doubled(self) -> "NestedSumSpec":
        """Blocks followed by their 1-x images; 2r slots, same shifts."""
        return NestedSumSpec(
            self.xblocks + self.one_minus().xblocks,
            self.tparams,
        )

    @classmethod
    def parse(cls, xtext: str, ttext: str = "") -> "NestedSumSpec":
        """Parse the CLI grammar: blocks "1/2,1/3;0,1", shifts "2"."""
        xblocks = tuple(
            tuple(parse_rational(item) for item in block.split(","))
            for block in xtext.split(";")
        )
        return cls(xblocks, parse_shifts(ttext))

    def text(self) -> str:
        xtext = ";".join(",".join(format_rational(x) for x in block) for block in self.xblocks)
        ttext = ",".join(format_rational(t) for t in self.tparams)
        return f"x={xtext} t={ttext}" if ttext else f"x={xtext}"


def chain_tails(n: int, p: int) -> Iterator[Index]:
    """(m_2, ..., m_p) of each chain of `enumerate_chains(n, p)`, in its order."""
    if n < 0 or p < 1:
        raise ValueError(f"need natural n and positive p, got ({n}, {p})")
    # weakly decreasing tails are multisets drawn from n, n-1, ..., 0; the
    # pool is a tuple of n + 1 entries, so depth 1 (empty tails) takes none
    return itertools.combinations_with_replacement(range(n, -1, -1) if p > 1 else (), p - 1)


def enumerate_chains(n: int, p: int) -> Iterator[Index]:
    """All chains n = m_1 >= ... >= m_p >= 0, lexicographically descending.

    Exactly C(n+p-1, p-1) chains are produced (`guards.chain_count`).  The
    arguments are checked at the call; only the chains themselves are lazy.
    Callers that bound their work check the count first (`guards.plan_window`,
    `guards.plan_mhs_value`).
    """
    return ((n,) + tail for tail in chain_tails(n, p))


def _check_index(spec: NestedSumSpec, n: Sequence[int]) -> Index:
    n = tuple(n)
    if len(n) != spec.r:
        raise ValueError(f"index {n} has arity {len(n)}, spec has {spec.r} slots")
    if any(ni < 0 for ni in n):
        raise ValueError(f"index {n} has negative entries")
    return n


def _corner(spec: NestedSumSpec, box: Sequence[int]) -> Index:
    """The last point of the box prod [0, box_i), checked against the spec.

    Callers guard their work on the corner before they list the box.
    """
    box = tuple(box)
    if len(box) != spec.r:
        raise ValueError(f"box {box} does not match {spec.r} slots")
    if any(extent < 1 for extent in box):
        raise ValueError(f"box extents must be >= 1, got {box}")
    return tuple(extent - 1 for extent in box)


def _points(box: Sequence[int]) -> list[Index]:
    """The points of the box prod [0, box_i), in lexicographic order."""
    return list(itertools.product(*(range(extent) for extent in box)))


def _block_chain_data(
    d: int, ys: Sequence[int], n: int, radix: int
) -> tuple[int, list[tuple[int, int]]]:
    """d**n and, per chain of one slot, (code, multinomial * prod y^v).

    With d, ys = `common_denominator(block)` of the slot's block x, each
    chain's weight multinomial * prod x^v is that int over d**n, since its
    steps v sum to n.  The code packs the chain's columns (m_1, v_1, ...,
    m_{p-1}, v_{p-1}) as the digits of one int base `radix`, m_1 the most
    significant: the chain's share of the group code of `direct_window`.
    Only the powers y^v the chains read are built: every v in 0..n above
    depth 1, but y^n alone at depth 1, whose one chain costs one summand and
    has code 0.
    """
    p = len(ys)
    exponents = range(n + 1) if p > 1 else (n,)
    powers = [{v: y**v for v in exponents} for y in ys]
    data = []
    for chain in enumerate_chains(n, p):
        nu = tuple(m - below for m, below in zip(chain, chain[1:])) + chain[-1:]  # v_p = m_p
        weight = multinomial(n, nu)
        for j in range(p):
            weight *= powers[j][nu[j]]
        code = 0
        for m, v in zip(chain, nu[:-1]):
            code = (code * radix + m) * radix + v
        data.append((code, weight))
    return d**n, data


def direct_window(
    spec: NestedSumSpec,
    points: Sequence[Sequence[int]],
    guard: int | Plan = DEFAULT_GUARD,
) -> list[tuple[int, int]]:
    """Evaluate the defining sum at every point by chain enumeration, on ints.

    Returns one (numerator, denominator > 0) pair per point, in order and
    not necessarily in lowest terms.  Every point's summands are checked
    against `guard` before any chain is listed (`guards.plan_window`).

    Each slot's chain weights are ints over d_i**n_i (`_block_chain_data`,
    built once per distinct (slot, n_i) of the window, from d_i and the
    block's numerators over it, built once per slot), so the merged
    numerator of every group of summands sharing the per-column sums
    (sum_i m_ij, sum_i v_ij) is an int over prod_i d_i**n_i, built with no
    gcd.  A chain list is dropped after the last point of the window that
    reads it, so a window holds only the lists its remaining points share.
    A group's key is one int, those sums packed as digits base
    R = max |n| + 1 over the window: every column sum is at most |n| < R,
    so the key of a chain tuple is the sum of its chains' codes, with no
    carry.  Each group is then divided by its denominator
    prod_j C(col_m + t_j - 1, col_v) (col_m + t_j), whose digits are read
    back with divmod, into a running int pair over the lcm of the group
    denominators: one gcd per group.  With t_j = a/b a column's factor is
    the int pair of `gen_binomial_pair(b col_m + a, b, col_v + 1)` with its
    denominator divided by col_v + 1, reduced by one gcd, once per distinct
    (j, col_m, col_v) of the window.  The set of summands is the defining
    one; only the order of exact operations differs.
    """
    points = [_check_index(spec, n) for n in points]
    checked(guard, plan_window, spec, points)
    p = spec.p
    radix = max(map(sum, points), default=0) + 1
    square = radix * radix
    shifts = [(t.numerator, t.denominator) for t in spec.tparams]
    # per slot i: d_i and block i's numerators over d_i
    blocks = [common_denominator(block) for block in spec.xblocks]
    # (slot, n_i) -> d_i**n_i and the slot's (code, weight) per chain, held
    # from its first reader up to its last (`last_reader`)
    slot_chains: dict[Index, tuple[int, list[tuple[int, int]]]] = {}
    last_reader = {(i, ni): at for at, n in enumerate(points) for i, ni in enumerate(n)}
    # per column j: col_m * radix + col_v -> reduced (numerator, denominator > 0) of its factor
    factors: list[dict[int, tuple[int, int]]] = [{} for _ in shifts]
    values = []
    for at, n in enumerate(points):
        groups: dict[int, int] = {0: 1}
        scale = 1
        for i, ni in enumerate(n):
            if (i, ni) not in slot_chains:
                slot_chains[i, ni] = _block_chain_data(*blocks[i], ni, radix)
            block_scale, chains = slot_chains[i, ni]
            if last_reader[i, ni] == at:
                del slot_chains[i, ni]
            scale *= block_scale
            merged: dict[int, int] = {}
            for key, partial in groups.items():
                for code, weight in chains:
                    new_key = key + code
                    contribution = partial * weight
                    if new_key in merged:
                        merged[new_key] += contribution
                    else:
                        merged[new_key] = contribution
            groups = merged

        total_num, total_den = 0, 1
        for key, numerator in groups.items():
            denominator = 1
            for j in range(p - 2, -1, -1):
                key, column = divmod(key, square)
                factor = factors[j].get(column)
                if factor is None:
                    col_m, col_v = divmod(column, radix)
                    a, b = shifts[j]
                    # C(m + t - 1, v) (m + t) = (v + 1) C(m + t, v + 1)
                    factor_num, factor_den = gen_binomial_pair(b * col_m + a, b, col_v + 1)
                    factor_den //= col_v + 1
                    assert factor_num != 0, "zero denominator despite shift-parameter invariant"
                    g = math.gcd(factor_num, factor_den)
                    factor = factors[j][column] = factor_num // g, factor_den // g
                factor_num, factor_den = factor
                numerator *= factor_den
                denominator *= factor_num
            g = math.gcd(total_den, denominator)
            total_num = total_num * (denominator // g) + numerator * (total_den // g)
            total_den *= denominator // g
        if total_den < 0:
            total_num, total_den = -total_num, -total_den
        values.append((total_num, total_den * scale))
    return values


def c_direct(
    spec: NestedSumSpec,
    n: Sequence[int],
    guard: int | Plan = DEFAULT_GUARD,
) -> Fraction:
    """The defining sum at one point: `direct_window` of that point, one Fraction."""
    ((numerator, denominator),) = direct_window(spec, (n,), guard)
    return Fraction(numerator, denominator)


class RecurrenceEvaluator:
    """Depth-reduction evaluation of c over a box, on integers.

    Level l = 0..L (L = p-1) is the spec with the first l components of
    every block dropped, so level L is the monomial prod_k x_{k,L}^{m_k}.
    Write t_l = a_l/b_l (b_l > 0), s = |m|, D_0 for the lcm of the
    denominators of every x, D_L for that of level L's, and

        P_l(s) = prod_{u=0}^{s} (b_l u + a_l)   (l < L),

    where no factor b_l u + a_l is zero at u >= 0 because t_l is not in
    {0, -1, ...}.  Level L stores the integers
    N(L, m) = prod_k (D_L x_{k,L})^{m_k} = c(L, m) D_L^s, and each level
    l < L the integer numerators N(l, m) = c(l, m) F_l(s) over

        F_l(s) = D_0^s prod_{l' < L} P_l'(s-1) prod_{l <= l' < L} (b_l' s + a_l').

    F_0(s) = D_0^s prod_{l' < L} P_l'(s) is E_0(s), the denominator of
    the level-0 values.  The fill computes

        N(l, m) = H_l(s) sum_k (D_0 x_{k,l}) m_k N(l, m - e_k) + G_l(s) N(l+1, m),
        H_l(s) = b_l prod_{l' < l} (b_l' (s-1) + a_l') prod_{l < l' < L} (b_l' s + a_l'),
        G_l(s) = b_l  (l < L-1),
        G_{L-1}(s) = b_{L-1} (D_0/D_L)^s prod_{l' < L} P_l'(s-1),

    all ints tabulated per s, so no gcd runs inside the loop.  Neither
    H_l(s), b_l times p - 2 linear factors, nor D_0 x_{k,l} grows with
    the box beyond a few machine words, so the one product of two big
    integers left is G_{L-1}(s) N(L, m), against level L's monomials.  At
    p <= 2 this is the recurrence over E_l(s) = D_l^s prod_{l' >= l} P_l'(s)
    term for term.

    Each level is one flat list in the row-major order of `_points`, and
    only two are alive at a time.  The fill walks a level one row of the
    last axis at a time.  Along a row the entries m_k of the earlier slots
    are constant, so their terms, read from earlier rows, are C-level maps
    of the constants (D_0 x_{k,l}) m_k over slices, summed into c.  The
    last slot's term reads the cell just filled, so each row runs one
    loop, value = H_l(s) (c + (D_0 x_{r,l}) m_r value) + G_l(s) N(l+1, m).
    Level L is built row by row as a scalar times the powers of the last
    slot.

    The level-0 numerators of the box are kept.  `value` reads one Fraction
    (one gcd), N(0, m) / E_0(|m|); `table` builds none: it scales every
    numerator to E_0(top), top the largest |m| of its box, since E_0(s)
    divides E_0(s + 1), and moves the sign into the numerators when
    E_0(top) < 0.

    An evaluator holds one fill of one box.  The first `value(n)` or
    `table(extents)` fills the box below its corner once `guard` admits
    `guards.plan_fill`.  Later reads must lie in that box: a `value` outside
    it, or a `table` of any other box, raises ValueError and leaves the fill
    as it was.
    """

    def __init__(self, spec: NestedSumSpec, guard: int | Plan = DEFAULT_GUARD):
        self.spec = spec
        self.guard = guard
        self._corner: Index | None = None
        self._numerators: list[int] = []
        self._denominators: list[int] = []

    @property
    def memo_entries(self) -> int:
        """(level, index) values the fill determined: p * prod(corner_i + 1)."""
        return self.spec.p * len(self._numerators)

    def value(self, n: Sequence[int]) -> Fraction:
        n = _check_index(self.spec, n)
        corner = self._corner
        if corner is None:
            corner = n
            self._fill(corner)
        elif any(map(operator.gt, n, corner)):
            raise ValueError(f"index {n} is outside the filled box below {corner}")
        flat = 0
        for ni, ci in zip(n, corner):
            flat = flat * (ci + 1) + ni
        return Fraction(self._numerators[flat], self._denominators[sum(n)])

    def table(self, extents: Sequence[int]) -> MultiSequenceTable:
        """c over the box prod [0, extents_i), the box of the fill.

        The numerators are N(0, m) E_0(top) / E_0(|m|) over |E_0(top)|.
        """
        corner = _corner(self.spec, extents)
        if self._corner not in (None, corner):
            raise ValueError(f"box below {corner} is not the filled box below {self._corner}")
        self.value(corner)  # the fill runs inside `value`, the span perfbench traces
        top = sum(corner)
        denominator = self._denominators[top]
        sign = -1 if denominator < 0 else 1
        scales = [sign * denominator // e for e in self._denominators[:top + 1]]
        sums = map(sum, _points(extents))
        scaled = tuple(map(operator.mul, self._numerators, map(scales.__getitem__, sums)))
        return MultiSequenceTable._trusted(tuple(extents), scaled, sign * denominator)

    def _fill(self, corner: Index) -> None:
        checked(self.guard, plan_fill, self.spec, corner)
        spec = self.spec
        last = spec.p - 1
        top = sum(corner)
        width = corner[-1] + 1
        # the rows of the last axis in the order of `_points`: the entries
        # m_k of the slots before the last, and how many rows back a step
        # in slot k lies
        leads = _points([c + 1 for c in corner[:-1]])
        backs = [math.prod(c + 1 for c in corner[k + 1:-1]) for k in range(spec.r - 1)]
        # D_0, the lcm of every x-denominator, and D_L, that of level L's;
        # the integers D_0 x_{k,l} per slot and level l < L, and D_L x_{k,L}
        columns = [[x.as_integer_ratio() for x in column] for column in zip(*spec.xblocks)]
        lcm_last = math.lcm(*[d for _, d in columns[last]])
        lcm = math.lcm(lcm_last, *[d for column in columns[:last] for _, d in column])
        ys = [[n * (lcm // d) for n, d in column] for column in columns[:last]]
        ys.append([n * (lcm_last // d) for n, d in columns[last]])
        # the per-s tables: lower[l][s], the product of b_l' (s-1) + a_l'
        # over the levels l' < l, for l = 0..L and s = 0..top+1; then, in
        # one pass over s, G_{L-1}(s) = G_{L-1}(s-1) (D_0/D_L) lower[L][s]
        # from b_{L-1} (unread at p = 1) and E_0(s) = E_0(s-1) D_0 lower[L][s+1]
        # from E_0(0) = lower[L][1] = prod_l a_l
        shifts = [t.as_integer_ratio() for t in spec.tparams]
        lower = [[1] * (top + 2)]
        for a, b in shifts:
            lower.append([q * (b * u + a) for u, q in enumerate(lower[-1], -1)])
        products, step = lower[-1], lcm // lcm_last
        tail = [shifts[-1][1] if shifts else 1]
        denominators = [products[1]]
        for s in range(1, top + 1):
            tail.append(tail[-1] * step * products[s])
            denominators.append(denominators[-1] * lcm * products[s + 1])

        # level L: N(L, m) = prod_k (D_L x_{k,L})^{m_k}, per row a scalar
        # times the powers of the last slot
        *lead_ys, last_y = ys[last]
        powers = [[y**j for j in range(c + 1)] for y, c in zip(lead_ys, corner)]
        last_powers = [last_y**j for j in range(width)]
        numerators = []
        for scalar in map(math.prod, itertools.product(*powers)):
            numerators.extend(map(scalar.__mul__, last_powers))
        after = [1] * (top + 1)  # prod_{l < l' < L} (b_l' s + a_l')
        for level in range(last - 1, -1, -1):
            *lead_ys, last_y = ys[level]
            b = shifts[level][1]
            if level < last - 1:
                a_above, b_above = shifts[level + 1]
                after = [(b_above * s + a_above) * q for s, q in enumerate(after)]
                tail = [b] * (top + 1)  # G_l(s) = b_l
            head = [b * q * h for q, h in zip(lower[level], after)]  # H_l(s)
            last_terms = [last_y * j for j in range(width)]  # D_0 x_{r,l} m_r along a row
            zeros = [0] * width
            below, numerators = numerators, []
            append = numerators.append
            for row, lead in enumerate(leads):
                start, s = row * width, sum(lead)
                # the earlier slots' terms, read from earlier rows: along a
                # row their coefficients D_0 x_{k,l} m_k are constant
                cross = zeros
                for y, mk, back in zip(lead_ys, lead, backs):
                    if y and mk:
                        earlier = (row - back) * width
                        term = map((y * mk).__mul__, numerators[earlier:earlier + width])
                        cross = map(operator.add, cross, term)
                # the last slot's term reads the cell just filled
                value = 0
                for h, c, ym, g, n in zip(head[s:s + width], cross, last_terms, tail[s:s + width],
                                          below[start:start + width]):
                    value = h * (c + ym * value) + g * n
                    append(value)
        self._corner = corner
        self._numerators = numerators
        self._denominators = denominators


def c_recursive(
    spec: NestedSumSpec,
    n: Sequence[int],
    guard: int = DEFAULT_GUARD,
) -> Fraction:
    """One-shot recurrence evaluation: one fill of the box below n."""
    return RecurrenceEvaluator(spec, guard).value(n)


# --- identity verifiers ----------------------------------------------------

C_DUALITY_STATEMENT = (
    "sum_{0<=k<=n} (-1)^{|k|} prod_i C(n_i,k_i) c[x|t](k) = c[1-x|t](n)"
)
DIFFERENCE_STATEMENT = "(delta_1^{k_1}...delta_r^{k_r} c[x|t])(n) = c[x,1-x|t](n,k)"
SHIFT_STATEMENT = (
    "sum_{i in S} c[x|t](n+e_i) = gamma * c[x|t](n)  when sum_{i in S} x_i = (gamma,...,gamma)"
)
RECURRENCE_STATEMENT = "depth-reduction recurrence equals direct chain enumeration"


def _corner_and_fills(
    oracle: NestedSumSpec,
    corner: Index,
    fills: Sequence[tuple[NestedSumSpec, Sequence[int]]],
    guard: int,
    orders: Sequence[int] | None = None,
) -> tuple[tuple[int, int], list[MultiSequenceTable]]:
    """The int pair of `oracle` at `corner`, and one recurrence fill per (spec, box).

    Every guard is checked by arithmetic before anything is evaluated, in
    the order of the plan below: the corner's summands (the most of any
    point of a verifier's box), each fill's cells at p * guard.  Then the
    corner's `c_direct` runs, then the fills.  At depth p >= 2 the corner
    has at least prod(box) summands, so a fill over the box never trips
    where the corner passed; at depth 1, where every point has one summand,
    the fills bound the box.
    """
    plan = check(
        plan_window(oracle, [corner], guard),
        *[plan_fill(spec, _corner(spec, box), oracle.p * guard) for spec, box in fills],
        plan_difference_pass(fills[0][1], orders, guard) if orders is not None else [],
    )
    # c_direct, not direct_window: the corner counts in perfbench's c_direct span
    value = c_direct(oracle, corner, plan).as_integer_ratio()
    return value, [RecurrenceEvaluator(spec, plan).table(box) for spec, box in fills]


def verify_duality(
    spec: NestedSumSpec,
    box: Sequence[int],
    guard: int = DEFAULT_GUARD,
) -> VerificationReport:
    """Check nabla c[x|t] = c[1-x|t] at every point of the box.

    The box is evaluated at once: the left side is `binomial_transform` of
    one recurrence fill of c[x|t], the right side one fill of c[1-x|t],
    except at the corner, where it is chain enumeration (`c_direct`).  The
    corner's left side weights every value of the c[x|t] fill by a nonzero
    binomial, so a wrong recurrence value anywhere in the box fails there.
    Guards as in `_corner_and_fills`.
    """
    dual = spec.one_minus()
    corner_rhs, (fill, dual_fill) = _corner_and_fills(
        dual, _corner(spec, box), [(spec, box), (dual, box)], guard, box
    )
    lhs = binomial_transform(fill).pairs()
    rhs = dual_fill.pairs()[:-1] + [corner_rhs]
    return sweep_report("c-duality", C_DUALITY_STATEMENT, spec.text(), _points(box), lhs, rhs)


def verify_difference_formula(
    spec: NestedSumSpec,
    nbox: Sequence[int],
    kbox: Sequence[int],
    guard: int = DEFAULT_GUARD,
) -> VerificationReport:
    """Check that iterated differences of c are c at doubled parameters.

    The pairs (n, k) over nbox x kbox are evaluated at once: the left side
    is `iterated_delta` of one recurrence fill of c[x|t] over the box
    nbox + kbox - 1, the right side one fill of the 2r-slot doubled spec
    over (nbox, kbox), except at the corner (N - 1, K - 1), where it is
    chain enumeration (`c_direct`).  (delta^k c)(n) weights every fill value
    c(m) with n <= m <= n + k by a nonzero binomial, so the corner anchors
    the top slab N - 1 <= m <= N + K - 2 of the c[x|t] fill.  The rest of
    that fill and the doubled fill, whose corner value is not read, are
    checked against each other.  Guards as in `_corner_and_fills`.
    """
    corner = _corner(spec, nbox) + _corner(spec, kbox)
    pairbox = tuple(nbox) + tuple(kbox)
    fillbox = tuple(n + k - 1 for n, k in zip(nbox, kbox))
    double = spec.doubled()
    corner_rhs, (fill, double_fill) = _corner_and_fills(
        double, corner, [(spec, fillbox), (double, pairbox)], guard, kbox
    )
    lhs = iterated_delta(fill, kbox).pairs()
    rhs = double_fill.pairs()[:-1] + [corner_rhs]
    return sweep_report(
        "difference-formula", DIFFERENCE_STATEMENT, spec.text(), _points(pairbox), lhs, rhs
    )


def verify_shift_identity(
    spec: NestedSumSpec,
    subset: Sequence[int],
    constant: Fraction | int,
    box: Sequence[int],
    guard: int = DEFAULT_GUARD,
) -> VerificationReport:
    """Check sum_{i in subset} c(n+e_i) = constant * c(n) on the box.

    `subset` holds distinct 1-based slot numbers whose blocks must sum to
    the constant vector (the identity's hypothesis, enforced here).

    Both sides read the numerators N of one recurrence fill N/d of the box
    one larger in every slot: with constant a/b, the left side is
    (sum_{i in S} N(n+e_i), d) and the right side (a N(n), b d), except at
    the corner, where it is a/b times chain enumeration (`c_direct`).  The
    left side at the corner is the only reader of the fill values at
    corner + e_i (i in subset), so the corner anchors their sum.  Guards as
    in `_corner_and_fills`; this fill is one larger than the box, so at
    depth p >= 2 it can trip where the corner passed.
    """
    corner = _corner(spec, box)
    subset = tuple(subset)
    constant = Fraction(constant)
    if len(set(subset)) != len(subset):
        raise ValueError(f"subset {subset} has repeated slots")
    if any(not 1 <= i <= spec.r for i in subset):
        raise ValueError(f"subset {subset} outside slots 1..{spec.r}")
    for j in range(spec.p):
        column = sum(spec.xblocks[i - 1][j] for i in subset)
        if column != constant:
            raise ValueError(
                f"hypothesis violated: component {j + 1} of the subset sum is "
                f"{format_rational(column)}, expected {format_rational(constant)}"
            )
    fillbox = tuple(extent + 1 for extent in box)
    (c_num, c_den), (fill,) = _corner_and_fills(spec, corner, [(spec, fillbox)], guard)
    a, b = constant.numerator, constant.denominator
    numerators, d = fill.numerators, fill.denominator
    # n lies at offset sum_k n_k strides_k of the fill's row-major order
    strides = [math.prod(fillbox[k + 1:]) for k in range(spec.r)]
    points = _points(box)
    offsets = [sum(map(operator.mul, n, strides)) for n in points]
    lhs = [(sum(numerators[at + strides[i - 1]] for i in subset), d) for at in offsets]
    rhs = [(a * numerators[at], b * d) for at in offsets[:-1]] + [(a * c_num, b * c_den)]
    label = f"{spec.text()} S={subset} gamma={format_rational(constant)}"
    return sweep_report("shift", SHIFT_STATEMENT, label, points, lhs, rhs)


def verify_recurrence(
    spec: NestedSumSpec,
    box: Sequence[int],
    guard: int = DEFAULT_GUARD,
) -> VerificationReport:
    """Check the recurrence against chain enumeration at every point of the box.

    The left side is one recurrence fill, the right side chain enumeration
    at every point, corner included: one `direct_window` per line of the
    last axis, in row-major order, evaluated as the report reaches it.  A
    line's points share their chain lists for slots 1..r-1, and only one
    line's chains are alive at a time, where a window over the box would
    hold every slot's at once.  The guards run first, in the order of the
    plan below; the corner's summands bound every line's points.
    """
    corner = _corner(spec, box)
    plan = check(plan_window(spec, [corner], guard), plan_fill(spec, corner, spec.p * guard),
                 plan_sweep(spec, box, guard))
    points = _points(box)
    fill = RecurrenceEvaluator(spec, plan).table(box)
    line = box[-1]
    rhs = itertools.chain.from_iterable(
        direct_window(spec, points[at:at + line], plan) for at in range(0, len(points), line)
    )
    return sweep_report("recurrence", RECURRENCE_STATEMENT, spec.text(), points, fill.pairs(), rhs)


# --- seeded random parameter grids ------------------------------------------

# The bound on |numerator| and denominator of every random rational.
RANDOM_BOUND = 9


def random_rational(rng: Random) -> Fraction:
    """Small rational with |numerator| and denominator at most RANDOM_BOUND."""
    return Fraction(rng.randint(-RANDOM_BOUND, RANDOM_BOUND), rng.randint(1, RANDOM_BOUND))


def random_table(rng: Random, shape: tuple[int, ...]) -> MultiSequenceTable:
    """Small random rationals over the box of `shape`, in row-major order."""
    values = tuple(random_rational(rng) for _ in range(math.prod(shape)))
    return MultiSequenceTable(tuple(shape), values)


def random_shift(rng: Random) -> Fraction:
    """Small rational outside {0, -1, -2, ...}; negative non-integers allowed."""
    while True:
        t = random_rational(rng)
        if not _is_nonpositive_integer(t):
            return t


def random_blocks(rng: Random, r: int, p: int) -> tuple[tuple[Fraction, ...], ...]:
    """r parameter blocks of p random rationals, drawn block by block."""
    return tuple(tuple(random_rational(rng) for _ in range(p)) for _ in range(r))


def random_spec(rng: Random, max_r: int, max_p: int) -> NestedSumSpec:
    r = rng.randint(1, max_r)
    p = rng.randint(1, max_p)
    xblocks = random_blocks(rng, r, p)
    tparams = tuple(random_shift(rng) for _ in range(p - 1))
    return NestedSumSpec(xblocks, tparams)


def random_shift_configuration(
    rng: Random,
    max_r: int,
    max_p: int,
) -> tuple[NestedSumSpec, tuple[int, ...], Fraction]:
    """Spec of 2..max_r slots plus subset and constant satisfying the shift hypothesis.

    The final subset slot is solved for, so the subset sums to the constant
    vector by construction.
    """
    if max_r < 2:
        raise ValueError(f"max_r must be at least 2 for a shift configuration, got {max_r}")
    r = rng.randint(2, max_r)
    p = rng.randint(1, max_p)
    q = rng.randint(2, r)
    subset = tuple(sorted(rng.sample(range(1, r + 1), q)))
    constant = random_rational(rng)
    blocks = list(random_blocks(rng, r, p))
    last = subset[-1]
    solved = tuple(
        constant - sum(blocks[i - 1][j] for i in subset[:-1])
        for j in range(p)
    )
    blocks[last - 1] = solved
    tparams = tuple(random_shift(rng) for _ in range(p - 1))
    return NestedSumSpec(tuple(blocks), tparams), subset, constant
