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

* `c_direct` enumerates the chain tuples of the defining sum (grouping
  summands that share a denominator, which is an exact regrouping);
* `c_recursive` runs the depth-reduction recurrence

      c(n) = [ sum_k x_{k1} n_k c(n - e_k) + c_reduced(n) ] / (|n| + t_1)

  over the whole box below n, turning the exponential chain count into
  O(p * prod(n_i + 1) * r) steps.  The steps run on integers: level l
  stores the numerators of c over one known denominator E_l(|m|) per
  (level, |m|) (see `RecurrenceEvaluator`), so no gcd runs in the loop and
  each value read costs one Fraction.

The single-slot sums `kt_value` and the two-slot sums `two_index_value`
have their own classical coefficient normalizations; both must (and are
verified to) coincide with `c_direct` at t = 1.

Verifiers at the bottom check, on finite boxes and each over the whole box
at once from recurrence fills, the recurrence against c_direct at every
point, and with c_direct at the corner the duality (nabla c[x;t] =
c[1-x;t]), the difference formula (iterated differences of c are again c at
doubled parameters) and the shift identity for parameter blocks summing to
a constant vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterator, Sequence

from .errors import DEFAULT_GUARD, check_guard
from .kernel import gen_binomial, multinomial, format_rational, parse_rational
from .multiseq import MultiSequenceTable, binomial_transform, iterated_delta
from .report import VerificationReport, sweep_report

Index = tuple[int, ...]


def _is_nonpositive_integer(value: Fraction) -> bool:
    return value.denominator == 1 and value.numerator <= 0


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
        ttext = ttext.strip()
        tparams = tuple(parse_rational(item) for item in ttext.split(",")) if ttext else ()
        return cls(xblocks, tparams)

    def text(self) -> str:
        xtext = ";".join(",".join(format_rational(x) for x in block) for block in self.xblocks)
        ttext = ",".join(format_rational(t) for t in self.tparams)
        return f"x={xtext} t={ttext}" if ttext else f"x={xtext}"


def enumerate_chains(
    n: int, p: int, chain_guard: int | None = None
) -> Iterator[Index]:
    """All chains n = m_1 >= ... >= m_p >= 0, lexicographically descending.

    Exactly C(n+p-1, p-1) chains are produced.  The arguments and the guard
    are checked at the call, before the caller does any other work; only
    the chains themselves are lazy.
    """
    if n < 0 or p < 1:
        raise ValueError(f"need natural n and positive p, got ({n}, {p})")
    if chain_guard is not None:
        check_guard("chain count", chain_count(n, p), chain_guard)
    # weakly decreasing tails are multisets drawn from n, n-1, ..., 0; the
    # pool is a tuple of n + 1 entries, so depth 1 (empty tails) takes none
    pool = range(n, -1, -1) if p > 1 else ()
    tails = itertools.combinations_with_replacement(pool, p - 1)
    return ((n,) + tail for tail in tails)


def chain_count(n: int, p: int) -> int:
    return math.comb(n + p - 1, p - 1)


def direct_summand_count(spec: NestedSumSpec, n: Sequence[int]) -> int:
    """Chain tuples the defining sum runs over at index n."""
    return math.prod(chain_count(ni, spec.p) for ni in n)


def recurrence_cell_count(spec: NestedSumSpec, n: Sequence[int]) -> int:
    """Memo cells a recurrence fill up to corner n writes: p * prod(n_i + 1)."""
    return spec.p * math.prod(ni + 1 for ni in n)


def _check_summands(spec: NestedSumSpec, n: Sequence[int], guard: int) -> None:
    check_guard("direct summand count", direct_summand_count(spec, n), guard)


def _check_cells(spec: NestedSumSpec, corner: Sequence[int], guard: int) -> None:
    check_guard("recurrence cell count", recurrence_cell_count(spec, corner), guard)


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
    block: tuple[Fraction, ...], n: int
) -> list[tuple[Index, Index, Fraction]]:
    """Per chain of one slot: (m-vector, v-vector, multinomial * prod x^v).

    Only the powers x^v the chains read are built: every v in 0..n above
    depth 1, but x^n alone at depth 1, whose one chain costs one summand.
    """
    p = len(block)
    exponents = range(n + 1) if p > 1 else (n,)
    powers = [{v: x**v for v in exponents} for x in block]
    data = []
    for chain in enumerate_chains(n, p):
        nu = tuple(chain[j] - chain[j + 1] for j in range(p - 1)) + (chain[-1],)
        weight = Fraction(multinomial(n, nu))
        for j in range(p):
            weight *= powers[j][nu[j]]
        data.append((chain, nu, weight))
    return data


def c_direct(
    spec: NestedSumSpec,
    n: Sequence[int],
    summand_guard: int = DEFAULT_GUARD,
) -> Fraction:
    """Evaluate the defining sum by chain enumeration.

    Summands sharing the per-column sums (sum_i m_ij, sum_i v_ij) share a
    denominator, so their numerators are accumulated first and each group is
    divided once.  The set of summands is the defining one; only the order
    of exact rational operations differs.
    """
    n = _check_index(spec, n)
    _check_summands(spec, n, summand_guard)
    p = spec.p

    # key: per-column (sum of m_ij, sum of v_ij) for j < p, accumulated over slots
    empty: Index = (0,) * (2 * (p - 1))
    groups: dict[Index, Fraction] = {empty: Fraction(1)}
    for i, block in enumerate(spec.xblocks):
        chains = _block_chain_data(block, n[i])
        merged: dict[Index, Fraction] = {}
        for key, partial in groups.items():
            for chain, nu, weight in chains:
                new_key = tuple(
                    key[2 * j + s] + (chain[j] if s == 0 else nu[j])
                    for j in range(p - 1)
                    for s in (0, 1)
                )
                contribution = partial * weight
                if new_key in merged:
                    merged[new_key] += contribution
                else:
                    merged[new_key] = contribution
        groups = merged

    total = Fraction(0)
    for key, numerator in groups.items():
        denominator = Fraction(1)
        for j in range(p - 1):
            col_m, col_v = key[2 * j], key[2 * j + 1]
            linear = col_m + spec.tparams[j]
            denominator *= gen_binomial(linear - 1, col_v) * linear
        assert denominator != 0, "zero denominator despite shift-parameter invariant"
        total += numerator / denominator
    return total


class RecurrenceEvaluator:
    """Depth-reduction evaluation of c over a box, on integers.

    Level l = 0..L (L = p-1) is the spec with the first l components of
    every block dropped, so level L is the monomial prod_k x_{k,L}^{m_k}.
    Write d_l for the lcm of the denominators of x_{k,l} over k and
    t_l = a_l/b_l (b_l > 0).  The denominator of c(l, m) divides, with
    s = |m|,

        E_L(s) = d_L^s,   E_l(s) = d_l^s * P_l(s) * E_{l+1}(s),
        P_l(s) = prod_{u=0}^{s} (b_l u + a_l),

    where no factor b_l u + a_l is zero because t_l is not in {0, -1, ...}.
    The fill computes the integer numerators N(l, m) = c(l, m) E_l(s):

        N(l, m) = b_l R_{l+1}(s) sum_k (d_l x_{k,l}) m_k N(l, m - e_k)
                  + G_l(s) N(l+1, m),

    with R_l(s) = E_l(s)/E_l(s-1) = d_l (b_l s + a_l) R_{l+1}(s),
    R_L(s) = d_L, and G_l(s) = b_l d_l^s P_l(s-1), all tabulated per s, so
    no gcd runs inside the loop.  Each level is one flat list in
    lexicographic order and only two are alive at a time.  The level-0
    numerators of the box are kept; reading a value costs one Fraction
    (one gcd), N(0, m) / E_0(|m|).

    A fill covers the box below its corner.  A `value` outside it refills,
    from scratch, the box below the componentwise maximum of the old corner
    and the new index.  Every fill, a refill included, raises GuardExceeded
    before it starts when its own cell count (`recurrence_cell_count` of
    its corner) exceeds `cell_guard`.
    """

    def __init__(self, spec: NestedSumSpec, cell_guard: int = DEFAULT_GUARD):
        self.spec = spec
        self.cell_guard = cell_guard
        self._corner: Index | None = None
        self._strides: Index = ()
        self._numerators: list[int] = []
        self._denominators: list[int] = []

    @property
    def memo_entries(self) -> int:
        """(level, index) values the current fill determined: p * prod(corner_i + 1)."""
        return self.spec.p * len(self._numerators)

    def value(self, n: Sequence[int]) -> Fraction:
        n = _check_index(self.spec, n)
        corner = self._corner
        if corner is None:
            self._fill(n)
        elif any(ni > ci for ni, ci in zip(n, corner)):
            self._fill(tuple(map(max, n, corner)))
        return self._read(n)

    def table(self, extents: Sequence[int]) -> MultiSequenceTable:
        """c over the box prod [0, extents_i), read from one fill up to its corner."""
        self.value(_corner(self.spec, extents))
        values = tuple(map(self._read, _points(extents)))
        return MultiSequenceTable(tuple(extents), values)

    def _read(self, m: Index) -> Fraction:
        flat = sum(mi * stride for mi, stride in zip(m, self._strides))
        return Fraction(self._numerators[flat], self._denominators[sum(m)])

    def _fill(self, corner: Index) -> None:
        _check_cells(self.spec, corner, self.cell_guard)
        spec = self.spec
        last = spec.p - 1
        top = sum(corner)
        strides = [1] * spec.r
        for k in range(spec.r - 2, -1, -1):
            strides[k] = strides[k + 1] * (corner[k + 1] + 1)
        points = list(itertools.product(*(range(c + 1) for c in corner)))
        sums = list(map(sum, points))
        coords = [[m[k] for m in points] for k in range(spec.r)]

        def scaled(level: int) -> tuple[int, list[int]]:
            """d_l and the integers d_l * x_{k,l} per slot."""
            column = [block[level] for block in spec.xblocks]
            d = math.lcm(*(x.denominator for x in column))
            return d, [(d * x).numerator for x in column]

        # level L: N(L, m) = prod_k (d_L x_{k,L})^{m_k}
        d, ys = scaled(last)
        powers = [[y**j for j in range(c + 1)] for y, c in zip(ys, corner)]
        numerators = [math.prod(values) for values in itertools.product(*powers)]
        ratio = [d] * (top + 1)  # R_{l+1}(s), here R_L(s)
        for level in range(last - 1, -1, -1):
            d, ys = scaled(level)
            a, b = spec.tparams[level].numerator, spec.tparams[level].denominator
            head = [b * rs for rs in ratio]  # b_l R_{l+1}(s)
            tail = [b]  # G_l(s)
            for s in range(1, top + 1):
                tail.append(tail[-1] * d * (b * (s - 1) + a))
            terms = [
                ([y * mk for mk in coords[k]], strides[k])
                for k, y in enumerate(ys)
                if y
            ]
            below, numerators = numerators, [0] * len(points)
            for flat, s in enumerate(sums):
                acc = 0
                for coefficients, stride in terms:
                    coefficient = coefficients[flat]
                    if coefficient:
                        acc += coefficient * numerators[flat - stride]
                numerators[flat] = head[s] * acc + tail[s] * below[flat]
            ratio = [d * (b * s + a) * rs for s, rs in enumerate(ratio)]
        # E_0(0) = prod_l a_l, E_0(s) = E_0(s-1) R_0(s)
        denominators = [math.prod(t.numerator for t in spec.tparams)]
        for s in range(1, top + 1):
            denominators.append(denominators[-1] * ratio[s])
        self._corner = corner
        self._strides = tuple(strides)
        self._numerators = numerators
        self._denominators = denominators


def c_recursive(
    spec: NestedSumSpec,
    n: Sequence[int],
    cell_guard: int = DEFAULT_GUARD,
) -> Fraction:
    """One-shot recurrence evaluation; reuse a RecurrenceEvaluator for sweeps."""
    return RecurrenceEvaluator(spec, cell_guard).value(n)


def kt_value(
    x: Sequence[Fraction | int],
    n: int,
    chain_guard: int = DEFAULT_GUARD,
) -> Fraction:
    """Single-slot parametric sum with harmonic denominators.

    sum over chains n = m_1 >= ... >= m_p >= 0 of
    x_1^{m_1-m_2} ... x_{p-1}^{m_{p-1}-m_p} x_p^{m_p} / ((m_1+1)...(m_{p-1}+1)).

    Coincides with c_direct at r = 1 and all shifts equal to 1; the direct
    formula here keeps that a genuine cross-check.
    """
    x = tuple(Fraction(v) for v in x)
    p = len(x)
    if p < 1:
        raise ValueError("need at least one parameter")
    if n < 0:
        raise ValueError(f"n must be a natural, got {n}")
    total = Fraction(0)
    for chain in enumerate_chains(n, p, chain_guard):
        term = Fraction(1)
        for j in range(p - 1):
            term *= x[j] ** (chain[j] - chain[j + 1])
        term *= x[-1] ** chain[-1]
        denom = 1
        for j in range(p - 1):
            denom *= chain[j] + 1
        total += term / denom
    return total


def two_index_value(
    x: Sequence[Fraction | int],
    y: Sequence[Fraction | int],
    n: int,
    k: int,
    chain_guard: int = DEFAULT_GUARD,
) -> Fraction:
    """Two-slot sum with the inverse-binomial coefficient normalization.

    The coefficient is
        C(n+k, n)^{-1} * prod_{j<p} C(v_j + w_j, v_j) * C(m_p + l_p, m_p)
    over chain pairs (m, l), with denominators (m_j + l_j + 1) for j < p.
    Coincides with c_direct at r = 2 and shifts equal to 1, which is exactly
    the requirement pinning the general coefficient.
    """
    x = tuple(Fraction(v) for v in x)
    y = tuple(Fraction(v) for v in y)
    if len(x) != len(y):
        raise ValueError("parameter vectors must share a depth")
    p = len(x)
    if n < 0 or k < 0:
        raise ValueError(f"indices must be naturals, got ({n}, {k})")
    check_guard("chain-pair count", chain_count(n, p) * chain_count(k, p), chain_guard)
    lead = Fraction(1, math.comb(n + k, n))
    total = Fraction(0)
    for m in enumerate_chains(n, p):
        nu = tuple(m[j] - m[j + 1] for j in range(p - 1)) + (m[-1],)
        xterm = Fraction(1)
        for j in range(p):
            xterm *= x[j] ** nu[j]
        for l in enumerate_chains(k, p):
            kappa = tuple(l[j] - l[j + 1] for j in range(p - 1)) + (l[-1],)
            coeff = math.comb(m[-1] + l[-1], m[-1])
            for j in range(p - 1):
                coeff *= math.comb(nu[j] + kappa[j], nu[j])
            term = lead * coeff * xterm
            for j in range(p):
                term *= y[j] ** kappa[j]
            denom = 1
            for j in range(p - 1):
                denom *= m[j] + l[j] + 1
            total += term / denom
    return total


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
) -> tuple[Fraction, list[MultiSequenceTable]]:
    """c_direct of `oracle` at `corner`, and one recurrence fill per (spec, box).

    Every guard is checked by arithmetic before anything is evaluated: the
    corner's summands (the most of any point of a verifier's box), then
    each fill's cells at p * guard.  Then the corner's `c_direct` runs,
    then the fills.  At depth p >= 2 the corner has at least prod(box)
    summands, so a fill over the box never trips where the corner passed;
    at depth 1, where every point has one summand, the fills bound the box.
    """
    cell_guard = oracle.p * guard
    _check_summands(oracle, corner, guard)
    for spec, box in fills:
        _check_cells(spec, _corner(spec, box), cell_guard)
    value = c_direct(oracle, corner, guard)
    return value, [RecurrenceEvaluator(spec, cell_guard).table(box) for spec, box in fills]


def verify_duality(
    spec: NestedSumSpec,
    box: Sequence[int],
    summand_guard: int = DEFAULT_GUARD,
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
        dual, _corner(spec, box), [(spec, box), (dual, box)], summand_guard
    )
    lhs = binomial_transform(fill).values
    rhs = dual_fill.values[:-1] + (corner_rhs,)
    return sweep_report("c-duality", C_DUALITY_STATEMENT, spec.text(), _points(box), lhs, rhs)


def verify_difference_formula(
    spec: NestedSumSpec,
    nbox: Sequence[int],
    kbox: Sequence[int],
    summand_guard: int = DEFAULT_GUARD,
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
        double, corner, [(spec, fillbox), (double, pairbox)], summand_guard
    )
    return sweep_report(
        "difference-formula",
        DIFFERENCE_STATEMENT,
        spec.text(),
        _points(pairbox),
        iterated_delta(fill, kbox).values,
        double_fill.values[:-1] + (corner_rhs,),
    )


def verify_shift_identity(
    spec: NestedSumSpec,
    subset: Sequence[int],
    constant: Fraction | int,
    box: Sequence[int],
    summand_guard: int = DEFAULT_GUARD,
) -> VerificationReport:
    """Check sum_{i in subset} c(n+e_i) = constant * c(n) on the box.

    `subset` holds distinct 1-based slot numbers whose blocks must sum to
    the constant vector (the identity's hypothesis, enforced here).

    Both sides read one recurrence fill of the box one larger in every
    slot, except the right side at the corner, which is constant times
    chain enumeration (`c_direct`).  The left side at the corner is the
    only reader of the fill values at corner + e_i (i in subset), so the
    corner anchors their sum.  Guards as in `_corner_and_fills`; this fill
    is one larger than the box, so at depth p >= 2 it can trip where the
    corner passed.
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
    corner_value, (fill,) = _corner_and_fills(spec, corner, [(spec, fillbox)], summand_guard)
    points = _points(box)
    return sweep_report(
        "shift",
        SHIFT_STATEMENT,
        f"{spec.text()} S={subset} gamma={format_rational(constant)}",
        points,
        (
            sum((fill[n[: i - 1] + (n[i - 1] + 1,) + n[i:]] for i in subset), Fraction(0))
            for n in points
        ),
        [constant * fill[n] for n in points[:-1]] + [constant * corner_value],
    )


def verify_recurrence(
    spec: NestedSumSpec,
    box: Sequence[int],
    summand_guard: int = DEFAULT_GUARD,
) -> VerificationReport:
    """Check the recurrence against c_direct at every point of the box.

    The left side is one recurrence fill of the box, the right side
    `c_direct` per point.  Guards as in `_corner_and_fills`.
    """
    corner = _corner(spec, box)
    corner_value, (fill,) = _corner_and_fills(spec, corner, [(spec, box)], summand_guard)
    points = _points(box)
    rhs = [c_direct(spec, n, summand_guard) for n in points[:-1]] + [corner_value]
    return sweep_report("recurrence", RECURRENCE_STATEMENT, spec.text(), points, fill.values, rhs)


# --- seeded random parameter grids ------------------------------------------

# The bound on |numerator| and denominator of every random rational.
RANDOM_BOUND = 9


def random_rational(rng: Random) -> Fraction:
    """Small rational with |numerator| and denominator at most RANDOM_BOUND."""
    return Fraction(rng.randint(-RANDOM_BOUND, RANDOM_BOUND), rng.randint(1, RANDOM_BOUND))


def random_table(rng: Random, arity: int, extent: int) -> MultiSequenceTable:
    """Small random rationals over the box [0, extent)^arity."""
    values = tuple(random_rational(rng) for _ in range(extent**arity))
    return MultiSequenceTable((extent,) * arity, values)


def random_shift(rng: Random) -> Fraction:
    """Small rational outside {0, -1, -2, ...}; negative non-integers allowed."""
    while True:
        t = random_rational(rng)
        if not _is_nonpositive_integer(t):
            return t


def random_spec(rng: Random, max_r: int, max_p: int) -> NestedSumSpec:
    r = rng.randint(1, max_r)
    p = rng.randint(1, max_p)
    xblocks = tuple(tuple(random_rational(rng) for _ in range(p)) for _ in range(r))
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
    r = rng.randint(2, max_r)
    p = rng.randint(1, max_p)
    q = rng.randint(2, r)
    subset = tuple(sorted(rng.sample(range(1, r + 1), q)))
    constant = random_rational(rng)
    blocks: list[tuple[Fraction, ...]] = [
        tuple(random_rational(rng) for _ in range(p)) for _ in range(r)
    ]
    last = subset[-1]
    solved = tuple(
        constant - sum(blocks[i - 1][j] for i in subset[:-1])
        for j in range(p)
    )
    blocks[last - 1] = solved
    tparams = tuple(random_shift(rng) for _ in range(p - 1))
    return NestedSumSpec(tuple(blocks), tparams), subset, constant
