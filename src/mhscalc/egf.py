"""Truncated multivariate power series and the operator algebra on them.

Series live in Q[[X_1..X_m]] truncated at a total degree bound D.  A
sequence a: N^r -> Q enters through its exponential generating function

    f_a = sum a(n) X^n / n!        (n! meaning n_1! ... n_r!)

so the stored coefficient of X^n is a(n)/n!.  The bound is part of the
value: derivatives lower it by one (the top coefficients of the derivative
would need unseen data), while multiplication by X_i, the Euler-type
operator xi, and the inversion nabla keep it (they never consult degrees
above what they produce).  Equality compares up to the smaller bound.

A series is dense: one int numerator per exponent vector of degree <= D,
in the graded order of its `_Space`, over one positive int
denominator.  Every operator runs on that form (a sum over the lcm of the
two denominators, a product over their product, a rational parameter over
the lcm of its own); a Fraction is built only on reading.  A graded space
(`_Space`) gives each vector an additive int code, so the kernels find
positions by int addition and a dict lookup and build no exponent tuple.

Operators:

    deriv, mul_var                 partial derivative, multiplication by X_i
    xi_apply(f, x)                 sum_i X_i d_i f - sum_i x_i X_i f
    nabla_series(f)                f(-X_1,..,-X_m) * e^{X_1+..+X_m}
    subst_linear(f, rows)          X_i -> linear form given by rows[i]

`verify_operator_suite` checks the whole operator-level identity battery
(the generating-function forms of the duality and difference machinery) on
seeded random sequences and parameter specs, coefficient by coefficient.
Its nested-sum windows come from recurrence fills; the reduced side of
depth reduction stays chain enumeration (one `direct_window` per reduced
spec), which checks the fills.  A space serves every lower bound as a
prefix, so each call builds two spaces per slot count, f_a's and one in 2r
variables, and passes them to the constructors through their `space`
keyword; like the rest of the package it keeps nothing between calls.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from random import Random
from typing import Iterable, Iterator, Sequence

from .guards import DEFAULT_GUARD, check, plan_series_product
from .kernel import common_denominator, format_rational
from .multiseq import MultiSequenceTable, binomial_transform
from .multiseq import iterated_delta  # noqa: F401  (perfbench's tracer wraps it here)
from .nestedsums import (
    NestedSumSpec,
    RecurrenceEvaluator,
    direct_window,
    random_blocks,
    random_rational,
    random_shift,
    random_table,
)
from .report import Row, VerificationReport, comparison_row

Exponents = tuple[int, ...]


class _Space:
    """The exponent vectors of degree <= bound in nvars variables, with codes.

    The vectors are graded lexicographic, built degree by degree one
    variable at a time: those of degree s in m variables are (h,) + v for
    h = 0..s and v of degree s - h in the last m - 1.  So those of degree
    <= b are the first sizes[b] = C(nvars + b, nvars), and a series at any
    bound <= `bound` stores its numerators by position in this list.  The
    code of v is sum_i v_i (bound + 1)^i, so code(v) + code(w) = code(v + w)
    while |v| + |w| <= bound, and `pos` maps a code back to its position.
    `factorials[k]` is prod_i v_i! for the k-th vector v.
    """

    __slots__ = ("nvars", "vectors", "degrees", "sizes", "steps", "codes", "pos", "factorials")

    def __init__(self, nvars: int, bound: int):
        if nvars < 1:
            raise ValueError(f"nvars must be positive, got {nvars}")
        radix = bound + 1
        # by_degree[s]: (vector, code, factorials) of degree s in the variables added so far
        by_degree = [[((s,), s, math.factorial(s))] for s in range(radix)]
        for _ in range(nvars - 1):
            by_degree = [
                [((head,) + v, head + radix * code, math.factorial(head) * fact)
                 for head in range(s + 1) for v, code, fact in by_degree[s - head]]
                for s in range(radix)
            ]
        self.nvars = nvars
        self.vectors, self.codes, self.factorials = map(list, zip(*itertools.chain(*by_degree)))
        self.degrees = [s for s in range(radix) for _ in by_degree[s]]
        self.sizes = list(itertools.accumulate(map(len, by_degree)))
        self.steps = [radix**i for i in range(nvars)]
        self.pos = dict(zip(self.codes, range(len(self.codes))))

    def code(self, exponents: Exponents) -> int:
        return sum(map(int.__mul__, exponents, self.steps))

    def raised(self, bound: int, step: int) -> Iterator[int]:
        """Positions of v + e_i, step = code(e_i), for the vectors v of degree < bound."""
        below = self.codes[: self.sizes[bound - 1]] if bound else ()
        return map(self.pos.__getitem__, map(step.__add__, below))


def _rational(value) -> int | Fraction:
    """An int or Fraction as it is, anything else as a Fraction."""
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


class TruncatedSeries:
    """Dense series over Q, exact up to a total degree bound.

    _nums holds one int numerator per vector of degree <= degree_bound, by
    position in the graded list of _space (a `_Space` of bound >= the
    series' bound), over one _den > 0 not necessarily in lowest terms:
    `terms` reduces, and `==` cross-multiplies.  Positions
    agree across spaces of one variable count, codes do not, so a binary
    operation reads every position from one operand's space.
    """

    __slots__ = ("nvars", "degree_bound", "_den", "_nums", "_space")

    def __init__(self, nvars: int, degree_bound: int, coeffs: dict | None = None):
        if nvars < 1:
            raise ValueError(f"nvars must be positive, got {nvars}")
        if degree_bound < 0:
            raise ValueError(f"degree bound must be a natural, got {degree_bound}")
        fractions: dict[Exponents, Fraction] = {}
        for exponents, coeff in (coeffs or {}).items():
            exponents = tuple(exponents)
            if len(exponents) != nvars or any(e < 0 for e in exponents):
                raise ValueError(f"bad exponent vector {exponents} for {nvars} variables")
            if sum(exponents) > degree_bound:
                raise ValueError(
                    f"exponent vector {exponents} exceeds degree bound {degree_bound}"
                )
            fractions[exponents] = Fraction(coeff)
        self.nvars, self.degree_bound = nvars, degree_bound
        self._space = space = _Space(nvars, degree_bound)
        self._den, values = common_denominator(fractions.values())
        self._nums = [0] * len(space.codes)
        for exponents, n in zip(fractions, values):
            self._nums[space.pos[space.code(exponents)]] = n

    @classmethod
    def _trusted(cls, space: _Space, degree_bound: int, den: int, nums: list) -> "TruncatedSeries":
        """Wrap the int numerators of positions < space.sizes[degree_bound] over den > 0."""
        series = object.__new__(cls)
        series.nvars, series.degree_bound, series._space = space.nvars, degree_bound, space
        series._den, series._nums = den, nums
        return series

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """(exponents, coefficient) pairs of the nonzero terms, graded lexicographic."""
        for exponents, n in zip(self._space.vectors, self._nums):
            if n:
                yield exponents, Fraction(n, self._den)

    def __bool__(self) -> bool:
        return any(self._nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        size = self._space.sizes[min(self.degree_bound, other.degree_bound)]
        a, b = other._den, self._den
        return [a * n for n in self._nums[:size]] == [b * n for n in other._nums[:size]]

    __hash__ = None

    def __repr__(self) -> str:
        shown = itertools.islice(self.terms(), 4)
        head = ", ".join(f"{e}: {format_rational(c)}" for e, c in shown)
        more = "..." if sum(map(bool, self._nums)) > 4 else ""
        return f"TruncatedSeries(nvars={self.nvars}, D={self.degree_bound}, {{{head}{more}}})"

    # --- ring operations (matching nvars and bound required) ---

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        if self.degree_bound != other.degree_bound:
            raise ValueError(
                f"degree bound mismatch: {self.degree_bound} vs {other.degree_bound}; "
                "truncate explicitly first"
            )

    def _over_lcm(self, other: "TruncatedSeries") -> tuple[int, int, int]:
        """The lcm of the two denominators, and what brings each numerator over it."""
        self._check_compatible(other)
        den = math.lcm(self._den, other._den)
        return den, den // self._den, den // other._den

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        den, a, b = self._over_lcm(other)
        nums = [x * a + y * b for x, y in zip(self._nums, other._nums)]
        return TruncatedSeries._trusted(self._space, self.degree_bound, den, nums)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        den, a, b = self._over_lcm(other)
        nums = [x * a - y * b for x, y in zip(self._nums, other._nums)]
        return TruncatedSeries._trusted(self._space, self.degree_bound, den, nums)

    def scale(self, factor) -> "TruncatedSeries":
        factor = _rational(factor)
        a = factor.numerator
        nums = [a * n for n in self._nums]
        den = self._den * factor.denominator
        return TruncatedSeries._trusted(self._space, self.degree_bound, den, nums)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Truncated product: the numerators convolve as ints over d1 * d2.

        Each nonzero term of the sparser factor, at degree d, meets the
        nonzero terms of the other of degree <= D - d, a prefix of them in
        graded order; each product lands at the position of the code sum.
        """
        self._check_compatible(other)
        outer, inner = self._nums, other._nums
        if sum(map(bool, outer)) > sum(map(bool, inner)):
            outer, inner = inner, outer
        space, bound, out = self._space, self.degree_bound, [0] * len(inner)
        codes, pos, sizes = space.codes, space.pos, space.sizes
        nonzero = list(itertools.compress(range(len(inner)), inner))
        inner_codes = list(map(codes.__getitem__, nonzero))
        inner = list(itertools.compress(inner, inner))
        for code, degree, a in zip(codes, space.degrees, outer):
            if a:
                room = bisect.bisect_left(nonzero, sizes[bound - degree])
                targets = map(pos.__getitem__, map(code.__add__, inner_codes[:room]))
                for target, product in zip(targets, map(a.__mul__, inner[:room])):
                    out[target] += product
        return TruncatedSeries._trusted(space, bound, self._den * other._den, out)

    def truncate(self, new_bound: int) -> "TruncatedSeries":
        """Lower the degree bound (raising it would fabricate information)."""
        if new_bound > self.degree_bound:
            raise ValueError(f"cannot raise bound {self.degree_bound} to {new_bound}")
        nums = self._nums[: self._space.sizes[new_bound]]
        return TruncatedSeries._trusted(self._space, new_bound, self._den, nums)

    # --- operators ---

    def _axis(self, var: int) -> int:
        if not 1 <= var <= self.nvars:
            raise ValueError(f"variable {var} out of range 1..{self.nvars}")
        return var - 1

    def deriv(self, var: int) -> "TruncatedSeries":
        """Partial derivative in the 1-based variable; bound drops by one.

        The coefficient at X^v is (v_i + 1) times the one at X^(v + e_i).
        """
        axis = self._axis(var)
        if self.degree_bound == 0:
            raise ValueError("cannot differentiate a degree-0 window")
        space, nums = self._space, self._nums
        sources = space.raised(self.degree_bound, space.steps[axis])
        lowered = [nums[source] * (v[axis] + 1) for source, v in zip(sources, space.vectors)]
        return TruncatedSeries._trusted(space, self.degree_bound - 1, self._den, lowered)

    def mul_var(self, var: int) -> "TruncatedSeries":
        """Multiply by the 1-based variable, truncating at the bound."""
        space, raised = self._space, [0] * len(self._nums)
        targets = space.raised(self.degree_bound, space.steps[self._axis(var)])
        for target, n in itertools.compress(zip(targets, self._nums), self._nums):
            raised[target] = n
        return TruncatedSeries._trusted(space, self.degree_bound, self._den, raised)


def _egf_window(space: _Space, bound: int, den: int, values: Iterable[int]) -> TruncatedSeries:
    """The series whose coefficient at X^n is values[n] / (den n!), by position.

    Every n! with |n| <= D divides D!, so the numerators stay ints over den * D!.
    """
    top = math.factorial(bound)
    nums = [value * (top // weight) for value, weight in zip(values, space.factorials)]
    return TruncatedSeries._trusted(space, bound, den * top, nums)


def _space_for(space: _Space | None, nvars: int, bound: int) -> _Space:
    """`space` if it holds nvars variables at the bound or above; a new space if None."""
    if space is not None and (space.nvars != nvars or len(space.sizes) <= bound):
        raise ValueError(f"need a space of {nvars} variables at bound >= {bound}")
    return _Space(nvars, bound) if space is None else space


def from_sequence(
    table: MultiSequenceTable, degree_bound: int, *, space: _Space | None = None
) -> TruncatedSeries:
    """EGF window of a sequence: coefficient of X^n is a(n)/n!.

    The table must hold every |n| <= D, so each extent is at least D + 1.
    Its numerators and denominator carry over as they are.  It lives in
    `space` if given (table.arity variables, bound >= D), else a new space.
    """
    space = _space_for(space, table.arity, degree_bound)
    vectors = space.vectors[: space.sizes[degree_bound]]
    return _egf_window(space, degree_bound, table.denominator, map(table.numerator, vectors))


def _first_axis(exponents: Exponents) -> int:
    """The first i with exponents[i] > 0 (the entries before it are 0)."""
    return exponents.index(next(filter(None, exponents)))


def F_from_sequence(
    table: MultiSequenceTable, degree_bound: int, *, space: tuple[_Space, _Space] | None = None
) -> TruncatedSeries:
    """Two-block window: coefficient of X^n Y^k is (delta^k a)(n) / (n! k!).

    Lives in 2r variables; its Y = 0 slice is f_a and its X = 0 slice is
    the EGF of nabla a.  The table must hold every |n| <= D, as in
    `from_sequence`.  `space` is its pair of graded spaces in r and 2r
    variables (bound >= D), else two new ones.  One difference table of
    int numerators over the table's denominator, filled in graded order of
    k with i the first axis where k_i > 0, costs one subtraction per
    coefficient:
    delta^k a(n) = delta^{k-e_i} a(n) - delta^{k-e_i} a(n+e_i), keyed by
    the code of (n, k) in 2r variables, code(n, 0) + code(0, k).
    """
    r, D = table.arity, degree_bound
    half, whole = space or (None, None)
    half, whole = _space_for(half, r, D), _space_for(whole, 2 * r, D)
    shift, vectors = whole.steps[r], half.vectors[: half.sizes[D]]
    codes = list(map(whole.code, vectors))  # code(n, 0) per r-vector n
    diffs = dict(zip(codes, map(table.numerator, vectors)))
    for k, code, degree in zip(vectors[1:], codes[1:], half.degrees[1:]):
        step = whole.steps[_first_axis(k)]
        # the codes of (0, k), (0, k - e_i) and (e_i, k - e_i)
        target, lower = shift * code, shift * (code - step)
        raised = lower + step
        for n in codes[: half.sizes[D - degree]]:
            diffs[target + n] = diffs[lower + n] - diffs[raised + n]
    values = map(diffs.__getitem__, whole.codes[: whole.sizes[D]])
    return _egf_window(whole, D, table.denominator, values)


def _exp_linear(coefficients: Sequence, degree_bound: int, space: _Space) -> TruncatedSeries:
    """Window of e^{c_1 X_1 + ... + c_m X_m}, the EGF window of n -> c^n, in `space`.

    With c_i = a_i / b_i, the power c^n has numerator prod_i a_i^n_i b_i^(D - n_i)
    over prod_i b_i^D; row i lists a_i^k b_i^(D - k) for k = 0..D.
    """
    D, cvec = degree_bound, list(map(_rational, coefficients))
    rows = [[c.numerator**k * c.denominator ** (D - k) for k in range(D + 1)] for c in cvec]
    powers = [math.prod(map(list.__getitem__, rows, n)) for n in space.vectors[: space.sizes[D]]]
    den = math.prod(c.denominator**D for c in cvec)
    return _egf_window(space, D, den, powers)


def subst_linear(
    f: TruncatedSeries, rows: Sequence[Sequence], *, space: _Space | None = None
) -> TruncatedSeries:
    """Substitute X_i -> sum_j rows[i][j] Z_j (linear forms, no constants).

    Linear substitution preserves total degree, so the bound carries over.
    The image lives in `space` if given, else in f's space when the
    variable count is kept, else in a new one.
    Row i is scaled to integers over q_i, the lcm of its denominators, as
    the form L_i.  With Q = prod_i q_i^D, the image of X^e is held as the
    int form Q prod_i (L_i / q_i)^e_i, built in graded order as
    image(e) = (image(e - e_i) / q_i) L_i, i the first axis with e_i > 0:
    one product by a linear form per vector, and every image is over d_f * Q.
    """
    rows = [common_denominator(map(_rational, row)) for row in rows]
    if len(rows) != f.nvars:
        raise ValueError(f"need {f.nvars} image rows, got {len(rows)}")
    scales, rows = zip(*rows)
    if not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("image rows must share a positive length")
    bound, source, width = f.degree_bound, f._space, len(rows[0])
    space = _space_for(source if space is None and width == f.nvars else space, width, bound)
    codes, pos = space.codes, space.pos
    forms = [[(step, c) for step, c in zip(space.steps, row) if c] for row in rows]
    top = math.prod(q**bound for q in scales)
    images: list[dict[int, int]] = [{0: top}]  # image(e) as {output position: int}
    out = [0] * space.sizes[bound]
    terms = zip(source.vectors, source.codes, f._nums)
    for index, (exponents, code, numerator) in enumerate(terms):
        if index:
            axis, image = _first_axis(exponents), {}
            q = scales[axis]
            for at, value in images[source.pos[code - source.steps[axis]]].items():
                value //= q
                for step, c in forms[axis]:
                    target = pos[codes[at] + step]
                    image[target] = image.get(target, 0) + value * c
            images.append(image)
        if numerator:
            for at, value in images[index].items():
                out[at] += numerator * value
    return TruncatedSeries._trusted(space, bound, f._den * top, out)


def negate_vars(f: TruncatedSeries) -> TruncatedSeries:
    """X_i -> -X_i, done directly on exponent parities."""
    nums = [-n if degree & 1 else n for n, degree in zip(f._nums, f._space.degrees)]
    return TruncatedSeries._trusted(f._space, f.degree_bound, f._den, nums)


def nabla_series(f: TruncatedSeries) -> TruncatedSeries:
    """Series inversion: f(-X_1,...,-X_m) * e^{X_1+...+X_m}.

    Coefficientwise this is the EGF image of the sequence-level inversion,
    and it is an involution.  The bound is kept: every product coefficient
    at degree <= D only consults f below degree D.  The exponential is the
    EGF window of the all-ones sequence in f's space, D!/v! over D!.
    """
    space, D = f._space, f.degree_bound
    return negate_vars(f) * _egf_window(space, D, 1, [1] * space.sizes[D])


def xi_apply(f: TruncatedSeries, x: Sequence) -> TruncatedSeries:
    """Apply sum_i X_i d_i - sum_i x_i X_i, keeping the bound.

    Computed coefficientwise: the operator never lowers degree, so the
    coefficient at X^e needs f only at X^e and below.  It agrees with the
    literal mul_var/deriv composite on every degree the composite retains.
    The x_i enter as ints over q, the lcm of their denominators.
    """
    q, xnums = common_denominator(map(_rational, x))
    if len(xnums) != f.nvars:
        raise ValueError(f"need {f.nvars} parameters, got {len(xnums)}")
    space, bound = f._space, f.degree_bound
    nums = [q * degree * n for degree, n in zip(space.degrees, f._nums)]
    for step, xi in zip(space.steps, xnums):
        if xi:
            for target, n in itertools.compress(zip(space.raised(bound, step), f._nums), f._nums):
                nums[target] -= xi * n
    return TruncatedSeries._trusted(space, bound, f._den * q, nums)


def _direct_series(spec: NestedSumSpec, bound: int, space: _Space, guard: int) -> TruncatedSeries:
    """The EGF window of c[spec] up to the bound, by chain enumeration.

    `space` is in spec.r variables at the bound or above.  `direct_window`
    gives each value as an int pair, and the window holds them over the lcm
    of the denominators.
    """
    values = direct_window(spec, space.vectors[: space.sizes[bound]], guard)
    den = math.lcm(*(d for _, d in values))
    return _egf_window(space, bound, den, [n * (den // d) for n, d in values])


# --- operator-identity battery ----------------------------------------------

EGF_SUITE_STATEMENT = (
    "operator algebra on EGF windows: two-block factorization, block swap under "
    "inversion, shift annihilation, inversion closed form and conjugations, "
    "commutator reduction, and the nested-sum duality and depth reduction"
)


def _series_comparisons(
    identity: str, label: str, lhs: TruncatedSeries, rhs: TruncatedSeries
) -> list[Row]:
    """One report row per exponent vector up to the shared bound.

    A row holds the two int numerators as stored over the series' own
    denominators, compared by cross-multiplication; no coefficient is
    reduced here.  The vectors and positions are read from lhs's space.
    """
    if lhs.nvars != rhs.nvars:
        raise ValueError("cannot compare series in different variable counts")
    ld, rd, space = lhs._den, rhs._den, lhs._space
    size = space.sizes[min(lhs.degree_bound, rhs.degree_bound)]
    return [
        comparison_row(identity, label, e, ln, ld, rn, rd)
        for e, ln, rn in zip(space.vectors[:size], lhs._nums, rhs._nums)
    ]


# The battery's slot counts r and nested-sum depths p.
SUITE_SLOT_COUNTS = (1, 2)
SUITE_DEPTHS = (1, 2, 3)


def verify_operator_suite(
    degree: int = 6,
    seed: int = 0,
    guard: int = DEFAULT_GUARD,
) -> VerificationReport:
    """Run the full operator-identity battery at one truncation degree.

    For each slot count r in SUITE_SLOT_COUNTS: one random sequence
    exercises the two-block and inversion identities; random parameter
    vectors exercise the xi algebra and the commutator reduction on every
    monomial below the bound; and for each depth p in SUITE_DEPTHS a random
    nested-sum spec exercises the generating-function duality and
    depth-reduction statements.

    The windows f of c[x|t] and of c[1-x|t] are read from one recurrence
    fill each; the reduced side of `depth-reduction-step` stays chain
    enumeration (`direct_window`).  That identity is the recurrence in EGF
    form, (|e| + t_1) f_e - sum_i x_{i1} f_{e-e_i} = reduced_e with
    |e| + t_1 != 0, so it fixes f from the enumerated values and a wrong fill
    value fails it (at depth 1, `telescoped-depth-reduction` checks f
    against `_exp_linear`).  Every series of a slot count lives in one of
    two graded spaces: f_a's in r variables, and one in 2r variables built
    beside it.  `from_sequence`, `F_from_sequence` and `subst_linear` take
    them through their `space` keyword, and an operator's result keeps its
    operand's.

    `guards.plan_series_product` is checked before any series is built;
    each fill and window checks its own plan.
    """
    check(plan_series_product(degree, max(SUITE_SLOT_COUNTS), guard))
    rng = Random(seed)
    report = VerificationReport("egf-suite", EGF_SUITE_STATEMENT)
    D = degree

    def compare(identity: str, label: str, lhs: TruncatedSeries, rhs: TruncatedSeries) -> None:
        report.comparisons += _series_comparisons(identity, label, lhs, rhs)

    for r in SUITE_SLOT_COUNTS:
        table = random_table(rng, (D + 1,) * r)  # exact for every |n| <= D read
        label = f"r={r} seed={seed} D={D}"
        f_a = from_sequence(table, D)
        half, whole = f_a._space, _Space(2 * r, D)
        F_a = F_from_sequence(table, D, space=(half, whole))
        nabla_a = binomial_transform(table)

        # F_a = f_a(X - Y) e^{sum Y}
        rows = [[(j == i) - (j == r + i) for j in range(2 * r)] for i in range(r)]
        shifted = subst_linear(f_a, rows, space=whole)
        factor = _exp_linear((0,) * r + (1,) * r, D, whole)
        compare("two-block-factorization", label, F_a, shifted * factor)

        # F_{nabla a}(X, Y) = F_a(Y, X)
        swap = [[int(j == (i + r) % (2 * r)) for j in range(2 * r)] for i in range(2 * r)]
        swapped = F_from_sequence(nabla_a, D, space=(half, whole))
        compare("inversion-swaps-blocks", label, swapped, subst_linear(F_a, swap))

        # (d_{X_i} + d_{Y_i} - 1) F_a = 0
        for i in range(1, r + 1):
            annihilated = F_a.deriv(i) + F_a.deriv(r + i) - F_a.truncate(D - 1)
            compare(
                "shift-annihilates-two-block",
                f"{label} i={i}",
                annihilated,
                TruncatedSeries._trusted(whole, D - 1, 1, [0] * len(annihilated._nums)),
            )

        # series inversion: closed form matches the sequence-level transform,
        # and is an involution
        inv = nabla_series(f_a)
        compare("inversion-closed-form", label, inv, from_sequence(nabla_a, D, space=half))
        compare("inversion-involution", label, nabla_series(inv), f_a)

        # conjugation of the basic operators by the inversion
        for i in range(1, r + 1):
            compare(
                "inversion-conjugates-mul",
                f"{label} i={i}",
                nabla_series(f_a.mul_var(i)),
                inv.mul_var(i).scale(-1),
            )
            compare(
                "inversion-conjugates-deriv",
                f"{label} i={i}",
                nabla_series(f_a.deriv(i)),
                inv.truncate(D - 1) - inv.deriv(i),
            )

        # conjugating xi complements its parameters
        xvec = tuple(random_rational(rng) for _ in range(r))
        ones_minus = tuple(1 - c for c in xvec)
        compare(
            "inversion-conjugates-xi",
            f"{label} x={','.join(format_rational(c) for c in xvec)}",
            nabla_series(xi_apply(f_a, xvec)),
            xi_apply(inv, ones_minus),
        )

        # commutator reduction on every monomial below the bound
        subset = tuple(sorted(rng.sample(range(1, r + 1), rng.randint(1, r))))
        gamma = sum(xvec[i - 1] for i in subset)
        t = random_shift(rng)

        def shift_op(g: TruncatedSeries) -> TruncatedSeries:
            out = g.truncate(g.degree_bound - 1).scale(-gamma)
            for i in subset:
                out = out + g.deriv(i)
            return out

        def xi_plus_t(g: TruncatedSeries) -> TruncatedSeries:
            return xi_apply(g, xvec) + g.scale(t)

        mono_label = (
            f"{label} S={subset} x={','.join(format_rational(c) for c in xvec)} "
            f"t={format_rational(t)}"
        )
        for index, exponents in enumerate(half.vectors[: half.sizes[D - 1]]):
            mono = TruncatedSeries._trusted(half, D, 1, [0] * half.sizes[D])
            mono._nums[index] = 1
            shifted_mono = shift_op(mono)
            commutator = shift_op(xi_plus_t(mono)) - xi_plus_t(shifted_mono)
            compare("commutator-reduction", f"{mono_label} e={exponents}", commutator, shifted_mono)

        # nested-sum generating functions: inversion duality and depth reduction
        for p in SUITE_DEPTHS:
            spec = NestedSumSpec(
                random_blocks(rng, r, p), tuple(random_shift(rng) for _ in range(p - 1))
            )
            slabel = f"{label} {spec.text()}"
            window = (D + 1,) * r
            f_spec, dual = (
                from_sequence(RecurrenceEvaluator(side, guard).table(window), D, space=half)
                for side in (spec, spec.one_minus())
            )
            compare("nested-sum-duality", slabel, nabla_series(f_spec), dual)
            telescoped = f_spec
            for j in range(p - 1):
                cols = tuple(block[j] for block in spec.xblocks)
                telescoped = xi_apply(telescoped, cols) + telescoped.scale(spec.tparams[j])
                if j == 0:
                    compare(
                        "depth-reduction-step",
                        slabel,
                        telescoped,
                        _direct_series(spec.reduce_depth(), D, half, guard),
                    )
            last_cols = tuple(block[p - 1] for block in spec.xblocks)
            last = _exp_linear(last_cols, D, half)
            compare("telescoped-depth-reduction", slabel, telescoped, last)
    return report
