"""Truncated multivariate power series and the operator algebra on them.

Series live in Q[[X_1..X_m]] truncated at a total degree bound D, stored as
sparse exponent-to-coefficient maps in the ordinary monomial basis.  A
sequence a: N^r -> Q enters through its exponential generating function

    f_a = sum a(n) X^n / n!        (n! meaning n_1! ... n_r!)

so the stored coefficient of X^n is a(n)/n!.  The bound is part of the
value: derivatives lower it by one (the top coefficients of the derivative
would need unseen data), while multiplication by X_i, the Euler-type
operator xi, and the inversion nabla keep it (they never consult degrees
above what they produce).  Equality compares up to the smaller bound.

A series stores one positive int denominator and an int numerator per
nonzero coefficient, and every operator runs on that form (a sum over the
lcm of the two denominators, a product over their product, a rational
parameter over the lcm of its own); a Fraction is built only on reading.

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
spec), which checks the fills.  `exponent_vectors` returns a graded list
whose prefixes are the lists at lower bounds, so the suite builds one list
per variable count and reads every lower bound as a prefix; like the rest
of the package it keeps nothing between calls.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from random import Random
from typing import Iterator, Sequence

from .guards import DEFAULT_GUARD, check_product_pairs
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


def exponent_vectors(nvars: int, bound: int) -> list[Exponents]:
    """Exponent vectors with total degree <= bound, graded lexicographic.

    Built degree by degree, one variable at a time: the vectors of degree s
    in m variables are (h,) + v for h = 0..s and v of degree s - h in the
    last m - 1.  Those of degree <= b < bound are the first C(nvars + b,
    nvars) of the list (`_up_to`), so one list serves every lower bound.
    """
    if nvars < 1:
        raise ValueError(f"nvars must be positive, got {nvars}")
    # by_degree[s]: the vectors of degree s in the variables added so far
    by_degree = [[(s,)] for s in range(bound + 1)]
    for _ in range(nvars - 1):
        by_degree = [
            [(head,) + rest for head in range(s + 1) for rest in by_degree[s - head]]
            for s in range(bound + 1)
        ]
    return [e for vectors in by_degree for e in vectors]


def _up_to(vectors: list[Exponents], bound: int) -> list[Exponents]:
    """The vectors of degree <= bound, a prefix of a longer `exponent_vectors` list."""
    nvars = len(vectors[0])
    return vectors[:math.comb(nvars + bound, nvars)]


class TruncatedSeries:
    """Sparse series over Q, exact up to a total degree bound.

    The coefficient of X^e is _nums[e] / _den, with _den > 0 not necessarily
    in lowest terms: `coefficient` and `terms` reduce, and `==` cross-multiplies.
    """

    __slots__ = ("nvars", "degree_bound", "_den", "_nums")

    def __init__(self, nvars: int, degree_bound: int, coeffs: dict | None = None):
        if nvars < 1:
            raise ValueError(f"nvars must be positive, got {nvars}")
        if degree_bound < 0:
            raise ValueError(f"degree bound must be a natural, got {degree_bound}")
        self.nvars = nvars
        self.degree_bound = degree_bound
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
        self._den, nums = common_denominator(fractions.values())
        self._nums = {e: n for e, n in zip(fractions, nums) if n}

    @classmethod
    def _trusted(cls, nvars: int, degree_bound: int, den: int, nums: dict) -> "TruncatedSeries":
        """Wrap int numerators over den > 0 (tuple keys within the bound) unchecked."""
        series = object.__new__(cls)
        series.nvars = nvars
        series.degree_bound = degree_bound
        series._den = den
        series._nums = {e: n for e, n in nums.items() if n}
        return series

    # --- constructors ---

    @classmethod
    def zero(cls, nvars: int, degree_bound: int) -> "TruncatedSeries":
        return cls(nvars, degree_bound)

    @classmethod
    def monomial(
        cls, nvars: int, degree_bound: int, exponents: Sequence[int], coeff=1
    ) -> "TruncatedSeries":
        return cls(nvars, degree_bound, {tuple(exponents): coeff})

    # --- access ---

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return Fraction(self._nums.get(tuple(exponents), 0), self._den)

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """(exponents, coefficient) pairs in graded lexicographic order."""
        for exponents in sorted(self._nums, key=lambda e: (sum(e), e)):
            yield exponents, Fraction(self._nums[exponents], self._den)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        bound = min(self.degree_bound, other.degree_bound)
        mine = {e: n * other._den for e, n in self._nums.items() if sum(e) <= bound}
        theirs = {e: n * self._den for e, n in other._nums.items() if sum(e) <= bound}
        return mine == theirs

    __hash__ = None

    def __repr__(self) -> str:
        head = ", ".join(
            f"{e}: {format_rational(c)}" for e, c in itertools.islice(self.terms(), 4)
        )
        more = "..." if len(self._nums) > 4 else ""
        return (
            f"TruncatedSeries(nvars={self.nvars}, D={self.degree_bound}, "
            f"{{{head}{more}}})"
        )

    # --- ring operations (matching nvars and bound required) ---

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        if self.degree_bound != other.degree_bound:
            raise ValueError(
                f"degree bound mismatch: {self.degree_bound} vs {other.degree_bound}; "
                "truncate explicitly first"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Sum over the lcm of the two denominators."""
        self._check_compatible(other)
        den = math.lcm(self._den, other._den)
        mine, theirs = den // self._den, den // other._den
        nums = {e: n * mine for e, n in self._nums.items()}
        for exponents, n in other._nums.items():
            nums[exponents] = nums.get(exponents, 0) + n * theirs
        return TruncatedSeries._trusted(self.nvars, self.degree_bound, den, nums)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + other.scale(-1)

    def scale(self, factor) -> "TruncatedSeries":
        factor = Fraction(factor)
        nums = {e: n * factor.numerator for e, n in self._nums.items()}
        den = self._den * factor.denominator
        return TruncatedSeries._trusted(self.nvars, self.degree_bound, den, nums)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Truncated product: the numerators convolve as ints over d1 * d2."""
        self._check_compatible(other)
        products = _mul_numerators(self._nums, other._nums, self.degree_bound)
        return TruncatedSeries._trusted(
            self.nvars, self.degree_bound, self._den * other._den, products
        )

    def truncate(self, new_bound: int) -> "TruncatedSeries":
        """Lower the degree bound (raising it would fabricate information)."""
        if new_bound > self.degree_bound:
            raise ValueError(f"cannot raise bound {self.degree_bound} to {new_bound}")
        nums = {e: n for e, n in self._nums.items() if sum(e) <= new_bound}
        return TruncatedSeries._trusted(self.nvars, new_bound, self._den, nums)

    # --- operators ---

    def deriv(self, var: int) -> "TruncatedSeries":
        """Partial derivative in the 1-based variable; bound drops by one."""
        if not 1 <= var <= self.nvars:
            raise ValueError(f"variable {var} out of range 1..{self.nvars}")
        if self.degree_bound == 0:
            raise ValueError("cannot differentiate a degree-0 window")
        pos = var - 1
        nums: dict[Exponents, int] = {}
        for exponents, n in self._nums.items():
            if exponents[pos] == 0:
                continue
            lowered = exponents[:pos] + (exponents[pos] - 1,) + exponents[pos + 1:]
            nums[lowered] = n * exponents[pos]
        return TruncatedSeries._trusted(self.nvars, self.degree_bound - 1, self._den, nums)

    def mul_var(self, var: int) -> "TruncatedSeries":
        """Multiply by the 1-based variable, truncating at the bound."""
        if not 1 <= var <= self.nvars:
            raise ValueError(f"variable {var} out of range 1..{self.nvars}")
        pos = var - 1
        nums: dict[Exponents, int] = {}
        for exponents, n in self._nums.items():
            if sum(exponents) + 1 > self.degree_bound:
                continue
            raised = exponents[:pos] + (exponents[pos] + 1,) + exponents[pos + 1:]
            nums[raised] = n
        return TruncatedSeries._trusted(self.nvars, self.degree_bound, self._den, nums)


def _mul_numerators(
    left: dict[Exponents, int], right: dict[Exponents, int], bound: int
) -> dict[Exponents, int]:
    """Truncated convolution on ints; right's terms sorted by degree end each row early."""
    by_degree = sorted(((sum(e), e, n) for e, n in right.items()), key=lambda term: term[0])
    out: dict[Exponents, int] = {}
    for e1, n1 in left.items():
        room = bound - sum(e1)
        for degree, e2, n2 in by_degree:
            if degree > room:
                break
            key = tuple([a + b for a, b in zip(e1, e2)])
            out[key] = out.get(key, 0) + n1 * n2
    return out


def _egf_window(values: TruncatedSeries) -> TruncatedSeries:
    """The series whose coefficient at X^n is that of `values` over n!.

    Every n! with |n| <= D divides D!, so the numerators stay ints over den * D!.
    """
    top = math.factorial(values.degree_bound)
    return TruncatedSeries._trusted(values.nvars, values.degree_bound, values._den * top, {
        e: n * (top // math.prod(map(math.factorial, e))) for e, n in values._nums.items()
    })


def from_sequence(table: MultiSequenceTable, degree_bound: int) -> TruncatedSeries:
    """EGF window of a sequence: coefficient of X^n is a(n)/n!.

    The table must hold every |n| <= D, so each extent is at least D + 1.
    Its numerators and denominator carry over as they are.
    """
    r = table.arity
    nums = {n: table.numerator(n) for n in exponent_vectors(r, degree_bound)}
    return _egf_window(TruncatedSeries._trusted(r, degree_bound, table.denominator, nums))


def F_from_sequence(table: MultiSequenceTable, degree_bound: int) -> TruncatedSeries:
    """Two-block window: coefficient of X^n Y^k is (delta^k a)(n) / (n! k!).

    Lives in 2r variables; its Y = 0 slice is f_a and its X = 0 slice is
    the EGF of nabla a.  The table must hold every |n| <= D, as in
    `from_sequence`.  One difference table of int numerators over the
    table's denominator, filled in graded order of k with i the first axis
    where k_i > 0, costs one subtraction per coefficient:
    delta^k a(n) = delta^{k-e_i} a(n) - delta^{k-e_i} a(n+e_i).
    """
    r = table.arity
    vectors = exponent_vectors(r, degree_bound)
    diffs = {n + (0,) * r: table.numerator(n) for n in vectors}
    for k in vectors[1:]:
        i = next(axis for axis, ki in enumerate(k) if ki)
        lower = k[:i] + (k[i] - 1,) + k[i + 1:]
        for n in _up_to(vectors, degree_bound - sum(k)):
            raised = n[:i] + (n[i] + 1,) + n[i + 1:]
            diffs[n + k] = diffs[n + lower] - diffs[raised + lower]
    return _egf_window(TruncatedSeries._trusted(2 * r, degree_bound, table.denominator, diffs))


def exp_linear(coefficients: Sequence, degree_bound: int) -> TruncatedSeries:
    """Window of e^{c_1 X_1 + ... + c_m X_m}, the EGF window of n -> c^n.

    With c_i = a_i / b_i, the power c^n has numerator prod_i a_i^n_i b_i^(D - n_i)
    over prod_i b_i^D; row i lists a_i^k b_i^(D - k) for k = 0..D.
    """
    cvec = [Fraction(c) for c in coefficients]
    D = degree_bound
    vectors = exponent_vectors(len(cvec), D)
    rows = [[c.numerator**k * c.denominator ** (D - k) for k in range(D + 1)] for c in cvec]
    powers = {n: math.prod(map(list.__getitem__, rows, n)) for n in vectors}
    den = math.prod(c.denominator**D for c in cvec)
    return _egf_window(TruncatedSeries._trusted(len(cvec), D, den, powers))


def subst_linear(f: TruncatedSeries, rows: Sequence[Sequence]) -> TruncatedSeries:
    """Substitute X_i -> sum_j rows[i][j] Z_j (linear forms, no constants).

    Linear substitution preserves total degree, so the bound carries over.
    Row i is scaled to integers over q_i, the lcm of its denominators, and
    each term of f is scaled by prod_i q_i^(D - e_i), so every term's
    image shares the denominator d_f * prod_i q_i^D and the images add up
    as ints.
    """
    rows = [common_denominator(map(Fraction, row)) for row in rows]
    if len(rows) != f.nvars:
        raise ValueError(f"need {f.nvars} image rows, got {len(rows)}")
    scales, rows = zip(*rows)
    if not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("image rows must share a positive length")
    nvars_out = len(rows[0])
    bound = f.degree_bound
    units = [tuple(1 if j == pos else 0 for pos in range(nvars_out)) for j in range(nvars_out)]
    # form i over q_i; at bound 0 the forms' degree-1 terms are truncated away
    forms = [{unit: c for unit, c in zip(units, row) if c} if bound else {} for row in rows]
    # cache form powers as integer numerators; exponents are small (<= bound)
    one = {(0,) * nvars_out: 1}
    power_cache: list[list[dict[Exponents, int]]] = [[one] for _ in forms]

    def form_power(i: int, e: int) -> dict[Exponents, int]:
        cache = power_cache[i]
        while len(cache) <= e:
            cache.append(_mul_numerators(cache[-1], forms[i], bound))
        return cache[e]

    out: dict[Exponents, int] = {}
    for exponents, numerator in f._nums.items():
        image = one
        for i, e in enumerate(exponents):
            if e:
                image = _mul_numerators(image, form_power(i, e), bound)
            numerator *= scales[i] ** (bound - e)
        for key, value in image.items():
            out[key] = out.get(key, 0) + numerator * value
    den = f._den * math.prod(q**bound for q in scales)
    return TruncatedSeries._trusted(nvars_out, bound, den, out)


def negate_vars(f: TruncatedSeries) -> TruncatedSeries:
    """X_i -> -X_i, done directly on exponent parities."""
    nums = {e: (-n if sum(e) % 2 else n) for e, n in f._nums.items()}
    return TruncatedSeries._trusted(f.nvars, f.degree_bound, f._den, nums)


def nabla_series(f: TruncatedSeries) -> TruncatedSeries:
    """Series inversion: f(-X_1,...,-X_m) * e^{X_1+...+X_m}.

    Coefficientwise this is the EGF image of the sequence-level inversion,
    and it is an involution.  The bound is kept: every product coefficient
    at degree <= D only consults f below degree D.
    """
    return negate_vars(f) * exp_linear((1,) * f.nvars, f.degree_bound)


def xi_apply(f: TruncatedSeries, x: Sequence) -> TruncatedSeries:
    """Apply sum_i X_i d_i - sum_i x_i X_i, keeping the bound.

    Computed coefficientwise: the operator never lowers degree, so the
    coefficient at X^e needs f only at X^e and below.  It agrees with the
    literal mul_var/deriv composite on every degree the composite retains.
    The x_i enter as ints over q, the lcm of their denominators.
    """
    q, xnums = common_denominator(map(Fraction, x))
    if len(xnums) != f.nvars:
        raise ValueError(f"need {f.nvars} parameters, got {len(xnums)}")
    nums: dict[Exponents, int] = {}
    for exponents, n in f._nums.items():
        degree = sum(exponents)
        if degree:
            nums[exponents] = nums.get(exponents, 0) + degree * q * n
        if degree + 1 <= f.degree_bound:
            for i, xi in enumerate(xnums):
                if xi:
                    raised = exponents[:i] + (exponents[i] + 1,) + exponents[i + 1:]
                    nums[raised] = nums.get(raised, 0) - xi * n
    return TruncatedSeries._trusted(f.nvars, f.degree_bound, f._den * q, nums)


def _direct_series(
    spec: NestedSumSpec, degree_bound: int, vectors: list[Exponents], guard: int
) -> TruncatedSeries:
    """The EGF window of c[spec] up to the bound, by chain enumeration.

    `vectors` is `exponent_vectors(spec.r, degree_bound)`.  `direct_window`
    gives each value as an int pair, and the window holds them over the lcm
    of the denominators.
    """
    values = direct_window(spec, vectors, guard)
    den = math.lcm(*(d for _, d in values))
    nums = {e: n * (den // d) for e, (n, d) in zip(vectors, values)}
    return _egf_window(TruncatedSeries._trusted(spec.r, degree_bound, den, nums))


# --- operator-identity battery ----------------------------------------------

EGF_SUITE_STATEMENT = (
    "operator algebra on EGF windows: two-block factorization, block swap under "
    "inversion, shift annihilation, inversion closed form and conjugations, "
    "commutator reduction, and the nested-sum duality and depth reduction"
)


def _series_comparisons(
    identity: str,
    label: str,
    lhs: TruncatedSeries,
    rhs: TruncatedSeries,
    vectors: list[Exponents],
) -> list[Row]:
    """One report row per exponent vector up to the shared bound.

    `vectors` is `exponent_vectors` in the series' variables at that bound
    or above.  A row holds the two int numerators as stored (0 where
    absent) over the series' own denominators, compared by
    cross-multiplication; no coefficient is reduced here.
    """
    if lhs.nvars != rhs.nvars:
        raise ValueError("cannot compare series in different variable counts")
    lnums, ld, rnums, rd = lhs._nums, lhs._den, rhs._nums, rhs._den
    return [
        comparison_row(identity, label, e, lnums.get(e, 0), ld, rnums.get(e, 0), rd)
        for e in _up_to(vectors, min(lhs.degree_bound, rhs.degree_bound))
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
    against exp_linear).  Each variable count's `exponent_vectors` list is
    built once, at the degree, and read by every comparison in those
    variables.

    GuardExceeded is raised before any series is built when the term pairs
    of the largest product (`guards.suite_product_pairs`) exceed `guard`;
    each fill and each window also checks its own work against `guard`.
    """
    check_product_pairs(degree, max(SUITE_SLOT_COUNTS), guard)
    rng = Random(seed)
    report = VerificationReport("egf-suite", EGF_SUITE_STATEMENT)
    D = degree
    variable_counts = {k * r for r in SUITE_SLOT_COUNTS for k in (1, 2)}
    vectors = {m: exponent_vectors(m, D) for m in variable_counts}

    def compare(identity: str, label: str, lhs: TruncatedSeries, rhs: TruncatedSeries) -> None:
        report.comparisons += _series_comparisons(identity, label, lhs, rhs, vectors[lhs.nvars])

    for r in SUITE_SLOT_COUNTS:
        table = random_table(rng, (D + 1,) * r)  # exact for every |n| <= D read
        label = f"r={r} seed={seed} D={D}"
        f_a = from_sequence(table, D)
        F_a = F_from_sequence(table, D)
        nabla_a = binomial_transform(table)

        # F_a = f_a(X - Y) e^{sum Y}
        shifted = subst_linear(
            f_a,
            [
                tuple(
                    (1 if j == i else 0) if j < r else (-1 if j - r == i else 0)
                    for j in range(2 * r)
                )
                for i in range(r)
            ],
        )
        factor = exp_linear((0,) * r + (1,) * r, D)
        compare("two-block-factorization", label, F_a, shifted * factor)

        # F_{nabla a}(X, Y) = F_a(Y, X)
        swap = [
            tuple(1 if j == (i + r) % (2 * r) else 0 for j in range(2 * r))
            for i in range(2 * r)
        ]
        compare(
            "inversion-swaps-blocks", label, F_from_sequence(nabla_a, D), subst_linear(F_a, swap)
        )

        # (d_{X_i} + d_{Y_i} - 1) F_a = 0
        for i in range(1, r + 1):
            annihilated = (
                F_a.deriv(i) + F_a.deriv(r + i) - F_a.truncate(D - 1)
            )
            compare(
                "shift-annihilates-two-block",
                f"{label} i={i}",
                annihilated,
                TruncatedSeries.zero(2 * r, D - 1),
            )

        # series inversion: closed form matches the sequence-level transform,
        # and is an involution
        inv = nabla_series(f_a)
        compare("inversion-closed-form", label, inv, from_sequence(nabla_a, D))
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
        for exponents in _up_to(vectors[r], D - 1):
            mono = TruncatedSeries.monomial(r, D, exponents)
            commutator = shift_op(xi_plus_t(mono)) - xi_plus_t(shift_op(mono))
            compare(
                "commutator-reduction", f"{mono_label} e={exponents}", commutator, shift_op(mono)
            )

        # nested-sum generating functions: inversion duality and depth reduction
        for p in SUITE_DEPTHS:
            spec = NestedSumSpec(
                random_blocks(rng, r, p), tuple(random_shift(rng) for _ in range(p - 1))
            )
            slabel = f"{label} {spec.text()}"
            window = (D + 1,) * r
            f_spec = from_sequence(RecurrenceEvaluator(spec, guard).table(window), D)
            dual = RecurrenceEvaluator(spec.one_minus(), guard).table(window)
            compare("nested-sum-duality", slabel, nabla_series(f_spec), from_sequence(dual, D))
            telescoped = f_spec
            for j in range(p - 1):
                cols = tuple(block[j] for block in spec.xblocks)
                telescoped = xi_apply(telescoped, cols) + telescoped.scale(spec.tparams[j])
                if j == 0:
                    compare(
                        "depth-reduction-step",
                        slabel,
                        telescoped,
                        _direct_series(spec.reduce_depth(), D, vectors[r], guard),
                    )
            last_cols = tuple(block[p - 1] for block in spec.xblocks)
            compare("telescoped-depth-reduction", slabel, telescoped, exp_linear(last_cols, D))
    return report
