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

Operators:

    deriv, mul_var                 partial derivative, multiplication by X_i
    xi_apply(f, x)                 sum_i X_i d_i f - sum_i x_i X_i f
    nabla_series(f)                f(-X_1,..,-X_m) * e^{X_1+..+X_m}
    subst_linear(f, rows)          X_i -> linear form given by rows[i]

`verify_operator_suite` checks the whole operator-level identity battery
(the generating-function forms of the duality and difference machinery) on
seeded random sequences and parameter specs, coefficient by coefficient.
Its nested-sum windows come from recurrence fills; the reduced side of
depth reduction stays chain enumeration, which checks the fills.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from random import Random
from typing import Iterator, Sequence

from .errors import GuardExceeded
from .kernel import format_rational
from .multiseq import MultiSequenceTable, binomial_transform
from .multiseq import iterated_delta  # noqa: F401  (perfbench's tracer wraps it here)
from .nestedsums import (
    DEFAULT_SUMMAND_GUARD,
    NestedSumSpec,
    RecurrenceEvaluator,
    c_direct,
    random_rational,
    random_shift,
)
from .report import Comparison, VerificationReport, sweep_report

Exponents = tuple[int, ...]


def exponent_vectors(nvars: int, bound: int) -> Iterator[Exponents]:
    """Exponent vectors with total degree <= bound, graded lexicographic."""
    def compositions(total: int, length: int) -> Iterator[Exponents]:
        if length == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, length - 1):
                yield (head,) + rest

    for total in range(bound + 1):
        yield from compositions(total, nvars)


class TruncatedSeries:
    """Sparse series over Q, exact up to a total degree bound."""

    __slots__ = ("nvars", "degree_bound", "_coeffs")

    def __init__(self, nvars: int, degree_bound: int, coeffs: dict | None = None):
        if nvars < 1:
            raise ValueError(f"nvars must be positive, got {nvars}")
        if degree_bound < 0:
            raise ValueError(f"degree bound must be a natural, got {degree_bound}")
        self.nvars = nvars
        self.degree_bound = degree_bound
        normalized: dict[Exponents, Fraction] = {}
        for exponents, coeff in (coeffs or {}).items():
            exponents = tuple(exponents)
            if len(exponents) != nvars or any(e < 0 for e in exponents):
                raise ValueError(f"bad exponent vector {exponents} for {nvars} variables")
            if sum(exponents) > degree_bound:
                raise ValueError(
                    f"exponent vector {exponents} exceeds degree bound {degree_bound}"
                )
            coeff = Fraction(coeff)
            if coeff:
                normalized[exponents] = coeff
        self._coeffs = normalized

    @classmethod
    def _trusted(cls, nvars: int, degree_bound: int, coeffs: dict) -> "TruncatedSeries":
        """Wrap a valid dict (tuple keys within the bound, Fraction values) unchecked."""
        series = object.__new__(cls)
        series.nvars = nvars
        series.degree_bound = degree_bound
        series._coeffs = {e: c for e, c in coeffs.items() if c}
        return series

    # --- constructors ---

    @classmethod
    def zero(cls, nvars: int, degree_bound: int) -> "TruncatedSeries":
        return cls(nvars, degree_bound)

    @classmethod
    def one(cls, nvars: int, degree_bound: int) -> "TruncatedSeries":
        return cls(nvars, degree_bound, {(0,) * nvars: Fraction(1)})

    @classmethod
    def monomial(
        cls, nvars: int, degree_bound: int, exponents: Sequence[int], coeff=1
    ) -> "TruncatedSeries":
        return cls(nvars, degree_bound, {tuple(exponents): Fraction(coeff)})

    # --- access ---

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self._coeffs.get(tuple(exponents), Fraction(0))

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """(exponents, coefficient) pairs in graded lexicographic order."""
        for exponents in sorted(self._coeffs, key=lambda e: (sum(e), e)):
            yield exponents, self._coeffs[exponents]

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        bound = min(self.degree_bound, other.degree_bound)
        mine = {e: c for e, c in self._coeffs.items() if sum(e) <= bound}
        theirs = {e: c for e, c in other._coeffs.items() if sum(e) <= bound}
        return mine == theirs

    __hash__ = None

    def __repr__(self) -> str:
        head = ", ".join(
            f"{e}: {format_rational(c)}" for e, c in itertools.islice(self.terms(), 4)
        )
        more = "..." if len(self._coeffs) > 4 else ""
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
        self._check_compatible(other)
        coeffs = dict(self._coeffs)
        for exponents, coeff in other._coeffs.items():
            coeffs[exponents] = coeffs.get(exponents, Fraction(0)) + coeff
        return TruncatedSeries._trusted(self.nvars, self.degree_bound, coeffs)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + other.scale(-1)

    def scale(self, factor) -> "TruncatedSeries":
        factor = Fraction(factor)
        return TruncatedSeries._trusted(
            self.nvars,
            self.degree_bound,
            {e: c * factor for e, c in self._coeffs.items()},
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        bound = self.degree_bound
        coeffs: dict[Exponents, Fraction] = {}
        for e1, c1 in self._coeffs.items():
            d1 = sum(e1)
            for e2, c2 in other._coeffs.items():
                if d1 + sum(e2) > bound:
                    continue
                key = tuple(a + b for a, b in zip(e1, e2))
                coeffs[key] = coeffs.get(key, Fraction(0)) + c1 * c2
        return TruncatedSeries._trusted(self.nvars, bound, coeffs)

    def truncate(self, new_bound: int) -> "TruncatedSeries":
        """Lower the degree bound (raising it would fabricate information)."""
        if new_bound > self.degree_bound:
            raise ValueError(
                f"cannot raise bound {self.degree_bound} to {new_bound}"
            )
        return TruncatedSeries._trusted(
            self.nvars,
            new_bound,
            {e: c for e, c in self._coeffs.items() if sum(e) <= new_bound},
        )

    # --- operators ---

    def deriv(self, var: int) -> "TruncatedSeries":
        """Partial derivative in the 1-based variable; bound drops by one."""
        if not 1 <= var <= self.nvars:
            raise ValueError(f"variable {var} out of range 1..{self.nvars}")
        if self.degree_bound == 0:
            raise ValueError("cannot differentiate a degree-0 window")
        pos = var - 1
        coeffs: dict[Exponents, Fraction] = {}
        for exponents, coeff in self._coeffs.items():
            if exponents[pos] == 0:
                continue
            lowered = exponents[:pos] + (exponents[pos] - 1,) + exponents[pos + 1:]
            coeffs[lowered] = coeff * exponents[pos]
        return TruncatedSeries._trusted(self.nvars, self.degree_bound - 1, coeffs)

    def mul_var(self, var: int) -> "TruncatedSeries":
        """Multiply by the 1-based variable, truncating at the bound."""
        if not 1 <= var <= self.nvars:
            raise ValueError(f"variable {var} out of range 1..{self.nvars}")
        pos = var - 1
        coeffs: dict[Exponents, Fraction] = {}
        for exponents, coeff in self._coeffs.items():
            if sum(exponents) + 1 > self.degree_bound:
                continue
            raised = exponents[:pos] + (exponents[pos] + 1,) + exponents[pos + 1:]
            coeffs[raised] = coeff
        return TruncatedSeries._trusted(self.nvars, self.degree_bound, coeffs)

    def to_json(self) -> str:
        return json.dumps(
            {
                "nvars": self.nvars,
                "degree_bound": self.degree_bound,
                "terms": [
                    {"exponents": list(e), "coeff": format_rational(c)}
                    for e, c in self.terms()
                ],
            }
        )


def _egf_window(nvars: int, degree_bound: int, values: dict) -> TruncatedSeries:
    """The series with coefficient values[n] / n! at every exponent vector n."""
    return TruncatedSeries._trusted(nvars, degree_bound, {
        e: value / math.prod(map(math.factorial, e)) for e, value in values.items() if value
    })


def from_sequence(table: MultiSequenceTable, degree_bound: int) -> TruncatedSeries:
    """EGF window of a sequence: coefficient of X^n is a(n)/n!.

    The table must hold every |n| <= D, so each extent is at least D + 1.
    """
    values = {e: table[e] for e in exponent_vectors(table.arity, degree_bound)}
    return _egf_window(table.arity, degree_bound, values)


def F_from_sequence(table: MultiSequenceTable, degree_bound: int) -> TruncatedSeries:
    """Two-block window: coefficient of X^n Y^k is (delta^k a)(n) / (n! k!).

    Lives in 2r variables; its Y = 0 slice is f_a and its X = 0 slice is
    the EGF of nabla a.  The table must hold every |n| <= D, as in
    `from_sequence`.  One difference table, filled in graded order of k
    with i the first axis where k_i > 0, costs one subtraction per coefficient:
    delta^k a(n) = delta^{k-e_i} a(n) - delta^{k-e_i} a(n+e_i).
    """
    r = table.arity
    diffs = {n + (0,) * r: table[n] for n in exponent_vectors(r, degree_bound)}
    for k in itertools.islice(exponent_vectors(r, degree_bound), 1, None):
        i = next(axis for axis, ki in enumerate(k) if ki)
        lower = k[:i] + (k[i] - 1,) + k[i + 1:]
        for n in exponent_vectors(r, degree_bound - sum(k)):
            raised = n[:i] + (n[i] + 1,) + n[i + 1:]
            diffs[n + k] = diffs[n + lower] - diffs[raised + lower]
    return _egf_window(2 * r, degree_bound, diffs)


def exp_linear(coefficients: Sequence, degree_bound: int) -> TruncatedSeries:
    """Window of e^{c_1 X_1 + ... + c_m X_m}, one Fraction per coefficient."""
    cvec = [Fraction(c) for c in coefficients]
    coeffs = {}
    for exponents in exponent_vectors(len(cvec), degree_bound):
        numerator, denominator = 1, 1
        for c, e in zip(cvec, exponents):
            numerator *= c.numerator**e
            denominator *= c.denominator**e * math.factorial(e)
        if numerator:
            coeffs[exponents] = Fraction(numerator, denominator)
    return TruncatedSeries._trusted(len(cvec), degree_bound, coeffs)


def subst_linear(f: TruncatedSeries, rows: Sequence[Sequence]) -> TruncatedSeries:
    """Substitute X_i -> sum_j rows[i][j] Z_j (linear forms, no constants).

    Linear substitution preserves total degree, so the bound carries over.
    """
    rows = [tuple(Fraction(c) for c in row) for row in rows]
    if len(rows) != f.nvars:
        raise ValueError(f"need {f.nvars} image rows, got {len(rows)}")
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("image rows must share a length")
    nvars_out = len(rows[0])
    bound = f.degree_bound
    # at bound 0 the forms' degree-1 terms are truncated away
    forms = [
        TruncatedSeries._trusted(nvars_out, bound, {
            tuple(1 if j == pos else 0 for pos in range(nvars_out)): coeff
            for j, coeff in enumerate(row)
        } if bound else {})
        for row in rows
    ]
    # cache form powers; exponents are small (<= bound)
    power_cache: list[list[TruncatedSeries]] = [[TruncatedSeries.one(nvars_out, bound)] for _ in forms]
    def form_power(i: int, e: int) -> TruncatedSeries:
        cache = power_cache[i]
        while len(cache) <= e:
            cache.append(cache[-1] * forms[i])
        return cache[e]

    one = TruncatedSeries.one(nvars_out, bound)
    out: dict[Exponents, Fraction] = {}
    for exponents, coeff in f._coeffs.items():
        term = one
        for i, e in enumerate(exponents):
            if e:
                term = term * form_power(i, e)
        for key, value in term._coeffs.items():
            out[key] = out.get(key, 0) + coeff * value
    return TruncatedSeries._trusted(nvars_out, bound, out)


def negate_vars(f: TruncatedSeries) -> TruncatedSeries:
    """X_i -> -X_i, done directly on exponent parities."""
    return TruncatedSeries._trusted(
        f.nvars,
        f.degree_bound,
        {e: (-c if sum(e) % 2 else c) for e, c in f._coeffs.items()},
    )


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
    """
    xvec = [Fraction(c) for c in x]
    if len(xvec) != f.nvars:
        raise ValueError(f"need {f.nvars} parameters, got {len(xvec)}")
    coeffs: dict[Exponents, Fraction] = {}
    for exponents, coeff in f._coeffs.items():
        degree = sum(exponents)
        if degree:
            coeffs[exponents] = coeffs.get(exponents, Fraction(0)) + degree * coeff
        if degree + 1 <= f.degree_bound:
            for i, xi in enumerate(xvec):
                if xi:
                    raised = exponents[:i] + (exponents[i] + 1,) + exponents[i + 1:]
                    coeffs[raised] = coeffs.get(raised, Fraction(0)) - xi * coeff
    return TruncatedSeries._trusted(f.nvars, f.degree_bound, coeffs)


# --- operator-identity battery ----------------------------------------------

EGF_SUITE_STATEMENT = (
    "operator algebra on EGF windows: two-block factorization, block swap under "
    "inversion, shift annihilation, inversion closed form and conjugations, "
    "commutator reduction, and the nested-sum duality and depth reduction"
)


def _series_comparisons(
    identity: str, label: str, lhs: TruncatedSeries, rhs: TruncatedSeries
) -> list[Comparison]:
    """One comparison per exponent vector up to the shared bound."""
    if lhs.nvars != rhs.nvars:
        raise ValueError("cannot compare series in different variable counts")
    points = list(exponent_vectors(lhs.nvars, min(lhs.degree_bound, rhs.degree_bound)))
    return sweep_report(
        identity,
        EGF_SUITE_STATEMENT,
        label,
        points,
        (lhs.coefficient(exponents) for exponents in points),
        (rhs.coefficient(exponents) for exponents in points),
    ).comparisons


def random_table(rng: Random, arity: int, extent: int, bound: int = 9) -> MultiSequenceTable:
    """Small random rationals over the box [0, extent)^arity."""
    values = tuple(random_rational(rng, bound) for _ in range(extent**arity))
    return MultiSequenceTable(arity, (extent,) * arity, values)



def suite_product_pairs(degree: int, max_slots: int) -> int:
    """Term pairs of the operator suite's largest series product.

    The two-block factorization multiplies two series in 2r variables,
    each with up to C(D + 2r, 2r) terms, and the product visits every pair.
    """
    return math.comb(degree + 2 * max_slots, 2 * max_slots) ** 2


def verify_operator_suite(
    degree: int = 6,
    seed: int = 0,
    slot_counts: Sequence[int] = (1, 2),
    depths: Sequence[int] = (1, 2, 3),
    guard: int = DEFAULT_SUMMAND_GUARD,
) -> VerificationReport:
    """Run the full operator-identity battery at one truncation degree.

    For each slot count r: one random sequence exercises the two-block and
    inversion identities; random parameter vectors exercise the xi algebra
    and the commutator reduction on every monomial below the bound; and for
    each depth p a random nested-sum spec exercises the generating-function
    duality and depth-reduction statements.

    The windows f of c[x|t] and of c[1-x|t] are read from one recurrence
    fill each; the reduced side of `depth-reduction-step` stays chain
    enumeration (`c_direct`).  That identity is the recurrence in EGF form,
    (|e| + t_1) f_e - sum_i x_{i1} f_{e-e_i} = reduced_e with |e| + t_1 != 0,
    so it fixes f from the enumerated values and a wrong fill value fails it
    (at depth 1, `telescoped-depth-reduction` checks f against exp_linear).

    GuardExceeded is raised before any series is built when the term pairs
    of the largest product (`suite_product_pairs`) exceed `guard`; each
    fill also checks its own cell count against `guard`.
    """
    pairs = suite_product_pairs(degree, max(slot_counts))
    if pairs > guard:
        raise GuardExceeded("series product term pairs", pairs, guard)
    rng = Random(seed)
    report = VerificationReport("egf-suite", EGF_SUITE_STATEMENT, [])
    D = degree

    for r in slot_counts:
        table = random_table(rng, r, D + 1)  # exact for every |n| <= D read
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
        report.extend(
            _series_comparisons("two-block-factorization", label, F_a, shifted * factor)
        )

        # F_{nabla a}(X, Y) = F_a(Y, X)
        swap = [
            tuple(1 if j == (i + r) % (2 * r) else 0 for j in range(2 * r))
            for i in range(2 * r)
        ]
        report.extend(
            _series_comparisons(
                "inversion-swaps-blocks",
                label,
                F_from_sequence(nabla_a, D),
                subst_linear(F_a, swap),
            )
        )

        # (d_{X_i} + d_{Y_i} - 1) F_a = 0
        for i in range(1, r + 1):
            annihilated = (
                F_a.deriv(i) + F_a.deriv(r + i) - F_a.truncate(D - 1)
            )
            report.extend(
                _series_comparisons(
                    "shift-annihilates-two-block",
                    f"{label} i={i}",
                    annihilated,
                    TruncatedSeries.zero(2 * r, D - 1),
                )
            )

        # series inversion: closed form matches the sequence-level transform,
        # and is an involution
        inv = nabla_series(f_a)
        report.extend(
            _series_comparisons(
                "inversion-closed-form", label, inv, from_sequence(nabla_a, D)
            )
        )
        report.extend(
            _series_comparisons("inversion-involution", label, nabla_series(inv), f_a)
        )

        # conjugation of the basic operators by the inversion
        for i in range(1, r + 1):
            report.extend(
                _series_comparisons(
                    "inversion-conjugates-mul",
                    f"{label} i={i}",
                    nabla_series(f_a.mul_var(i)),
                    nabla_series(f_a).mul_var(i).scale(-1),
                )
            )
            report.extend(
                _series_comparisons(
                    "inversion-conjugates-deriv",
                    f"{label} i={i}",
                    nabla_series(f_a.deriv(i)),
                    nabla_series(f_a).truncate(D - 1) - nabla_series(f_a).deriv(i),
                )
            )

        # conjugating xi complements its parameters
        xvec = tuple(random_rational(rng) for _ in range(r))
        ones_minus = tuple(1 - c for c in xvec)
        report.extend(
            _series_comparisons(
                "inversion-conjugates-xi",
                f"{label} x={','.join(format_rational(c) for c in xvec)}",
                nabla_series(xi_apply(f_a, xvec)),
                xi_apply(nabla_series(f_a), ones_minus),
            )
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
        for exponents in exponent_vectors(r, D - 1):
            mono = TruncatedSeries.monomial(r, D, exponents)
            commutator = shift_op(xi_plus_t(mono)) - xi_plus_t(shift_op(mono))
            report.extend(
                _series_comparisons(
                    "commutator-reduction",
                    f"{mono_label} e={exponents}",
                    commutator,
                    shift_op(mono),
                )
            )

        # nested-sum generating functions: inversion duality and depth reduction
        for p in depths:
            spec = NestedSumSpec(
                tuple(tuple(random_rational(rng) for _ in range(p)) for _ in range(r)),
                tuple(random_shift(rng) for _ in range(p - 1)),
            )
            slabel = f"{label} {spec.text()}"
            window = (D + 1,) * r
            f_spec = from_sequence(RecurrenceEvaluator(spec, guard).table(window), D)
            dual = RecurrenceEvaluator(spec.one_minus(), guard).table(window)
            report.extend(
                _series_comparisons(
                    "nested-sum-duality", slabel, nabla_series(f_spec), from_sequence(dual, D)
                )
            )
            if p >= 2:
                reduced_spec = spec.reduce_depth()
                reduced = _egf_window(r, D, {
                    e: c_direct(reduced_spec, e, guard) for e in exponent_vectors(r, D)
                })
                first_cols = tuple(block[0] for block in spec.xblocks)
                stepped = xi_apply(f_spec, first_cols) + f_spec.scale(spec.tparams[0])
                report.extend(
                    _series_comparisons("depth-reduction-step", slabel, stepped, reduced)
                )
            telescoped = f_spec
            for j in range(p - 1):
                cols = tuple(block[j] for block in spec.xblocks)
                telescoped = xi_apply(telescoped, cols) + telescoped.scale(spec.tparams[j])
            last_cols = tuple(block[p - 1] for block in spec.xblocks)
            report.extend(
                _series_comparisons(
                    "telescoped-depth-reduction",
                    slabel,
                    telescoped,
                    exp_linear(last_cols, D),
                )
            )
    return report
