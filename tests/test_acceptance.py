"""Acceptance suite: every release gate in one module.

Each criterion prints one pass/fail line (run with `pytest -s` to watch
them).  All value checks are exact rational equality; the only tolerances
anywhere are the wall-clock budgets, asserted per criterion.
"""

import itertools
import math
import time
from fractions import Fraction as F
from random import Random

from mhscalc.cli import run_bench
from mhscalc.egf import verify_operator_suite
from mhscalc.mhs import (
    MultiIndex,
    dual_index,
    embed_type1,
    embed_type2,
    mhs_value,
    multi_indices_of_weight,
    verify_mhs_duality,
)
from mhscalc.multiseq import MultiSequenceTable, binomial_transform, iterated_delta
from mhscalc.nestedsums import (
    NestedSumSpec,
    RecurrenceEvaluator,
    c_direct,
    random_rational,
    random_shift_configuration,
    random_spec,
    verify_difference_formula,
    verify_duality,
    verify_shift_identity,
)
from mhscalc.report import render_csv
from pointwise import delta, kt_value, tabulate, two_index_value, zero_extension


def failures(report):
    """The report's failing rows, in report order."""
    return [row for row in report.comparisons if not row[-1]]


def _run(number, label, budget_seconds, body):
    start = time.perf_counter()
    try:
        detail = body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number}: FAIL after {elapsed:.2f}s - {label}")
        raise
    elapsed = time.perf_counter() - start
    print(
        f"criterion {number}: PASS in {elapsed:.2f}s (budget {budget_seconds}s) - "
        f"{label} [{detail}]"
    )
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its budget: {elapsed:.2f}s >= {budget_seconds}s"
    )


def test_criterion_1_mhs_duality():
    def body():
        known = {
            (1, 2, 3): (2, 2, 1, 1),
            (2, 2, 2): (1, 2, 2, 1),
            (4, 1, 1): (1, 1, 1, 3),
        }
        for parts, dual_parts in known.items():
            assert dual_index(MultiIndex(parts)).parts == dual_parts
        mus = [mu for weight in range(1, 7) for mu in multi_indices_of_weight(weight)]
        rows = [row for mu in mus for row in verify_mhs_duality(mu, max_n=8).comparisons]
        assert all(row[-1] for row in rows), [row for row in rows if not row[-1]][:3]
        assert len(rows) == 63 * 9  # compositions of weight <= 6, n <= 8
        return f"{len(rows)} exact identities"

    _run(1, "binomial-transform duality of harmonic sums, weight <= 6, n <= 8", 10, body)


def test_criterion_2_dual_involution_and_complement():
    def body():
        mus = [
            mu
            for weight in range(1, 9)
            for mu in multi_indices_of_weight(weight)
        ]
        for mu in mus:
            dual = dual_index(mu)
            assert dual.weight == mu.weight
            assert dual_index(dual) == mu
            assert tuple(1 - v for v in embed_type1(mu)) == embed_type2(dual)
        return f"{len(mus)} multi-indices"

    _run(2, "dual involution, weight preservation, embedding complement", 1, body)


def test_criterion_3_generalized_duality():
    def body():
        rng = Random(20260810)
        specs = [random_spec(rng, 3, 3) for _ in range(200)]
        shifts = [t for spec in specs for t in spec.tparams]
        assert any(t < 0 and t.denominator > 1 for t in shifts), (
            "parameter grid must include negative non-integer shifts"
        )
        checked = 0
        for spec in specs:
            report = verify_duality(spec, (4,) * spec.r)
            assert report.ok, (spec.text(), failures(report)[:3])
            checked += len(report.comparisons)
        return f"200 specs, {checked} comparisons"

    _run(3, "inversion duality of parametric nested sums on random grids", 60, body)


def test_criterion_4_difference_formula():
    def body():
        rng = Random(41)
        checked = 0
        for _ in range(50):
            spec = random_spec(rng, 2, 2)
            report = verify_difference_formula(
                spec, (3,) * spec.r, (3,) * spec.r
            )
            assert report.ok, (spec.text(), failures(report)[:3])
            checked += len(report.comparisons)
        return f"50 specs, {checked} comparisons"

    _run(4, "iterated differences equal doubled-parameter sums", 60, body)


def test_criterion_5_recurrence_oracle():
    def body():
        rng = Random(52)
        for _ in range(200):
            spec = random_spec(rng, 3, 3)
            evaluator = RecurrenceEvaluator(spec)
            corner = (4,) * spec.r
            assert evaluator.value(corner) == c_direct(spec, corner), spec.text()
            for _ in range(2):
                point = tuple(rng.randint(0, 4) for _ in range(spec.r))
                assert evaluator.value(point) == c_direct(spec, point), spec.text()
        kt_checked = 0
        for p in range(1, 5):
            for trial in range(6):
                x = tuple(random_rational(rng) for _ in range(p))
                spec = NestedSumSpec((x,), (F(1),) * (p - 1))
                for n in range(7):
                    assert kt_value(x, n) == c_direct(spec, (n,))
                    kt_checked += 1
        pq_checked = 0
        for p in range(1, 4):
            for trial in range(4):
                x = tuple(random_rational(rng) for _ in range(p))
                y = tuple(random_rational(rng) for _ in range(p))
                spec = NestedSumSpec((x, y), (F(1),) * (p - 1))
                for n in range(5):
                    for k in range(5):
                        assert two_index_value(x, y, n, k) == c_direct(spec, (n, k))
                        pq_checked += 1
        return f"200 recurrence specs, {kt_checked} single-slot, {pq_checked} two-slot reductions"

    _run(5, "depth-reduction recurrence against enumeration, plus both classical reductions", 60, body)


def test_criterion_6_shift_identity():
    def body():
        rng = Random(63)
        checked = 0
        for _ in range(20):
            spec, subset, constant = random_shift_configuration(rng, 3, 3)
            report = verify_shift_identity(spec, subset, constant, (4,) * spec.r)
            assert report.ok, (spec.text(), failures(report)[:3])
            checked += len(report.comparisons)
        # the doubled configuration behind the difference formula: each slot
        # paired with its complement slot sums to (1, ..., 1)
        for _ in range(5):
            base = random_spec(rng, 2, 2)
            double = base.doubled()
            for i in range(1, base.r + 1):
                report = verify_shift_identity(
                    double, (i, base.r + i), 1, (4,) * double.r
                )
                assert report.ok, (double.text(), failures(report)[:3])
                checked += len(report.comparisons)
        return f"{checked} comparisons"

    _run(6, "shift identity for parameter subsets with constant sum", 30, body)


def test_criterion_7_sequence_calculus():
    def body():
        rng = Random(74)
        tables = 0
        for _ in range(100):
            arity = rng.randint(1, 3)
            extents = tuple(rng.randint(2, 5) for _ in range(arity))
            values = tuple(
                random_rational(rng) for _ in range(math.prod(extents))
            )
            table = MultiSequenceTable(extents, values)
            # involution on the table's own box
            assert binomial_transform(binomial_transform(table)) == table
            # index symmetry of differenced inversions of the zero extension,
            # (delta^k nabla a)(n) = (delta^n a)(k), for n and k below
            # h_i = (e_i + 2) // 2 >= 2, so n + k stays in the box of extents + 1
            a = zero_extension(table)
            padded = tabulate(a, tuple(e + 1 for e in extents))
            half = tuple((e + 2) // 2 for e in extents)
            inverted = iterated_delta(binomial_transform(padded), half)
            plain = iterated_delta(padded, half)
            for n in itertools.product(*(range(h) for h in half)):
                for k in itertools.product(*(range(h) for h in half)):
                    assert inverted[n + k] == plain[k + n]
            # box iterated difference of the zero extension equals literal
            # composition of single differences
            kvec = tuple(rng.randint(0, 4) for _ in range(arity))
            nvec = tuple(rng.randint(0, 2) for _ in range(arity))
            composed = a
            for axis in range(1, arity + 1):
                for _ in range(kvec[axis - 1]):
                    composed = delta(composed, axis)
            reach = tuple(n + k + 1 for n, k in zip(nvec, kvec))
            orders = tuple(k + 1 for k in kvec)
            assert composed(nvec) == iterated_delta(tabulate(a, reach), orders)[nvec + kvec]
            tables += 1
        return f"{tables} random tables"

    _run(7, "inversion involution, index symmetry, iterated-difference oracle", 30, body)


def test_criterion_8_egf_operator_suite():
    def body():
        report = verify_operator_suite(degree=6, seed=8)
        assert report.ok, failures(report)[:3]
        identities = sorted({row[0] for row in report.comparisons})
        assert identities == [
            "commutator-reduction",
            "depth-reduction-step",
            "inversion-closed-form",
            "inversion-conjugates-deriv",
            "inversion-conjugates-mul",
            "inversion-conjugates-xi",
            "inversion-involution",
            "inversion-swaps-blocks",
            "nested-sum-duality",
            "shift-annihilates-two-block",
            "telescoped-depth-reduction",
            "two-block-factorization",
        ]
        return f"{len(report.comparisons)} coefficient comparisons over {len(identities)} identities"

    _run(8, "series operator algebra at truncation degree 6", 60, body)


def test_criterion_9_recurrence_speedup():
    def body():
        rng = Random(95)
        spec = NestedSumSpec(
            ((random_rational(rng), random_rational(rng), random_rational(rng)),),
            (F(1), F(1)),
        )
        rows = run_bench(spec, [10, 20, 30, 40], repeats=3)
        csv_text = render_csv(rows)
        assert csv_text.startswith("r,p,n,")
        final = rows[-1]
        assert final["n"] == 40
        assert final["equal"] is True
        assert final["direct_summands"] == 861  # C(42, 2) chains per evaluation
        speedup = float(final["speedup"])
        assert speedup >= 10.0, f"speedup {speedup} below the 10x requirement"
        return f"speedup {speedup:.1f}x at n=40, {final['recursive_memo_entries']} memo entries"

    _run(9, "memoized recurrence at least 10x faster than enumeration at n=40", 60, body)
