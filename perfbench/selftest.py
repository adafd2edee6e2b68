"""Self-test of the benchmark: inputs, work counts and metric names.

    python3 perfbench/selftest.py

Runs each workload's round twice, traced, in fresh processes (about two
minutes in all), so it is kept apart from the program's test suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = range(20)

# Namespaces that bind a traced function by name and must all be wrapped.
WRAPPED = {
    "nestedsums.c_direct": ["mhscalc.nestedsums.c_direct", "mhscalc.cli.c_direct"],
    "multiseq.iterated_delta": ["mhscalc.multiseq.iterated_delta",
                                "mhscalc.nestedsums.iterated_delta",
                                "mhscalc.egf.iterated_delta"],
    "kernel.gen_binomial": ["mhscalc.kernel.gen_binomial", "mhscalc.nestedsums.gen_binomial"],
    "kernel.multinomial": ["mhscalc.kernel.multinomial", "mhscalc.nestedsums.multinomial"],
}


def argv_bytes(workload: str, seed: int) -> bytes:
    return json.dumps([op.argv for op in workloads.generate(workload, seed)]).encode()


def run_record(workload: str, seed: int, trace: int) -> tuple[dict, list[dict]]:
    """One round (--seconds 0) of a workload in a fresh process: record, spans."""
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as scratch:
        record, spans = Path(scratch) / "record.json", Path(scratch) / "spans.jsonl"
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
             "--record", str(record), "--spans", str(spans)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        lines = spans.read_text(encoding="utf-8").splitlines() if trace else []
        return json.loads(record.read_text(encoding="utf-8")), [json.loads(line) for line in lines]


class InputTest(unittest.TestCase):
    def test_same_seed_gives_identical_argv(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(argv_bytes(workload, 7), argv_bytes(workload, 7))

    def test_other_seed_gives_other_inputs(self):
        for workload in workloads.WORKLOADS:
            self.assertNotEqual(argv_bytes(workload, 7), argv_bytes(workload, 8))

    def test_shifts_avoid_nonpositive_integers(self):
        for workload in ("duality-sweep", "recurrence-fill"):
            for seed in SEEDS:
                shifts = [Fraction(t) for op in workloads.generate(workload, seed)
                          for t in workloads.flag(op, "t").split(",") if t]
                self.assertFalse([t for t in shifts if t.denominator == 1 and t <= 0])
                self.assertTrue([t for t in shifts if t < 0], "no negative non-integer shift")

    def test_rationals_are_small(self):
        for workload in ("duality-sweep", "recurrence-fill"):
            for op in workloads.generate(workload, 3):
                values = [Fraction(v) for flag in ("x", "t")
                          for v in workloads.flag(op, flag).replace(";", ",").split(",") if v]
                for value in values:
                    self.assertLessEqual(abs(value.numerator), workloads.RATIONAL_BOUND)
                    self.assertLessEqual(value.denominator, workloads.RATIONAL_BOUND)

    def test_mhs_round_covers_every_multi_index_up_to_weight_7(self):
        mus = {workloads.flag(op, "mu") for op in workloads.generate("mhs-duality", 3)}
        self.assertEqual(len(mus), 2**7 - 1)


class RunTest(unittest.TestCase):
    """Two traced runs with one seed must give the same work counts."""

    COUNT_UNITS = {"count", "terms/point", "frac"}

    def test_work_counts_repeat_exactly(self):
        per_layer = {m["name"]: m["unit"] for m in DEFINITION["per_layer"]}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                (first, spans), (second, _) = (run_record(workload, 5, trace=1) for _ in range(2))
                self.assertEqual(first["failed"], 0, first["errors"])
                self.check_spans(spans, ops=len(workloads.generate(workload, 5)))
                self.assertEqual(
                    {name: m["unit"] for name, m in first["metrics"].items()}, per_layer)
                counts = {name for name, unit in per_layer.items()
                          if unit in self.COUNT_UNITS and name != "trace.overhead_frac"}
                self.assertEqual({n: first["metrics"][n] for n in counts},
                                 {n: second["metrics"][n] for n in counts})
                self.assertEqual(first["metrics"]["report.comparisons"]["value"],
                                 sum(op.comparisons
                                     for op in workloads.generate(workload, 5)))
                for layer, namespaces in WRAPPED.items():
                    self.assertLessEqual(set(namespaces), set(first["wrapped"][layer]))

    def check_spans(self, spans, ops):
        """Every traced op has one root `cli.main` span; parents come first."""
        roots = [span for span in spans if span["parent"] is None]
        self.assertEqual([span["name"] for span in roots], ["cli.main"] * ops)
        self.assertEqual(sorted(span["op"] for span in roots), list(range(ops)))
        for index, span in enumerate(spans):
            self.assertLessEqual(span["start"], span["end"])
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                self.assertLess(span["parent"], index)
                self.assertEqual(parent["op"], span["op"])
                self.assertLessEqual(parent["start"], span["start"])

    def test_end_to_end_metrics_match_definition(self):
        record, _ = run_record("egf-suite", 5, trace=0)
        self.assertEqual(record["failed"], 0, record["errors"])
        self.assertEqual({name: m["unit"] for name, m in record["metrics"].items()},
                         {m["name"]: m["unit"] for m in DEFINITION["end_to_end"]})


if __name__ == "__main__":
    unittest.main()
