"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload duality-sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports mhscalc from `src/`
there and exits 2 without a result when that is missing.

Load: closed loop, one client.  Ops (CLI invocations through
`mhscalc.cli.main(argv)`, stdout and stderr captured in memory) run back to
back.  The workload's round of ops runs once and then repeats until
`--seconds` have passed, stopping at the first op boundary after that, so
a run takes `--seconds` whatever the round's length.  Process-wide
caches (the `gen_binomial` cache among them) start cold and stay warm across
the run's ops.

Every op is checked exactly (see workloads.py); a failed check or a nonzero
exit counts in `failed` and the run goes on.  Checks that call the library
run after the timed loop.

Times in the end-to-end metrics are reference-scaled: each op's time is
multiplied by REFERENCE_S over the time `reference_seconds` took right
before and right after the op, and each set-up sample likewise by the
reference timed in the same interpreter.  On a shared x86_64 VM with 2
vCPUs the processor's speed changed by up to 1.9x within a minute, and the
program and the reference slow down together, so the scaled times report
the program's cost at one nominal speed.  The unscaled figures are in the
record under `raw`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs every op twice,
untraced and traced in alternating order, and reports the per-layer metrics
from tracing.py: work counts over the first round, self times in seconds per
round, and the tracing overhead against the untraced runs of the same ops.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--record FILE` writes the full record
(tail percentile and sample count, failure fraction, work counts, Python
version, nproc), and `--spans FILE` the traced spans, one JSON line each.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# setup_s is the median of this many fresh interpreters importing mhscalc
# and generating the round.
SETUP_SAMPLES = 9
# The tail latency is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
# Nominal time of the reference computation; scaled times are the times
# measured on a host where `reference_seconds` returns this.
REFERENCE_S = 1e-3


def reference_seconds() -> float:
    """Time a fixed computation that uses no mhscalc code: sum 1/k^2 over
    k < 300 in Fractions, the arithmetic mhscalc spends its time on.  The
    collector is off meanwhile, so the reference never pays for collecting
    the program's objects."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 300):
        total += Fraction(1, k * k)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


# Prints the set-up time and then the reference time, measured after the
# import so that the reference's own import of fractions is not taken out
# of the set-up.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import mhscalc.cli, workloads
workloads.generate({workload!r}, {seed!r})
elapsed = time.perf_counter() - start
from run import reference_seconds
print(elapsed, sorted(reference_seconds() for _ in range(3))[1])
"""


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time of fresh interpreters: (reference-scaled, raw)."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), workload=workload, seed=seed)
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=120,
        )
        elapsed, reference = map(float, done.stdout.split())
        scaled.append(elapsed * REFERENCE_S / reference)
        raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


def execute(cli, argv) -> tuple[int | None, str, str, float]:
    """Run one op; returns (exit code, stdout, stderr, seconds).

    The exit code is None when the op raised; stderr then names the error.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            code, error = None, exc
        elapsed = time.perf_counter() - start
    if error is not None:
        err.write(f"{type(error).__name__}: {error}\n")
    return code, out.getvalue(), err.getvalue(), elapsed


class Tally:
    """Latencies and check outcomes of a run, per op of the round."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies: list[list[float]] = [[] for _ in ops]  # untraced, per op
        self.scaled: list[list[float]] = [[] for _ in ops]  # the same, reference-scaled
        self.references: list[float] = []
        self.traced_latencies: list[float] = []
        self.attempts = [0] * len(ops)
        self.failures = [0] * len(ops)
        self.digests: dict[int, str] = {}
        self.values: dict[int, str] = {}
        self.errors: list[str] = []

    def add(self, index: int, code, out: str, err: str, elapsed: float, traced: bool,
            reference: float | None = None) -> None:
        """Record one run of an op; `reference` is the reference time next to
        it, taken in untraced runs only."""
        op = self.ops[index]
        if traced:
            self.traced_latencies.append(elapsed)
        else:
            self.latencies[index].append(elapsed)
        if reference is not None:
            self.scaled[index].append(elapsed * REFERENCE_S / reference)
        self.attempts[index] += 1
        error = workloads.check_output(op, code, out)
        digest = hashlib.sha256(out.encode()).hexdigest()
        if error is None and self.digests.setdefault(index, digest) != digest:
            error = "output differs from this op's first run"
        if error is None and op.argv[0] == "c":
            self.values.setdefault(index, out)
        if error is not None:
            self.fail(index, f"{error} {err.strip()[:200]}".strip(), 1)

    def fail(self, index: int, error: str, count: int) -> None:
        self.failures[index] += count
        if len(self.errors) < 20:
            self.errors.append(f"{' '.join(self.ops[index].argv)}: {error}")

    def check_values(self) -> None:
        """Independent-route checks of the `c` values; outside the timed loop."""
        for index, text in sorted(self.values.items()):
            try:
                error = workloads.check_recurrence_value(self.ops[index], text)
            except Exception as exc:  # a check that cannot run fails the op
                error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                self.fail(index, error, self.attempts[index] - self.failures[index])

    @property
    def attempted(self) -> int:
        return sum(self.attempts)

    @property
    def failed(self) -> int:
        return sum(self.failures)


def run_loop(cli, ops, seconds: float, tracer=None) -> tuple[Tally, float]:
    """Run the round's ops in turn until `seconds` have passed.

    Every op runs at least once; after that the run stops at the first op
    boundary past `seconds`, so the last round may be partial.  Returns the
    tally and the number of rounds run, a fraction when the last is partial.
    Untraced ops run between two timings of the reference and are scaled by
    their mean.
    """
    tally = Tally(ops)
    done = 0
    start = time.perf_counter()
    before = reference_seconds() if tracer is None else None
    while done < len(ops) or time.perf_counter() - start < seconds:
        index = done % len(ops)
        argv = ops[index].argv
        if tracer is None:
            result = execute(cli, argv)
            after = reference_seconds()
            tally.add(index, *result, traced=False, reference=(before + after) / 2)
            tally.references.append(after)
            before = after
        else:
            # Alternate which copy runs first, so neither always meets the
            # caches the other warmed.
            for traced in (False, True) if done % 2 == 0 else (True, False):
                if traced:
                    with tracer.installed(count=done < len(ops)):
                        result = execute(cli, argv)
                else:
                    result = execute(cli, argv)
                tally.add(index, *result, traced=traced)
        done += 1
    return tally, done / len(ops)


def round_timings(runs: list[list[float]]) -> tuple[dict, int]:
    """Throughput and percentiles of the round, each op at its median latency.

    An op's latency is the median of its runs, so a burst of host noise that
    slows one run of an op does not count, and the percentiles rank the
    round's distinct ops and do not shift with the number of rounds a run
    completes.  Throughput is the round's op count over the sum of those
    latencies.  Returns the metrics and the index of the tail latency.
    """
    latencies = sorted(statistics.median(per_op) for per_op in runs)
    n = len(latencies)
    # With too few ops for a percentile with TAIL_BEYOND beyond it, the
    # maximum stands in.
    tail_index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {
        "ops_per_s": (n / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (latencies[tail_index] * 1e3, "ms"),
    }, tail_index


def end_to_end_metrics(tally: Tally, setup: tuple[float, float]) -> tuple[dict, dict]:
    """The round's timings and the set-up time, reference-scaled, and peak memory."""
    metrics, tail_index = round_timings(tally.scaled)
    metrics["setup_s"] = (setup[0], "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw, _ = round_timings(tally.latencies)
    raw["setup_s"] = (setup[1], "s")
    n = len(tally.ops)
    details = {
        "raw": {name: value for name, (value, _) in raw.items()},
        "reference_ms": statistics.median(tally.references) * 1e3,
        "latency_tail": {"percentile": 100 * (tail_index + 1) / n, "samples": n},
        "work": {
            "ops_per_round": len(tally.ops),
            "comparisons_per_round": sum(op.comparisons for op in tally.ops),
        },
    }
    return metrics, details


def per_layer_metrics(tally: Tally, tracer, rounds: float) -> tuple[dict, dict]:
    self_s = tracer.self_times()
    work = tracer.work()
    metrics = {}

    def layer(name, calls=False, work_name=None):
        if calls:
            metrics[f"{name}.calls"] = (work.get(name, (0, 0))[0], "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / rounds, "s")
        if work_name:
            metrics[f"{name}.{work_name}"] = (work.get(name, (0, 0))[1], "count")

    layer("nestedsums.c_direct", calls=True, work_name="summands")
    layer("multiseq.iterated_delta", calls=True, work_name="terms")
    calls, terms = work.get("multiseq.iterated_delta", (0, 0))
    metrics["multiseq.iterated_delta.terms_per_point"] = (terms / calls if calls else 0.0, "terms/point")
    gen_calls = tracer.leaf_calls["kernel.gen_binomial"]
    metrics["kernel.gen_binomial.calls"] = (gen_calls, "count")
    layer("kernel.gen_binomial")
    metrics["kernel.gen_binomial.distinct_frac"] = (
        len(tracer.gen_binomial_args) / gen_calls if gen_calls else 0.0, "frac")
    metrics["kernel.multinomial.calls"] = (tracer.leaf_calls["kernel.multinomial"], "count")
    layer("nestedsums.recurrence", work_name="memo_entries")
    layer("mhs.mhs_value", calls=True, work_name="chains")
    layer("egf.mul", calls=True)
    for name in ("subst_linear", "from_sequence", "F_from_sequence", "nabla_series", "xi_apply"):
        layer(f"egf.{name}")
    layer("report.render")
    metrics["report.comparisons"] = (work.get("report.render", (0, 0))[1], "count")
    layer("cli.main")
    untraced = sum(sum(per_op) for per_op in tally.latencies)
    metrics["trace.overhead_frac"] = (sum(tally.traced_latencies) / untraced - 1, "frac")
    return metrics, {"wrapped": tracer.namespaces}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="write the full result record (JSON) here")
    parser.add_argument("--spans", help="with --trace 1, write the spans (JSON lines) here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mhscalc" / "__init__.py").is_file():
        print(f"error: no mhscalc sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    from mhscalc import cli

    ops = workloads.generate(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    tally, rounds = run_loop(cli, ops, args.seconds, tracer)
    tally.check_values()
    if tracer is None:
        metrics, details = end_to_end_metrics(tally, setup)
    else:
        metrics, details = per_layer_metrics(tally, tracer, rounds)
        if args.spans:
            tracer.write_spans(args.spans)
    details["rounds"] = rounds

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            **result,
            "failed_frac": tally.failed / tally.attempted,
            **details,
            "errors": tally.errors,
        }
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    for error in tally.errors:
        print(f"failed: {error}")
    print(f"{args.workload} seed={args.seed} rounds={rounds:.2f} ops={tally.attempted} "
          f"failed={tally.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
