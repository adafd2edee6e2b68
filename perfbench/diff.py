"""Compare two BENCH files (from suite.py) by workload and metric name.

    python3 perfbench/diff.py BENCH_before.json BENCH_after.json

Each (workload, metric) pair gets one verdict, from the medians and the
spread (interquartile range over median) of its runs on each side:

* unresolved - either side's spread exceeds the metric's bound, and the runs
  of the two sides overlap;
* worse      - the after median is worse than the before median by more than
  the bound;
* better     - the after run wins at least nine in ten runs paired by seed,
  and the medians differ by more than the before side's spread;
* unchanged  - otherwise.

End-to-end metrics use the bounds in BENCHMARK.json; per-layer metrics have
no bound, so any move in a count, and any timing difference wider than the
spread, shows.  Exits 1 when an end-to-end metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else float("inf"))


def classify(before: dict[int, float], after: dict[int, float], bound: float, lower: bool) -> str:
    """Verdict for one metric; `before`/`after` map seed -> value."""
    sign = 1 if lower else -1  # sign * (after - before) > 0 means worse
    b, a = list(before.values()), list(after.values())
    mb, ma = statistics.median(b), statistics.median(a)
    if mb:
        change = sign * (ma - mb) / abs(mb)
    else:
        change = 0.0 if ma == mb else sign * (1 if ma > mb else -1) * float("inf")
    separated = max(sign * x for x in a) < min(sign * x for x in b) or \
        min(sign * x for x in a) > max(sign * x for x in b)
    if max(spread(b), spread(a)) > bound and not separated:
        return "unresolved"
    if change > bound:
        return "worse"
    pairs = [(before[seed], after[seed]) for seed in before if seed in after]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and -change > spread(b):
        return "better"
    return "unchanged"


def values(bench: dict, trace: int) -> dict[tuple[str, str], dict[int, float]]:
    out: dict[tuple[str, str], dict[int, float]] = {}
    for run in bench["runs"]:
        if run["trace"] != trace:
            continue
        for name, metric in run["metrics"].items():
            out.setdefault((run["workload"], name), {})[run["seed"]] = metric["value"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    before = json.loads(Path(args.before).read_text(encoding="utf-8"))
    after = json.loads(Path(args.after).read_text(encoding="utf-8"))
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if before["seconds"] != after["seconds"]:
        print(f"warning: run lengths differ ({before['seconds']} s vs {after['seconds']} s)")

    worse = False
    print(f"{'workload':16} {'metric':42} {'before':>12} {'after':>12} {'change':>8}  verdict")
    sides = {trace: (values(before, trace), values(after, trace)) for trace in (0, 1)}
    names = sorted({workload for side in sides.values() for v in side for workload, _ in v})
    for workload in names:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            b_values, a_values = sides[trace]
            for metric in definition[kind]:
                key = (workload, metric["name"])
                if key not in b_values or key not in a_values:
                    print(f"{workload:16} {metric['name']:42} missing on one side")
                    continue
                verdict = classify(b_values[key], a_values[key], metric.get("bound", 0.0),
                                   metric["better"] == "lower")
                mb = statistics.median(b_values[key].values())
                ma = statistics.median(a_values[key].values())
                change = f"{(ma - mb) / abs(mb):+.1%}" if mb else ("0" if ma == mb else "new")
                print(f"{workload:16} {metric['name']:42} {mb:12.6g} {ma:12.6g} {change:>8}  "
                      f"{verdict}")
                worse |= kind == "end_to_end" and verdict == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
