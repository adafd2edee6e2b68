"""Run every workload, each in a fresh Python process, and write a BENCH file.

    python3 perfbench/suite.py --out BENCH_after.json --seeds 1,2,3,4,5

For each workload and seed this runs run.py twice for BENCHMARK.json's
`run_seconds`, with `--trace 0` (the end-to-end metrics) and `--trace 1`
(the per-layer metrics), and collects the full records.  The BENCH file
also holds the Python version, nproc and the benchmark definition
(BENCHMARK.json: workloads and why each was chosen, metrics, units and
bounds).  Compare two BENCH files with diff.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_one(workload: str, seed: int, seconds: int, trace: int, scratch: Path) -> dict:
    record = scratch / f"{workload}-{seed}-{trace}.json"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--record", str(record)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    return json.loads(record.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="BENCH file to write")
    parser.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    seconds = definition["run_seconds"]

    runs = []
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as scratch:
        for workload in workloads.WORKLOADS:
            for seed in seeds:
                for trace in (0, 1):
                    record = run_one(workload, seed, seconds, trace, Path(scratch))
                    runs.append(record)
                    print(f"{workload} seed={seed} trace={trace} "
                          f"attempted={record['attempted']} failed={record['failed']}",
                          flush=True)
    bench = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seconds": seconds,
        "seeds": seeds,
        "benchmark": definition,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
