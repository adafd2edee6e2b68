"""The benchmark's tracer and output checks still hold for the library.

perfbench/selftest.py lists, per traced layer, the mhscalc namespaces that
bind the layer's function by name; a call through a namespace the tracer
misses is not counted.  perfbench/tracing.py reads each rendered report's
comparison count off the report, and perfbench/workloads.py checks every
op's output.  A library change that drops one of those names, that renames
what the tracer reads, or that makes an op fail the benchmark's own checks,
fails here at once instead of in a benchmark run.  The tests only import
perfbench's modules; they change nothing there.
"""

import hashlib
from pathlib import Path

from mhscalc.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_every_namespace_the_selftest_requires(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest
    import tracing

    tracer = tracing.Tracer()
    assert selftest.WRAPPED
    for layer, namespaces in selftest.WRAPPED.items():
        assert set(namespaces) <= set(tracer.namespaces.get(layer, ())), layer


def test_first_op_of_each_workload_passes_the_benchmark_checks(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for workload in workloads.WORKLOADS:
        op = workloads.generate(workload, 1)[0]
        code = main(list(op.argv))
        out = capsys.readouterr().out
        assert workloads.check_output(op, code, out) is None, workload
        if op.argv[0] == "c":
            assert workloads.check_recurrence_value(op, out) is None, workload


def test_tracer_counts_each_verify_report(capsys, monkeypatch):
    """The tracer reads a report's comparison count off the report it renders."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    for workload in workloads.WORKLOADS:
        ops = [op for op in workloads.generate(workload, 1) if op.argv[0] == "verify"]
        if not ops:
            continue
        tracer = tracing.Tracer()
        with tracer.installed(count=True):
            assert main(list(ops[0].argv)) == 0, workload
        capsys.readouterr()
        assert tracer.work()["report.render"] == (1, ops[0].comparisons), workload


# sha256 over (argv, exit code, stdout, stderr) of every op of the seed-1
# round, in round order.
WORKLOAD_DIGESTS = {
    "duality-sweep": "959e6829a2bb01b10873f98e06e91d7d4d94d2dc339744e33265f719b1688f43",
    "recurrence-fill": "8a7f8e0b2556245d4ab10803c25de05eb720016b475b6b34da8910d3bf04a5c3",
    "egf-suite": "cdb6b05d95bdf602a673738d50da94bcc89bd35fb10000421ff92948c6aae0b8",
    "mhs-duality": "ba91ed0d985cedc63ff410cfae18b410fcf24007286c061f382259c4ecf3d3de",
}


def test_every_op_of_each_workload_keeps_its_output_bytes(capsys, monkeypatch):
    """A library change keeps the bytes of every benchmark op's output.

    The digests were taken from the library as it was when they were
    pinned.  A benchmark change that alters a workload's round (its ops,
    their flags or their order) re-pins that workload's digest.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert set(WORKLOAD_DIGESTS) == set(workloads.WORKLOADS)
    for workload, expected in WORKLOAD_DIGESTS.items():
        digest = hashlib.sha256()
        for op in workloads.generate(workload, 1):
            code = main(list(op.argv))
            out, err = capsys.readouterr()
            digest.update(repr((op.argv, code, out, err)).encode())
        assert digest.hexdigest() == expected, workload


# (calls, work) per traced layer and the leaf kernel calls of the first op of
# each workload's seed-1 round.  Work moved off a traced entry point (a
# corner evaluated past `c_direct`, a fill run past `value`) changes a count
# here, where a benchmark row would only read 0 for that layer.
# `direct_window` builds its column factors with `kernel.gen_binomial_pair`,
# which the tracer does not wrap, so `kernel.gen_binomial` reads 0 on every
# workload.
LAYER_WORK = {
    "duality-sweep": (
        {"nestedsums.c_direct": (1, 225), "nestedsums.recurrence": (2, 150),
         "report.render": (1, 25)},
        {"kernel.gen_binomial": 0, "kernel.multinomial": 30},
    ),
    "recurrence-fill": (
        {"nestedsums.recurrence": (1, 10985)},
        {"kernel.gen_binomial": 0, "kernel.multinomial": 0},
    ),
    "egf-suite": (
        {"egf.from_sequence": (16, 0), "egf.F_from_sequence": (4, 0),
         "egf.subst_linear": (4, 0), "egf.mul": (20, 0), "egf.nabla_series": (18, 0),
         "egf.xi_apply": (64, 0), "nestedsums.recurrence": (12, 672),
         "report.render": (1, 1722)},
        {"kernel.gen_binomial": 0, "kernel.multinomial": 105},
    ),
    "mhs-duality": (
        {"mhs.mhs_value": (1, 1), "report.render": (1, 13)},
        {"kernel.gen_binomial": 0, "kernel.multinomial": 0},
    ),
}


def test_tracer_counts_each_layers_work_on_the_first_op(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    assert set(LAYER_WORK) == set(workloads.WORKLOADS)
    for workload, (work, leaves) in LAYER_WORK.items():
        op = workloads.generate(workload, 1)[0]
        tracer = tracing.Tracer()
        with tracer.installed(count=True):
            main(list(op.argv))
        capsys.readouterr()
        traced = {name: counts for name, counts in tracer.work().items() if name != "cli.main"}
        assert traced == work, workload
        assert tracer.leaf_calls == leaves, workload
