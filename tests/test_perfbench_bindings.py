"""The benchmark's tracer and output checks still hold for the library.

perfbench/selftest.py lists, per traced layer, the mhscalc namespaces that
bind the layer's function by name; a call through a namespace the tracer
misses is not counted.  perfbench/workloads.py checks every op's output.
A library change that drops one of those names, or that makes an op fail
the benchmark's own checks, fails here at once instead of in a benchmark
run.  The tests only import perfbench's modules; they change nothing there.
"""

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
