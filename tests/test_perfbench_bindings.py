"""The benchmark's tracer still finds every library name it must wrap.

perfbench/selftest.py lists, per traced layer, the mhscalc namespaces that
bind the layer's function by name; a call through a namespace the tracer
misses is not counted.  A library change that drops one of those names
fails here at once instead of in the benchmark's own two-minute self-test.
The test only imports perfbench's modules; it changes nothing there.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_every_namespace_the_selftest_requires(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest
    import tracing

    tracer = tracing.Tracer()
    assert selftest.WRAPPED
    for layer, namespaces in selftest.WRAPPED.items():
        assert set(namespaces) <= set(tracer.namespaces.get(layer, ())), layer
