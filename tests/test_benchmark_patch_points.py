"""The benchmark's tracer finds every entry point it patches.

``perfbench.layers.install`` wraps each traced method as its class's
own ``__dict__`` holds it, so a traced method that moves to a base class
makes the traced benchmark run raise ``KeyError``.
"""

from fractions import Fraction

from perfbench import layers
from perfbench.tracing import Tracer

from repro.core.fast import FastImpactAnalyzer
from repro.grid.cases import get_case


def test_install_and_restore_every_patch_point():
    original = FastImpactAnalyzer.__dict__["analyze"]
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert FastImpactAnalyzer.__dict__["analyze"] is not original
        analyzer = FastImpactAnalyzer(get_case("5bus-study1"))
        analyzer.solve_at(Fraction(1))
        analyzer.analyze()
    finally:
        tracer.restore()
    assert FastImpactAnalyzer.__dict__["analyze"] is original
    # solve_at dispatches through the patched analyze as well.
    fast = [span for span in tracer.spans if span.name == "core.fast"]
    assert len(fast) == 2
    assert all(span.counters["candidates"] >= 1 for span in fast)
