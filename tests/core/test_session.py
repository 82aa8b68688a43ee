"""Both analyzers are an AnalysisSession that is its own search."""

from fractions import Fraction

import pytest

from repro.core import FastImpactAnalyzer, ImpactAnalyzer, session
from repro.core.session import AnalysisSession
from repro.grid.cases import get_case


@pytest.mark.parametrize("cls", [ImpactAnalyzer, FastImpactAnalyzer])
def test_analyzer_is_the_session(cls):
    analyzer = cls(get_case("5bus-study1"))
    assert isinstance(analyzer, AnalysisSession)
    assert not hasattr(analyzer, "session")
    assert not hasattr(analyzer, "strategy")
    assert not hasattr(session, "SearchStrategy")
    assert analyzer.threshold_for(Fraction(1)) == \
        analyzer.base_cost * Fraction(101, 100)


def test_fast_analyze_is_its_own_method():
    # The benchmark's tracer wraps FastImpactAnalyzer.__dict__["analyze"]
    # to count fast candidates (perfbench/layers.py); inherited from the
    # session it would raise KeyError there.
    assert "analyze" in FastImpactAnalyzer.__dict__


def test_max_impact_is_defined_once():
    assert "max_impact" in AnalysisSession.__dict__
    for cls in (ImpactAnalyzer, FastImpactAnalyzer):
        assert "max_impact" not in cls.__dict__
