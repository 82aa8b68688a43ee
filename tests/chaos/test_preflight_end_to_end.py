"""End-to-end consistency of preflight rejections.

An islanding line-exclusion attack on the five-bus case (lines 2-3 and
3-4 taken out of the true topology, stranding bus 3) must surface as
``degenerate_case`` identically everywhere: the ``analyze`` CLI exit
code, the sweep engine's outcome, the on-disk result cache, and the
``--strict`` gate.
"""

import pytest

from repro.cli import EXIT_DEGENERATE_CASE, EXIT_INVALID_INPUT, main
from repro.grid.caseio import parse_case, write_case
from repro.grid.cases import get_case
from repro.runner import ScenarioSpec, SweepConfig, SweepEngine
from repro.runner.trace import DEGENERATE_CASE


def islanded_text() -> str:
    """Five-bus case text with bus 3 islanded (lines 3 and 6 opened)."""
    text = write_case(get_case("5bus-study1"))
    text = text.replace("3 2 3 5.05 0.05 1 1 1 1 1",
                        "3 2 3 5.05 0.05 1 0 1 1 1")
    return text.replace("6 3 4 5.85 0.2 1 1 0 0 1",
                        "6 3 4 5.85 0.2 1 0 0 0 1")


class TestAnalyzeCli:
    def test_islanded_case_exits_degenerate(self, tmp_path, capsys):
        path = tmp_path / "islanded.case"
        path.write_text(islanded_text())
        code = main(["analyze", "--input", str(path)])
        assert code == EXIT_DEGENERATE_CASE
        out = capsys.readouterr().out
        assert "degenerate case" in out
        assert "topology.disconnected" in out
        assert "topology.isolated_bus" in out

    def test_malformed_case_exits_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.case"
        path.write_text(islanded_text().replace("5.05", "1/0"))
        code = main(["analyze", "--input", str(path)])
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert "parse.malformed" in err
        assert "topology[2].admittance" in err


class TestSweepCacheAndStrict:
    def _spec(self):
        return ScenarioSpec.build("islanded-5bus", analyzer="fast",
                                  case_text=islanded_text())

    def test_rejection_is_cached_and_served(self, tmp_path):
        config = SweepConfig(workers=1,
                             cache_dir=str(tmp_path / "cache"),
                             use_cache=True)
        first = SweepEngine(config).run([self._spec()])
        outcome = first.outcomes[0]
        assert outcome.status == DEGENERATE_CASE
        assert not outcome.cache_hit
        assert outcome.error and "topology.disconnected" in outcome.error
        report = outcome.diagnostics_report()
        assert report is not None
        assert report.fatal_status() == DEGENERATE_CASE
        assert "topology.disconnected" in report.codes()

        # a second sweep serves the identical verdict from cache,
        # diagnostics included — rejections are deterministic verdicts.
        second = SweepEngine(config).run([self._spec()])
        served = second.outcomes[0]
        assert served.cache_hit
        assert served.status == DEGENERATE_CASE
        assert served.diagnostics == outcome.diagnostics

    def test_cli_strict_gate_counts_degenerate(self, monkeypatch,
                                               capsys):
        # the sweep CLI only takes bundled case names; swap the bundled
        # five-bus for its islanded variant (serial mode keeps
        # everything in-process, so the patch holds).
        islanded = parse_case(islanded_text(), name="5bus-study1")
        import repro.grid.cases as cases_module
        monkeypatch.setattr(cases_module, "get_case",
                            lambda name: islanded)

        argv = ["sweep", "--cases", "5bus-study1", "--workers", "1",
                "--no-cache"]
        assert main(argv) == 1          # a failure, but not gated
        capsys.readouterr()
        assert main(argv + ["--strict"]) == 2
        out = capsys.readouterr().out
        assert "degenerate_case" in out
        assert "STRICT" in out
        assert "preflight" in out
