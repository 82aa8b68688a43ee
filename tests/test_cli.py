"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.grid import write_case
from repro.grid.cases import get_case


class TestCases:
    def test_lists_all_systems(self, capsys):
        assert main(["cases"]) == 0
        out = capsys.readouterr().out
        assert "5bus-study1" in out and "ieee118" in out


class TestOpf:
    def test_bundled_case(self, capsys):
        assert main(["opf", "--case", "5bus-study1"]) == 0
        out = capsys.readouterr().out
        assert "optimal cost: 1474.68" in out
        assert "generator at bus 1" in out

    def test_missing_case_argument(self):
        with pytest.raises(SystemExit):
            main(["opf"])


class TestAnalyze:
    def test_reproduces_case_study_1(self, capsys):
        assert main(["analyze", "--case", "5bus-study1"]) == 0
        out = capsys.readouterr().out
        assert "verdict                  : sat" in out
        assert "exclusion attack on line(s) [6]" in out

    def test_unsat_exit_code(self, capsys):
        assert main(["analyze", "--case", "5bus-study1",
                     "--target", "20"]) == 1
        assert "unsat" in capsys.readouterr().out

    def test_fast_analyzer(self, capsys):
        assert main(["analyze", "--case", "5bus-study1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "exclusion attack on line(s) [6]" in out

    def test_input_file_and_output_file(self, tmp_path, capsys):
        case_file = tmp_path / "case.txt"
        case_file.write_text(write_case(get_case("5bus-study1")))
        report_file = tmp_path / "report.txt"
        code = main(["analyze", "--input", str(case_file),
                     "--output", str(report_file)])
        assert code == 0
        assert "report written" in capsys.readouterr().out
        assert "sat" in report_file.read_text()

    def test_with_states_flag(self, capsys):
        code = main(["analyze", "--case", "5bus-study2",
                     "--with-states", "--target", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "UFDI attack on state(s) [3]" in out


class TestFuzz:
    def test_seeded_run_examines_every_mutant(self, capsys):
        assert main(["fuzz", "--iterations", "20", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "20 of 20 mutants" in out
        assert "oracle held on every mutant" in out

    def test_truncated_run_exits_one(self, capsys):
        # --time-limit promises exit 1 when the run is cut short; a
        # truncated run has not checked the stream it was asked to.
        assert main(["fuzz", "--iterations", "1000",
                     "--time-limit", "0"]) == 1
        out = capsys.readouterr().out
        assert "[truncated by time limit]" in out
        assert "after 0 of 1000 requested mutants" in out


class TestSweep:
    def _run(self, tmp_path, extra=(), capsys=None):
        args = ["sweep", "--cases", "5bus-study1,5bus-study2",
                "--analyzer", "fast", "--targets", "1",
                "--state-samples", "4", "--workers", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--trace", str(tmp_path / "trace.json")]
        return main(args + list(extra))

    def test_sweep_runs_and_writes_trace(self, tmp_path, capsys):
        import json
        assert self._run(tmp_path) == 0
        out = capsys.readouterr().out
        assert "2 scenarios" in out
        assert "trace written" in out
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert payload["totals"]["scenarios"] == 2
        assert payload["totals"]["failures"] == 0
        assert payload["totals"]["opf_solves"] > 0
        scenario = payload["scenarios"][0]
        assert "smt" in scenario["trace"] and "opf" in scenario["trace"]

    def test_second_sweep_served_from_cache(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        capsys.readouterr()
        assert self._run(tmp_path) == 0
        out = capsys.readouterr().out
        assert "2/2 hits" in out

    def test_clear_cache(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        capsys.readouterr()
        assert self._run(tmp_path, extra=["--clear-cache"]) == 0
        out = capsys.readouterr().out
        assert "cleared 2 cached result(s)" in out
        assert "0/2 hits" in out

    def test_failure_exit_code(self, tmp_path, capsys):
        code = main(["sweep", "--cases", "no-such-case", "--workers", "1",
                     "--no-cache", "--trace", ""])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_smt_sweep_reports_solver_calls(self, tmp_path, capsys):
        import json
        code = main(["sweep", "--cases", "5bus-study1",
                     "--analyzer", "smt", "--targets", "1", "--workers", "1",
                     "--no-cache",
                     "--trace", str(tmp_path / "trace.json")])
        assert code == 0
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert payload["totals"]["solver_calls"] > 0
        smt = payload["scenarios"][0]["trace"]["smt"]
        assert smt["decisions"] >= 0 and "simplex_pivots" in smt
