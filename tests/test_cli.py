"""Tests for the command-line interface."""

from fractions import Fraction

import pytest

import repro.runner.engine as engine_mod
import repro.service.server as server_mod
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
        assert main(["analyze", "--case", "5bus-study1",
                     "--analyzer", "fast"]) == 0
        out = capsys.readouterr().out
        assert "exclusion attack on line(s) [6]" in out

    def test_query_the_analyzer_cannot_honour_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--case", "5bus-study1", "--analyzer",
                  "fast", "--verify-smt"])
        assert "verify_with_smt_opf" in str(exc.value)

    @pytest.mark.parametrize("flag, asked", [
        ("3.14159", Fraction(314159, 100000)),
        ("0.33333", Fraction(33333, 100000)),
        ("9/2", Fraction(9, 2))])
    def test_target_is_asked_exactly(self, monkeypatch, flag, asked):
        # --target is parsed as an exact fraction, like sweep --targets
        # and defend/maximize: no float round-trip, no rounding.
        queries = []
        build = engine_mod.build_analyzer

        class Asked(Exception):
            pass

        def recording_build(case, kind):
            analyzer = build(case, kind)

            def analyze(query=None):
                queries.append(query)
                raise Asked

            analyzer.analyze = analyze
            return analyzer

        monkeypatch.setattr(engine_mod, "build_analyzer", recording_build)
        with pytest.raises(Asked):
            main(["analyze", "--case", "5bus-study1", "--target", flag])
        [query] = queries
        assert query.target_increase_percent == asked

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


class TestMaximize:
    def test_smt_maximize_keeps_one_warm_encoding(self, capsys):
        import json
        assert main(["maximize", "--case", "5bus-study1", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["encodings_built"] == 1
        assert result["warm_solves"] > 0


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

    @pytest.mark.parametrize("flag", ["--max-decisions", "--max-conflicts",
                                      "--max-pivots"])
    def test_zero_budget_is_a_budget(self, flag, tmp_path, capsys):
        import json
        code = main(["sweep", "--cases", "5bus-study1",
                     "--analyzer", "smt", "--targets", "1", "--workers", "1",
                     "--no-cache", flag, "0",
                     "--trace", str(tmp_path / "trace.json")])
        assert code == 1
        payload = json.loads((tmp_path / "trace.json").read_text())
        [scenario] = payload["scenarios"]
        assert scenario["status"] == "unknown"
        assert "(0) exhausted" in scenario["error"]

    def test_maximize_totals_count_the_search_encodings(self, tmp_path,
                                                        capsys):
        import json
        code = main(["sweep", "--cases", "5bus-study1",
                     "--analyzer", "smt", "--workers", "1", "--no-cache",
                     "--search", "maximize",
                     "--trace", str(tmp_path / "trace.json")])
        assert code == 0
        payload = json.loads((tmp_path / "trace.json").read_text())
        [scenario] = payload["scenarios"]
        search = scenario["trace"]["session"]["search"]
        assert search["encodings_built"] == 1
        assert payload["totals"]["encodings_built"] == 1
        assert "encodings      : 1 built" in capsys.readouterr().out

    def test_maximize_totals_count_the_search_encode_time(self, tmp_path,
                                                          capsys):
        import json
        code = main(["sweep", "--cases", "5bus-study1",
                     "--analyzer", "smt", "--workers", "1", "--no-cache",
                     "--search", "maximize",
                     "--trace", str(tmp_path / "trace.json")])
        assert code == 0
        payload = json.loads((tmp_path / "trace.json").read_text())
        [scenario] = payload["scenarios"]
        # The witness probe is a warm re-solve that encodes nothing; the
        # cell's encode time is its search's.
        search = scenario["trace"]["session"]["search"]
        assert search["encode_seconds"] > 0
        assert payload["totals"]["encode_seconds"] == \
            search["encode_seconds"]
        assert "encode_seconds" not in scenario["max_impact"]

    def test_one_cold_cell_claims_no_reuse(self, tmp_path, capsys):
        code = main(["sweep", "--cases", "5bus-study1", "--targets", "1",
                     "--analyzer", "smt", "--workers", "1", "--no-cache",
                     "--trace", str(tmp_path / "trace.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "encodings      : 1 built" in out
        assert "reused" not in out


class TestServe:
    @pytest.mark.parametrize("flag", ["--workers", "--queue-limit",
                                      "--session-limit"])
    def test_zero_is_a_usage_error_before_binding(self, monkeypatch, flag):
        def no_bind(*args, **kwargs):
            raise AssertionError("serve bound a port")

        monkeypatch.setattr(server_mod, "JsonAcceptor", no_bind)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", flag, "0"])
        assert "serve:" in str(exc.value)
