"""Incremental (warm) scenario grouping in the sweep engine.

A Fig. 4-style threshold sweep re-analyzes one case at many targets; the
engine must batch those scenarios onto a warm analyzer so the attack
encoding is built exactly once per worker, while scenarios with
different encodings (other cases, state infection) run as units of
their own through the same unit runner.
"""

from fractions import Fraction

from repro.core.fast import FastImpactAnalyzer, FastQuery, FastSearchStrategy
from repro.grid.caseio import write_case
from repro.grid.cases import get_case
from repro.numerics.diagnostics import WARNING, NumericalDiagnostic, emit
from repro.runner import ScenarioSpec, SweepConfig, SweepEngine
from repro.runner.engine import execute_scenario, run_unit
from repro.runner.trace import (
    ERROR,
    OK,
    UNKNOWN,
    deterministic_outcome_view,
)

TARGETS = (1, 2, 3, 4, 5, 6)


def _threshold_specs(targets=TARGETS, case="5bus-study1"):
    return [ScenarioSpec.build(case, analyzer="smt", target=t,
                               label=f"{case}/t{t}") for t in targets]


class TestEncodingGroup:
    def test_targets_share_a_group(self):
        a, b = _threshold_specs(targets=(1, 6))
        assert a.encoding_group() == b.encoding_group()

    def test_cases_and_infection_split_groups(self):
        base = ScenarioSpec.build("5bus-study1", analyzer="smt", target=1)
        other_case = ScenarioSpec.build("5bus-study2", analyzer="smt",
                                        target=1)
        with_states = ScenarioSpec.build("5bus-study1", analyzer="smt",
                                         target=1,
                                         with_state_infection=True)
        assert base.encoding_group() != other_case.encoding_group()
        assert base.encoding_group() != with_states.encoding_group()


class TestUnitPlanning:
    def test_one_worker_one_unit_per_group(self):
        engine = SweepEngine(SweepConfig(workers=1))
        units = engine._plan_units(_threshold_specs(), range(len(TARGETS)))
        assert units == [[0, 1, 2, 3, 4, 5]]

    def test_groups_split_to_keep_workers_busy(self):
        engine = SweepEngine(SweepConfig(workers=2))
        units = engine._plan_units(_threshold_specs(), range(len(TARGETS)))
        assert units == [[0, 1, 2], [3, 4, 5]]

    def test_mixed_cases_group_separately(self):
        specs = _threshold_specs(targets=(1, 2)) + \
            _threshold_specs(targets=(1, 2), case="5bus-study2")
        engine = SweepEngine(SweepConfig(workers=1))
        assert engine._plan_units(specs, range(4)) == [[0, 1], [2, 3]]


class TestWarmSweep:
    def test_threshold_sweep_builds_one_encoding(self):
        """Acceptance: a 6-scenario threshold sweep over one case pays
        for exactly one AttackModelEncoding construction."""
        specs = _threshold_specs()
        trace = SweepEngine(SweepConfig(
            workers=1, use_cache=False)).run(specs)
        assert [o.status for o in trace.outcomes] == [OK] * len(specs)
        totals = trace.to_dict()["totals"]
        assert totals["encodings_built"] == 1
        assert totals["encode_seconds"] > 0
        sessions = [o.trace["session"] for o in trace.outcomes]
        assert [s["warm"] for s in sessions] == \
            [False] + [True] * (len(specs) - 1)

    def test_warm_verdicts_match_cold_execution(self):
        specs = _threshold_specs()
        warm = SweepEngine(SweepConfig(
            workers=1, use_cache=False)).run(specs)
        for spec, outcome in zip(specs, warm.outcomes):
            cold = execute_scenario(spec, "fp")
            assert outcome.satisfiable == cold.satisfiable
            assert outcome.status == cold.status
            assert outcome.base_cost == cold.base_cost
            assert outcome.threshold == cold.threshold

    def test_group_runner_isolates_scenario_failures(self):
        good = _threshold_specs(targets=(1, 5))
        bad = ScenarioSpec.build("broken", analyzer="smt", target=2,
                                 case_text="not a case",
                                 label="broken/t2")
        specs = [good[0], bad, good[1]]
        outcomes = list(run_unit(specs, ["a", "b", "c"]))
        assert [o.fingerprint for o in outcomes] == ["a", "b", "c"]
        assert outcomes[0].status == OK
        assert outcomes[1].status == "invalid_input"
        assert outcomes[2].status == OK

    def test_group_budget_is_per_scenario(self):
        specs = _threshold_specs(targets=(1, 2))
        outcomes = list(run_unit(
            specs, ["a", "b"], budget_limits={"wall_seconds": 1e-9}))
        assert [o.status for o in outcomes] == [UNKNOWN, UNKNOWN]

    def test_group_results_are_cached_per_scenario(self, tmp_path):
        specs = _threshold_specs()
        config = SweepConfig(workers=1,
                             cache_dir=str(tmp_path / "cache"))
        first = SweepEngine(config).run(specs)
        assert all(not o.cache_hit for o in first.outcomes)
        second = SweepEngine(config).run(specs)
        assert all(o.cache_hit for o in second.outcomes)
        for before, after in zip(first.outcomes, second.outcomes):
            assert after.satisfiable == before.satisfiable
            assert after.trace == before.trace

    def test_parallel_grouped_sweep_matches_serial(self):
        specs = _threshold_specs(targets=(1, 2, 5, 6))
        serial = SweepEngine(SweepConfig(
            workers=1, use_cache=False)).run(specs)
        parallel = SweepEngine(SweepConfig(
            workers=2, use_cache=False)).run(specs)
        assert [o.satisfiable for o in parallel.outcomes] == \
            [o.satisfiable for o in serial.outcomes]
        assert [o.status for o in parallel.outcomes] == \
            [OK] * len(specs)
        # one warm unit per worker: one encoding each
        totals = parallel.to_dict()["totals"]
        if parallel.mode == "parallel":
            assert totals["encodings_built"] == 2


def _report_view(report):
    attack = report.attack
    return (report.status, report.satisfiable,
            report.achieved_increase_percent, report.believed_min_cost,
            report.candidates_examined,
            None if attack is None else (attack.excluded, attack.included,
                                         attack.altered_measurements,
                                         attack.believed_loads),
            [(d.code, d.message) for d in report.diagnostics.diagnostics]
            if report.diagnostics is not None else [])


class TestFastWarmMemo:
    """The fast strategy keeps target-independent kernel results (flow
    ranges, interval maxima) across the queries of one analyzer; a warm
    query must answer exactly as a cold one."""

    def test_fast_unit_matches_cold_cells(self):
        targets = ["1/2"] + list(range(1, 9))
        specs = [ScenarioSpec.build("ieee30", analyzer="fast", target=t,
                                    label=f"ieee30/t{t}")
                 for t in targets]
        fingerprints = [f"fp{i}" for i in range(len(specs))]
        warm = list(run_unit(specs, fingerprints))
        assert [o.status for o in warm] == [OK] * len(specs)
        assert warm[0].satisfiable and not warm[1].satisfiable
        for spec, fingerprint, outcome in zip(specs, fingerprints, warm):
            cold = execute_scenario(spec, fingerprint)
            assert deterministic_outcome_view(outcome.to_dict()) == \
                deterministic_outcome_view(cold.to_dict())
        # Targets 2..n were answered from the memo alone.
        assert [o.trace["opf"]["solves"] for o in warm[1:]] == \
            [0] * (len(specs) - 1)

    def test_bisection_tolerance_keys_the_memo(self):
        warm = FastImpactAnalyzer(get_case("ieee30"))
        for tolerance in (1e-4, 1e-2, 1e-4):
            for target in (Fraction(1, 2), Fraction(2)):
                query = dict(target_increase_percent=target,
                             bisection_tolerance=tolerance)
                cold = FastImpactAnalyzer(get_case("ieee30"))
                assert _report_view(warm.analyze(FastQuery(**query))) == \
                    _report_view(cold.analyze(FastQuery(**query)))
        assert {key[2] for key in warm._strategy._maxima} == {1e-4, 1e-2}

    def test_warned_entry_is_recomputed(self, monkeypatch):
        """A range computed under a numerical warning is not memoised:
        the next query recomputes it, warns again and escalates exactly
        as a cold query does."""
        warned = ("exclude", 11)
        computed = []
        original = FastSearchStrategy._reachable_flow_range

        def warning_range(self, kind, line_index):
            computed.append((kind, line_index))
            if (kind, line_index) == warned:
                emit(NumericalDiagnostic(
                    "solve", "test matrix", WARNING, "injected warning"))
            return original(self, kind, line_index)

        monkeypatch.setattr(FastSearchStrategy, "_reachable_flow_range",
                            warning_range)
        query = FastQuery(target_increase_percent=Fraction(2))
        warm = FastImpactAnalyzer(get_case("ieee30"))
        warm.analyze(query)
        ranges = warm._strategy._ranges
        assert warned in computed and warned not in ranges
        assert set(computed) - {warned} <= set(ranges)

        computed.clear()
        report = warm.analyze(query)
        assert computed == [warned]
        cold = FastImpactAnalyzer(get_case("ieee30")).analyze(query)
        assert _report_view(report) == _report_view(cold)
        codes = {d.code for d in report.diagnostics.diagnostics}
        assert {"numeric.ill_conditioned",
                "numeric.boundary_escalated"} <= codes


class TestGroupErrorPropagation:
    def test_unit_payload_length_mismatch_is_error(self):
        engine = SweepEngine(SweepConfig(workers=1))
        specs = _threshold_specs(targets=(1, 2))
        parsed = engine._parse_unit_payloads(
            [0, 1], [{"spec": specs[0].to_dict()}], specs, ["a", "b"])
        assert [o.status for o in parsed] == [ERROR, ERROR]
        assert "2 scenarios" in parsed[0].error
