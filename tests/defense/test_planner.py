"""DefensePlanner: rebuild fidelity and minimal countermeasure sets.

The regression class pins the satellite bugfix: case rebuilds go
through ``dataclasses.replace``, so *every* field — ``reference_bus``
in particular, which the old hand-rolled ``_rebuild`` in
``examples/defense_planning.py`` silently reset to 1 — survives a
countermeasure transform.
"""

from dataclasses import fields, replace
from fractions import Fraction

import pytest

from repro.core import ImpactQuery
from repro.defense import (
    DefensePlanner,
    SecureLineStatus,
    SecureMeasurement,
    TightenBudgets,
    default_candidates,
    with_budgets,
    with_secured_line,
    with_secured_measurement,
)
from repro.exceptions import ModelError
from repro.grid.cases import get_case
from repro.smt.budget import SolverBudget


def _at(percent) -> ImpactQuery:
    """The planner's question at a ``percent`` impact target."""
    return ImpactQuery(target_increase_percent=percent)


def _case_with_reference_bus(bus: int):
    return replace(get_case("5bus-study1"), reference_bus=bus)


class TestRebuildPreservesEveryField:
    """Satellite regression: fails on the pre-fix field-copying rebuild."""

    def test_secured_line_keeps_nondefault_reference_bus(self):
        case = _case_with_reference_bus(3)
        defended = with_secured_line(case, 6)
        assert defended.reference_bus == 3

    def test_secured_measurement_keeps_nondefault_reference_bus(self):
        case = _case_with_reference_bus(3)
        defended = with_secured_measurement(case, 17)
        assert defended.reference_bus == 3

    def test_budget_cut_keeps_nondefault_reference_bus(self):
        case = _case_with_reference_bus(3)
        defended = with_budgets(case, 3, 1)
        assert defended.reference_bus == 3

    def test_every_untouched_field_round_trips(self):
        """Field-exhaustive: any future CaseDefinition field must
        survive the rebuild too (the root cause of the original bug was
        a hand-maintained field list going stale)."""
        case = _case_with_reference_bus(4)
        transforms = [
            (with_secured_line, (6,), {"name", "line_specs"}),
            (with_secured_measurement, (6,),
             {"name", "measurement_specs"}),
            (with_budgets, (3, 1),
             {"name", "resource_measurements", "resource_buses"}),
        ]
        for transform, args, touched in transforms:
            defended = transform(case, *args)
            for spec_field in fields(case):
                if spec_field.name in touched:
                    continue
                assert getattr(defended, spec_field.name) == \
                    getattr(case, spec_field.name), \
                    f"{transform.__name__} dropped {spec_field.name}"

    def test_secured_measurement_touches_only_the_target(self):
        case = get_case("5bus-study1")
        defended = with_secured_measurement(case, 6)
        for before, after in zip(case.measurement_specs,
                                 defended.measurement_specs):
            if before.index == 6:
                assert after.secured and not before.secured
                assert (after.taken, after.alterable) == \
                    (before.taken, before.alterable)
            else:
                assert after == before

    def test_defended_nondefault_slack_analyzes_consistently(self):
        """End-to-end: with the old bug, securing a measurement on a
        reference_bus=3 case silently analyzed a *different grid* (slack
        back at bus 1).  The defended case must keep the undefended
        case's base OPF cost — securing a channel never moves the
        slack."""
        from repro.core import FastImpactAnalyzer
        case = _case_with_reference_bus(3)
        base = FastImpactAnalyzer(case)
        defended = FastImpactAnalyzer(with_secured_measurement(case, 7))
        assert base.base_cost == defended.base_cost


class TestDefaultCandidates:
    def test_only_attacker_reachable_channels(self):
        case = get_case("5bus-study1")
        candidates = default_candidates(case)
        labels = {c.label for c in candidates}
        assert "secure-line-6" in labels
        for candidate in candidates:
            if isinstance(candidate, SecureLineStatus):
                spec = next(s for s in case.line_specs
                            if s.index == candidate.line)
                assert spec.status_alterable and not spec.status_secured
        # already-secured or untaken measurements are never candidates
        secured = with_secured_measurement(case, 6)
        assert "secure-m6" not in \
            {c.label for c in default_candidates(secured)}


class TestPlannerOnCaseStudy:
    def test_secured_line_kills_the_case_study_attack(self):
        planner = DefensePlanner(get_case("5bus-study1"), _at(3))
        plan = planner.plan([SecureLineStatus(6), SecureMeasurement(7)])
        assert plan.status == "blocked"
        assert [c.label for c in plan.selected] == ["secure-line-6"]
        assert plan.blocked

    def test_selected_set_is_one_minimal(self):
        case = get_case("5bus-study1")
        planner = DefensePlanner(case, _at(3))
        candidates = [SecureLineStatus(6), SecureMeasurement(6),
                      SecureMeasurement(17), SecureMeasurement(7)]
        plan = planner.plan(candidates)
        assert plan.status == "blocked"
        assert plan.selected
        # dropping any selected member must revive the attack
        for dropped in plan.selected:
            weakened = case
            for measure in plan.selected:
                if measure != dropped:
                    weakened = measure.apply(weakened)
            assert planner.attack_survives(weakened) is True

    def test_already_secure_and_unblockable(self):
        case = get_case("5bus-study1")
        secure = DefensePlanner(case, _at(50)).plan()
        assert secure.status == "already_secure"
        assert secure.selected == ()
        hopeless = DefensePlanner(case, _at(3)).plan([])
        assert hopeless.status == "unblockable"

    def test_warm_sessions_are_reused_across_repeat_probes(self):
        # With a single candidate, the greedy elimination re-probes the
        # undefended case — that must hit the session pool, not rebuild.
        planner = DefensePlanner(get_case("5bus-study1"), _at(3))
        plan = planner.plan([SecureLineStatus(6)])
        assert plan.status == "blocked"
        assert plan.sessions_reused >= 1
        assert plan.sessions_built == 2   # undefended + defended

    def test_pool_bounds_the_analyzers_a_long_plan_holds(self):
        case = get_case("5bus-study2")
        candidates = default_candidates(case)
        assert len(candidates) == 17
        planner = DefensePlanner(case, _at(3))
        plan = planner.plan(candidates)
        assert plan.status == "blocked"
        assert [c.label for c in plan.selected] == ["secure-m18"]
        # Every probe is a distinct variant; the pool holds at most 8.
        assert (plan.sessions_built, plan.sessions_reused) == (19, 0)
        assert planner.sessions.stats()["sessions"] <= 8

    def test_budget_exhaustion_is_inconclusive_not_blocked(self):
        planner = DefensePlanner(
            get_case("5bus-study1"),
            ImpactQuery(target_increase_percent=3,
                        budget=SolverBudget(wall_seconds=1e-9)))
        plan = planner.plan([SecureLineStatus(6)])
        assert plan.status == "inconclusive"
        assert not plan.blocked
        assert plan.probes[0]["status"] == "budget_exhausted"
        # Each probe ran on a fresh copy of the query's budget limits.
        assert planner.query.budget.exhausted_reason is None

    def test_fast_analyzer_agrees_on_the_blocking_set(self):
        planner = DefensePlanner(get_case("5bus-study1"), _at(3),
                                 analyzer="fast")
        plan = planner.plan([SecureLineStatus(6), SecureMeasurement(7)])
        assert plan.status == "blocked"
        assert [c.label for c in plan.selected] == ["secure-line-6"]

    def test_fast_plan_builds_one_grid_kernel(self):
        # Countermeasures change attacker fields only, so every variant
        # a fast plan probes runs on the undefended case's grid kernel.
        # Status, selection and probe count are the values the planner
        # gave when each analyzer built its own.
        case = get_case("ieee14")
        planner = DefensePlanner(case, _at(1), analyzer="fast")
        plan = planner.plan(default_candidates(case))
        assert plan.status == "blocked"
        assert [c.label for c in plan.selected] == ["secure-m46"]
        assert len(plan.probes) == 75
        stats = planner.sessions.stats()
        assert stats["kernel_misses"] == 1
        assert stats["kernel_hits"] == plan.sessions_built - 1

    def test_to_dict_is_json_clean(self):
        import json
        planner = DefensePlanner(get_case("5bus-study1"), _at(3),
                                 analyzer="fast")
        plan = planner.plan([SecureLineStatus(6)])
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload["status"] == "blocked"
        assert payload["selected"] == ["secure-line-6"]
        assert payload["sessions_built"] == plan.sessions_built

    def test_unknown_analyzer_kind_rejected(self):
        with pytest.raises(ModelError):
            DefensePlanner(get_case("5bus-study1"), analyzer="magic")

    def test_budget_countermeasure_tightens_resources(self):
        case = get_case("5bus-study1")
        defended = TightenBudgets(3, 1).apply(case)
        assert defended.resource_measurements == 3
        assert defended.resource_buses == 1
        assert defended.reference_bus == case.reference_bus

    def test_target_defaults_to_case_min_increase(self):
        planner = DefensePlanner(get_case("5bus-study1"),
                                 analyzer="fast")
        assert planner.target == Fraction(
            get_case("5bus-study1").min_increase_percent)
