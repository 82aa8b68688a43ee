"""Front-end parity: sweep, service and fabric share one kernel.

The serial sweep, the parallel sweep, the analysis-service worker and the
fabric worker all plan, execute and cache through
:mod:`repro.runner.engine`, so every one of them must produce the same
``deterministic_outcome_view`` for each kind of cell — definitive
verdicts, an I* search and every deliberate degradation — and every
cache read-through site must refuse a planted stale entry.
"""

import pytest

import repro.runner.engine as engine_mod
from repro.exceptions import InputFormatError
from repro.fabric import Coordinator, CoordinatorConfig, FabricWorker, \
    WorkerConfig
from repro.grid.caseio import write_case
from repro.grid.cases import get_case
from repro.runner import ResultCache, ScenarioSpec, SweepConfig, \
    SweepEngine, execute_scenario
from repro.runner.engine import build_analyzer
from repro.runner.trace import (
    DEGENERATE_CASE,
    INVALID_INPUT,
    NUMERICAL_UNSTABLE,
    OK,
    ScenarioOutcome,
    deterministic_outcome_view,
)
from repro.service.worker import ServiceWorker
from repro.testing import write_stale_cache_entry

_LINE_ROW = "3 2 3 5.05 0.05 1 1 1 1 1"


def _study1_text(line_row=_LINE_ROW):
    text = write_case(get_case("5bus-study1"))
    assert _LINE_ROW in text
    return text.replace(_LINE_ROW, line_row)


def _islanded_text():
    text = _study1_text(_LINE_ROW.replace("1 1 1 1 1", "1 0 1 1 1"))
    return text.replace("6 3 4 5.85 0.2 1 1 0 0 1",
                        "6 3 4 5.85 0.2 1 0 0 0 1")


def _inline(label, text, **kwargs):
    return ScenarioSpec.build("inline-" + label, analyzer="fast",
                              case_text=text, target=1, state_samples=2,
                              label=label, **kwargs)


#: one cell per kind, each in its own encoding group so unit planning
#: cannot make any cell warmer on one front end than on another.
SPECS = {
    "smt-decision": ScenarioSpec.build(
        "5bus-study2", analyzer="smt", target=1, label="smt-decision"),
    "fast-decision": ScenarioSpec.build(
        "5bus-study1", analyzer="fast", target=1, state_samples=4,
        label="fast-decision"),
    "maximize": ScenarioSpec.build(
        "5bus-study1", analyzer="smt", search="maximize",
        tolerance="1/2", label="maximize"),
    "invalid-input": _inline(
        "invalid-input", _study1_text(_LINE_ROW.replace("5.05", "-5.05"))),
    "degenerate-case": _inline("degenerate-case", _islanded_text()),
    "parse-failure": _inline("parse-failure", "not a case file"),
    "numerical-unstable": _inline(
        "numerical-unstable",
        _study1_text(_LINE_ROW.replace("5.05", repr(5.05e-12)))),
}

EXPECTED_STATUS = {
    "smt-decision": OK, "fast-decision": OK, "maximize": OK,
    "invalid-input": INVALID_INPUT, "degenerate-case": DEGENERATE_CASE,
    "parse-failure": INVALID_INPUT,
    "numerical-unstable": NUMERICAL_UNSTABLE,
}


def _fingerprint(spec):
    try:
        return spec.fingerprint()
    except InputFormatError:
        return ""


def _view(outcome):
    return deterministic_outcome_view(outcome.to_dict())


def _sweep(tmp_path_factory, workers):
    cache_dir = tmp_path_factory.mktemp(f"sweep-{workers}")
    trace = SweepEngine(SweepConfig(workers=workers,
                                    cache_dir=str(cache_dir))).run(
        list(SPECS.values()))
    assert trace.mode == ("parallel" if workers > 1 else "serial")
    return {o.spec.label: _view(o) for o in trace.outcomes}


@pytest.fixture(scope="module")
def serial_views(tmp_path_factory):
    return _sweep(tmp_path_factory, 1)


@pytest.fixture(scope="module")
def parallel_views(tmp_path_factory):
    return _sweep(tmp_path_factory, 2)


def _service(spec, cache_dir):
    worker = ServiceWorker(0, {"cache_dir": str(cache_dir)})
    reply = worker.run_job({"op": "job", "id": 1,
                            "specs": [spec.to_dict()]})
    [outcome] = reply["outcomes"]
    return ScenarioOutcome.from_dict(outcome)


def _fabric(spec, cache_dir):
    worker = FabricWorker("http://127.0.0.1:9",
                          WorkerConfig(cache_dir=str(cache_dir)))
    [outcome] = worker._execute([spec], [_fingerprint(spec)], None, None)
    return outcome


@pytest.mark.parametrize("name", sorted(SPECS))
def test_front_ends_agree(name, serial_views, parallel_views, tmp_path):
    spec = SPECS[name]
    expected = serial_views[name]
    assert expected["status"] == EXPECTED_STATUS[name]
    assert parallel_views[name] == expected
    assert _view(_service(spec, tmp_path / "service")) == expected
    assert _view(_fabric(spec, tmp_path / "fabric")) == expected


def test_every_read_through_site_rejects_a_stale_entry(tmp_path):
    spec = SPECS["fast-decision"]
    fingerprint = spec.fingerprint()
    genuine = execute_scenario(spec, fingerprint)
    assert genuine.status == OK
    cache_dir = tmp_path / "cache"

    def plant():
        # The verdict flipped in place: structurally valid, semantically
        # inconsistent (the believed cost betrays it).
        write_stale_cache_entry(
            ResultCache(cache_dir), fingerprint, genuine.to_dict(),
            satisfiable=not genuine.satisfiable,
            achieved_increase_percent=None)

    plant()
    trace = SweepEngine(SweepConfig(workers=1,
                                    cache_dir=str(cache_dir))).run([spec])
    assert trace.cache_rejected == 1
    assert not trace.outcomes[0].cache_hit
    assert _view(trace.outcomes[0]) == _view(genuine)

    plant()
    plan = Coordinator([spec], CoordinatorConfig(
        cache_dir=str(cache_dir),
        journal_path=str(tmp_path / "journal.jsonl"))).prepare()
    assert plan.cache_rejected == 1
    assert plan.outcomes == [None] and plan.units == [[0]]

    for front_end in (_service, _fabric):
        plant()
        outcome = front_end(spec, cache_dir)
        assert not outcome.cache_hit, front_end.__name__
        assert _view(outcome) == _view(genuine)


@pytest.mark.parametrize("search, expect_warm", [("decision", False),
                                                 ("maximize", True)])
def test_only_maximize_cells_run_warm(search, expect_warm, monkeypatch):
    # A one-cell decision unit stays on the cold single-shot path (the
    # exact workload's path); an I* search re-solves one encoding at
    # many thresholds, so even a single cell runs warm.
    built = []

    def spy(case, kind, warm=False):
        built.append(warm)
        return build_analyzer(case, kind, warm=warm)

    monkeypatch.setattr(engine_mod, "build_analyzer", spy)
    spec = ScenarioSpec.build(
        "5bus-study1", analyzer="smt", search=search,
        target=1 if search == "decision" else None,
        tolerance="1/2" if search == "maximize" else None)
    direct = execute_scenario(spec, "fp")
    swept = SweepEngine(SweepConfig(workers=1, use_cache=False)).run(
        [spec]).outcomes[0]
    assert built == [expect_warm, expect_warm]
    for outcome in (direct, swept):
        assert outcome.status == OK
        assert outcome.trace["session"]["warm"] is expect_warm
