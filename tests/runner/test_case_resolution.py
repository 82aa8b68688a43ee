"""A process resolves each scenario's case once.

``fingerprint`` (in ``plan_grid``), ``encoding_group`` (in
``plan_units``) and ``run_unit`` read one memoised (case, text) per
(case, case text, attacker seed, numerics policy).  These tests pin the
work that saves, that fingerprints and group keys are the ones a
from-scratch resolution gives, that the shared case survives the
analyzers, that a policy change rebuilds, and that a parse failure is
never memoised.
"""

import hashlib
import json

import pytest

import repro
import repro.grid.cases as cases_module
import repro.runner.spec as spec_module
from perfbench.cells import exact_cells, fast_cells, serve_cells, \
    sweep_cells
from repro.grid.caseio import parse_case, write_case
from repro.numerics import NumericsPolicy, default_policy, set_policy
from repro.runner import ScenarioSpec, SweepConfig, SweepEngine
from repro.runner.engine import SessionPool, plan_grid, run_unit
from repro.runner.spec import (
    CACHE_FORMAT_VERSION,
    code_fingerprint,
    randomize_attacker,
    resolve_analyzer,
)
from repro.runner.trace import INVALID_INPUT, OK


@pytest.fixture(autouse=True)
def fresh_memo():
    spec_module._resolve.cache_clear()
    yield
    spec_module._resolve.cache_clear()


@pytest.fixture
def builds(monkeypatch):
    """Count calls of each bundled case builder."""
    counts = {}

    def counting(name, builder):
        def build():
            counts[name] = counts.get(name, 0) + 1
            return builder()
        return build

    for name, builder in list(cases_module._REGISTRY.items()):
        monkeypatch.setitem(cases_module._REGISTRY, name,
                            counting(name, builder))
    return counts


def _specs(cells):
    return [ScenarioSpec.build(**cell.spec) for cell in cells
            if cell.spec is not None]


def _fresh_resolution(spec):
    """The spec's case and case text, resolved from scratch."""
    if spec.case_text is not None:
        case = parse_case(spec.case_text, name=spec.case)
    else:
        case = cases_module.get_case(spec.case)
    if spec.attacker_seed is not None:
        case = randomize_attacker(case, spec.attacker_seed)
    return case, write_case(case)


def _digest(key):
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode())


def _fresh_keys(spec):
    """``(fingerprint, encoding group)`` from a from-scratch resolution."""
    case, text = _fresh_resolution(spec)
    analyzer = resolve_analyzer(spec.analyzer, case)
    fingerprint = _digest({
        "format": CACHE_FORMAT_VERSION,
        "version": repro.__version__,
        "code": code_fingerprint(),
        "case_text": text,
        "analyzer": analyzer,
        "target": spec.target,
        "with_state_infection": spec.with_state_infection,
        "state_samples": spec.state_samples,
        "sample_seed": spec.sample_seed,
        "search": spec.search,
        "tolerance": spec.tolerance,
        "numerics": default_policy().key(),
    }).hexdigest()
    group = _digest({
        "case_text": text,
        "analyzer": analyzer,
        "with_state_infection": spec.with_state_infection,
    }).hexdigest()[:16]
    return fingerprint, group


def test_a_sweep_builds_each_case_once(builds):
    specs = _specs(sweep_cells(0))
    pairs = {(spec.case, spec.attacker_seed) for spec in specs}
    assert len(specs) == 120 and len(pairs) == 24
    trace = SweepEngine(SweepConfig(workers=1, cache_dir=None)).run(specs)
    assert [o.status for o in trace.outcomes] == [OK] * len(specs)
    # Fingerprint, encoding group and unit share one resolution per
    # (case, attacker seed); without the memo this is 3 x 120.
    assert sum(builds.values()) <= len(pairs)


def test_keys_equal_a_from_scratch_resolution(monkeypatch):
    specs = [spec for cells in (sweep_cells(0), exact_cells(0),
                                fast_cells(0), serve_cells(0))
             for spec in _specs(cells)]
    expected = [_fresh_keys(spec) for spec in specs]
    serialised = []

    def counting(case):
        serialised.append(case.name)
        return write_case(case)

    monkeypatch.setattr(spec_module, "write_case", counting)
    keys = []
    for spec in specs:
        fingerprint = spec.fingerprint()
        written = len(serialised)
        keys.append((fingerprint, spec.encoding_group()))
        assert len(serialised) == written   # the group reuses the text
    assert keys == expected
    # One serialisation per distinct resolution, not one per key (the
    # four workloads' 32 resolutions all fit in the memo).
    resolutions = {(spec.case, spec.case_text, spec.attacker_seed)
                   for spec in specs}
    assert len(serialised) == len(resolutions)


def test_analyzers_leave_the_shared_case_unchanged():
    specs = _specs(sweep_cells(0))
    pool = SessionPool()
    for spec in specs:
        [outcome] = run_unit([spec], [""], sessions=pool)
        assert outcome.status == OK
    assert pool.stats()["case_hits"] > 0
    for spec in specs:
        assert spec.resolve_case() is spec.resolve_case()
        assert write_case(spec.resolve_case()) == \
            _fresh_resolution(spec)[1]


def test_a_policy_change_rebuilds(builds):
    spec = ScenarioSpec.build("ieee14", attacker_seed=2014)
    default = spec.resolve_case()
    assert spec.resolve_case() is default
    assert builds == {"ieee14": 1}
    set_policy(NumericsPolicy(condition_warn=1.0))
    try:
        strict = spec.resolve_case()
        assert builds == {"ieee14": 2}
        assert strict is not default
        assert spec.resolve_case() is strict
    finally:
        set_policy(None)
    assert spec.resolve_case() is default
    assert builds == {"ieee14": 2}


def test_an_unparsable_case_is_rejected_on_every_plan():
    spec = ScenarioSpec.build("garbled", analyzer="fast",
                              case_text="not a case file\n")
    for _ in range(2):
        plan = plan_grid([spec], None, False)
        assert plan.fingerprints == [""]
        assert plan.outcomes[0].status == INVALID_INPUT
        assert plan.units == []
    assert spec_module._resolve.cache_info().currsize == 0
