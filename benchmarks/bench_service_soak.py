"""Robustness soak for the analysis service (``repro serve``).

Not a paper figure: this is the acceptance measurement for the
fault-tolerant service layer.  A mixed analyze/maximize load is driven
through a live :class:`~repro.service.ServiceServer` by concurrent
clients while a fault plan kills and hangs workers mid-request.  The
soak asserts the robustness contract end to end — zero lost requests,
zero wrong verdicts, every injected fault survived — and records the
measured warm-session hit ratio and retry counts to
``BENCH_service_soak.json`` at the repository root (the numbers quoted
in EXPERIMENTS.md).
"""

import json
import random
import threading
import time
from pathlib import Path

import pytest

from repro.runner import ScenarioSpec
from repro.runner.engine import execute_scenario
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    ServiceUnavailable,
)
from repro.testing import (
    CRASH_WORKER,
    HANG_WORKER,
    Fault,
    FaultPlan,
)
from repro.cli import format_table

CASE = "5bus-study1"
TARGETS = ("1", "2", "3", "4", "5")
TOTAL = 120
DRIVERS = 4
ARTIFACT = Path(__file__).resolve().parent.parent / \
    "BENCH_service_soak.json"

#: labels that get a fault injected under them (6 kills total).
CRASHES = ("req007", "req031", "req063", "req094")
HANGS = ("req018", "req077")


def _load():
    load = []
    for i in range(TOTAL):
        label = f"req{i:03d}"
        if i % 6 == 5:
            spec = {"case": CASE, "analyzer": "fast", "label": label,
                    "tolerance": "1/4", "sample_seed": i}
            load.append((label, "maximize", spec))
        else:
            spec = {"case": CASE, "analyzer": "fast", "label": label,
                    "target": TARGETS[i % len(TARGETS)],
                    "sample_seed": i}
            load.append((label, "analyze", spec))
    return load


def _truth(load):
    verdicts = {}
    for label, kind, spec in load:
        key = (kind, spec.get("target"))
        if key in verdicts:
            continue
        outcome = execute_scenario(ScenarioSpec.build(
            CASE, analyzer="fast", target=spec.get("target"),
            search="maximize" if kind == "maximize" else "decision",
            tolerance=spec.get("tolerance")))
        assert outcome.status == "ok", (key, outcome.error)
        istar = None
        if outcome.max_impact is not None:
            istar = outcome.max_impact["max_increase_percent"]
        verdicts[key] = (outcome.satisfiable, istar)
    return verdicts


@pytest.mark.paper("robustness soak (service layer, not a paper figure)")
def test_service_soak_survives_injected_kills(tmp_path, monkeypatch):
    load = _load()
    truth = _truth(load)

    faults = {label: Fault(kind=CRASH_WORKER, times=1)
              for label in CRASHES}
    faults.update({label: Fault(kind=HANG_WORKER, times=1,
                                sleep_seconds=30.0)
                   for label in HANGS})
    plan = FaultPlan.build(tmp_path / "state", faults)
    monkeypatch.setenv("REPRO_FAULTS", plan.to_file(tmp_path / "plan.json"))

    config = ServiceConfig(
        workers=2, queue_limit=TOTAL, request_timeout=15.0,
        hang_grace=0.5, retry_limit=1,
        cache_dir=str(tmp_path / "cache"))
    server = ServiceServer(port=0, config=config).start()
    started = time.monotonic()
    try:
        outcomes, failures = {}, {}
        lock = threading.Lock()

        def drive(chunk, seed):
            client = ServiceClient(server.url, retries=6,
                                   backoff_seconds=0.05,
                                   rng=random.Random(seed))
            for label, kind, spec in chunk:
                try:
                    call = client.maximize if kind == "maximize" \
                        else client.analyze
                    result = call(spec, deadline_seconds=5.0)
                    with lock:
                        outcomes[label] = result
                except ServiceUnavailable as exc:
                    with lock:
                        failures[label] = exc

        ServiceClient(server.url).wait_ready(20.0)
        threads = [threading.Thread(
            target=drive, args=(load[i::DRIVERS], 7 * i + 1),
            daemon=True) for i in range(DRIVERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
            assert not thread.is_alive(), "driver thread wedged"
        elapsed = time.monotonic() - started

        assert len(outcomes) + len(failures) == TOTAL   # zero lost
        wrong, degraded = [], []
        for label, kind, spec in load:
            if label not in outcomes:
                degraded.append(label)
                continue
            outcome = outcomes[label]["outcome"]
            if outcome["status"] == "unknown":
                degraded.append(label)
                continue
            want_sat, want_istar = truth[(kind, spec.get("target"))]
            if outcome["satisfiable"] != want_sat:
                wrong.append(label)
            elif kind == "maximize" and want_istar is not None and \
                    outcome["max_impact"]["max_increase_percent"] \
                    != want_istar:
                wrong.append(label)
        assert not wrong, wrong                          # zero wrong

        stats = server.supervisor.stats()
        health = server.supervisor.healthz()
        totals = stats["totals"]
        assert health["restarts"] >= len(CRASHES) + len(HANGS)
        sessions = totals.get("session_hits", 0) + \
            totals.get("session_misses", 0)
        warm_ratio = totals.get("session_hits", 0) / max(1, sessions)
        assert server.drain(timeout=30.0) is True

        record = {
            "requests": TOTAL,
            "injected_kills": len(CRASHES) + len(HANGS),
            "lost": 0,
            "wrong": 0,
            "degraded": len(degraded),
            "restarts": health["restarts"],
            "retried": stats["counters"]["retried"],
            "warm_hit_ratio": round(warm_ratio, 3),
            "cache_hits": totals.get("cache_hits", 0),
            "elapsed_seconds": round(elapsed, 2),
        }
        ARTIFACT.write_text(json.dumps(record, indent=2) + "\n")
        print()
        print(format_table(
            "Service soak (120 requests, 6 injected kills)",
            ["metric", "value"],
            [[k, str(v)] for k, v in record.items()]))
    finally:
        server.shutdown()
