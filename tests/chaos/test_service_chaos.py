"""Chaos acceptance for the analysis service.

The contract under test: a 50-request mixed analyze/maximize load with
injected worker crashes, hangs, flaky-disk cache writes and dropped
connections must terminate with every request either *correct* (the
verdict matches an undisturbed in-process run) or *explicitly degraded*
(``budget_exhausted``/503-after-retries) — zero lost requests, zero
wrong verdicts.  Plus the process-level lifecycle: ``repro serve``
drains cleanly on SIGTERM (exit 0) and ``repro sweep`` checkpoints and
exits with the dedicated resumable code (5).
"""

import os
import random
import signal
import subprocess
import sys
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
    DROP_CONNECTION,
    FAIL_CACHE_WRITE,
    HANG_WORKER,
    Fault,
    FaultPlan,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

CASE = "5bus-study1"
TARGETS = ("1", "2", "3", "4", "5")     # I* = 4.25: 5% is unsat


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def build_load(total=50):
    """The 50-request mix: (label, kind, spec-dict) per request."""
    load = []
    for i in range(total):
        label = f"req{i:02d}"
        # Unique sample_seed per request: distinct fingerprints (no
        # blanket cache short-circuit) sharing one encoding group, so
        # the warm session pool does real work under the fault load.
        # The seed only steers state-infection sampling, which is off
        # here, so verdicts are seed-independent.
        if i % 5 == 4:
            spec = {"case": CASE, "analyzer": "fast", "label": label,
                    "tolerance": "1/4", "sample_seed": i}
            load.append((label, "maximize", spec))
        else:
            spec = {"case": CASE, "analyzer": "fast", "label": label,
                    "target": TARGETS[i % len(TARGETS)],
                    "sample_seed": i}
            load.append((label, "analyze", spec))
    return load


def expected_verdicts(load):
    """Undisturbed in-process ground truth per (kind, target)."""
    verdicts = {}
    for label, kind, spec in load:
        data = dict(spec)
        data.pop("label")
        key = (kind, data.get("target"))
        if key in verdicts:
            continue
        data["search"] = "maximize" if kind == "maximize" else "decision"
        outcome = execute_scenario(ScenarioSpec.build(
            data.pop("case"), analyzer=data.pop("analyzer"),
            target=data.pop("target", None),
            search=data.pop("search"),
            tolerance=data.pop("tolerance", None)))
        assert outcome.status == "ok", (key, outcome.error)
        istar = None
        if outcome.max_impact is not None:
            istar = outcome.max_impact["max_increase_percent"]
        verdicts[key] = (outcome.satisfiable, istar)
    return verdicts


def test_fifty_request_chaos_load_loses_nothing(tmp_path, monkeypatch):
    load = build_load(50)
    truth = expected_verdicts(load)

    faults = {
        "req03": Fault(kind=CRASH_WORKER, times=1),
        "req17": Fault(kind=CRASH_WORKER, times=1),
        "req41": Fault(kind=CRASH_WORKER, times=1),
        "req08": Fault(kind=HANG_WORKER, times=1, sleep_seconds=30.0),
        "req23": Fault(kind=HANG_WORKER, times=1, sleep_seconds=30.0),
        "req05": Fault(kind=FAIL_CACHE_WRITE, times=1),
        "req11": Fault(kind=DROP_CONNECTION, times=1),
        "req29": Fault(kind=DROP_CONNECTION, times=1),
    }
    kills = sum(fault.kind in (CRASH_WORKER, HANG_WORKER)
                for fault in faults.values())
    plan = FaultPlan.build(tmp_path / "state", faults)
    monkeypatch.setenv("REPRO_FAULTS", plan.to_file(tmp_path / "plan.json"))

    config = ServiceConfig(
        workers=2, queue_limit=50, request_timeout=15.0,
        hang_grace=0.5, retry_limit=1,
        cache_dir=str(tmp_path / "cache"))
    server = ServiceServer(port=0, config=config).start()
    try:
        outcomes = {}
        failures = {}
        lock = threading.Lock()

        def drive(chunk, seed):
            client = ServiceClient(server.url, retries=6,
                                   backoff_seconds=0.05,
                                   rng=random.Random(seed))
            for label, kind, spec in chunk:
                options = {"deadline_seconds": 5.0}
                try:
                    if kind == "maximize":
                        result = client.maximize(spec, **options)
                    else:
                        result = client.analyze(spec, **options)
                    with lock:
                        outcomes[label] = result
                except ServiceUnavailable as exc:
                    # Explicit degradation (503 after retries): allowed
                    # by the contract, but must be *visible*, not lost.
                    with lock:
                        failures[label] = exc

        ServiceClient(server.url).wait_ready(20.0)
        threads = [threading.Thread(
            target=drive, args=(load[i::4], 11 * i), daemon=True)
            for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive(), "driver thread wedged"

        # Zero lost requests: every label is accounted for.
        assert len(outcomes) + len(failures) == len(load)

        # Zero wrong verdicts: every completed request matches the
        # undisturbed ground truth or is explicitly degraded.
        wrong = []
        degraded = []
        for label, kind, spec in load:
            if label not in outcomes:
                degraded.append(label)
                continue
            outcome = outcomes[label]["outcome"]
            if outcome["status"] == "unknown":
                degraded.append(label)      # budget_exhausted partial
                continue
            assert outcome["status"] == "ok", (label, outcome)
            want_sat, want_istar = truth[(kind, spec.get("target"))]
            if outcome["satisfiable"] != want_sat:
                wrong.append((label, "satisfiable"))
            if kind == "maximize" and want_istar is not None:
                got = outcome["max_impact"]["max_increase_percent"]
                if got != want_istar:
                    wrong.append((label, "istar", got, want_istar))
        assert not wrong, wrong

        # The injected faults actually happened and were survived.
        stats = server.supervisor.stats()
        health = server.supervisor.healthz()
        assert health["restarts"] >= kills, health
        assert stats["counters"]["retried"] >= 3
        assert server.http_stats()["dropped"] >= 1
        # Warm sessions did real work across the load.
        assert stats["totals"].get("session_hits", 0) > 0

        # Graceful shutdown still works after all that chaos.
        assert server.drain(timeout=30.0) is True
    finally:
        server.shutdown()


def test_serve_sigterm_drains_and_exits_zero(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--cache-dir", str(tmp_path / "cache"),
         "--drain-timeout", "30"],
        cwd=str(REPO_ROOT), env=subprocess_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        banner = proc.stdout.readline()
        assert "listening on http://" in banner, banner
        url = banner.split("listening on ", 1)[1].split()[0]
        client = ServiceClient(url, retries=4)
        client.wait_ready(20.0)

        results = []

        def inflight():
            results.append(client.maximize(
                {"case": CASE, "analyzer": "smt", "tolerance": "1/4"}))

        thread = threading.Thread(target=inflight, daemon=True)
        thread.start()
        time.sleep(0.3)             # let the request reach a worker
        proc.send_signal(signal.SIGTERM)
        thread.join(timeout=60)

        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, (proc.returncode, stdout, stderr)
        assert "drained cleanly" in stdout
        # The in-flight request finished correctly during the drain.
        assert results and results[0]["outcome"]["status"] == "ok"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_sweep_sigterm_checkpoints_and_exits_resumable(tmp_path):
    cache_dir = str(tmp_path / "cache")
    command = [sys.executable, "-m", "repro", "sweep",
               "--cases", CASE, "--analyzer", "smt",
               "--targets", "1,2,3,4,5,6,7,8,9,10,11,12",
               "--workers", "1", "--cache-dir", cache_dir, "--trace", ""]
    proc = subprocess.Popen(command, cwd=str(REPO_ROOT),
                            env=subprocess_env(),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    # The start banner prints after the SIGTERM handler is installed,
    # and the handler stays until the command returns; waiting for the
    # first checkpoint file means the signal lands with at least one
    # cell saved, whether the rest of the ~4s sweep is running or done.
    banner = proc.stdout.readline()
    assert "scenario(s) queued" in banner, banner
    results = Path(cache_dir) / "results"
    deadline = time.monotonic() + 60
    while not any(results.rglob("*.json")):
        assert proc.poll() is None, proc.communicate()
        assert time.monotonic() < deadline, "no checkpoint within 60s"
        time.sleep(0.02)
    proc.send_signal(signal.SIGTERM)
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 5, (proc.returncode, stdout, stderr)
    assert "checkpointed" in stderr
    assert "resume" in stderr

    # Resume: the re-run completes and serves the salvaged cells from
    # the checkpoint cache.
    rerun = subprocess.run(command, cwd=str(REPO_ROOT),
                           env=subprocess_env(), capture_output=True,
                           text=True, timeout=300)
    assert rerun.returncode == 0, (rerun.returncode, rerun.stdout,
                                   rerun.stderr)
    hits = [line for line in rerun.stdout.splitlines()
            if line.startswith("cache")]
    assert hits, rerun.stdout
    assert "0/12 hits" not in hits[0], hits[0]


def _children(pid):
    """Pids of the live child processes of *pid* (its pool workers)."""
    found = set()
    for children in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            found.update(int(p) for p in children.read_text().split())
        except OSError:
            pass                        # the thread exited meanwhile
    return found


def _running(pid):
    """True while *pid* exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs /proc to find worker processes")
def test_parallel_sweep_sigterm_stops_workers_and_resumes(tmp_path):
    cache_dir = str(tmp_path / "cache")
    command = [sys.executable, "-m", "repro", "sweep",
               "--cases", CASE, "--analyzer", "smt",
               "--targets", "1,2,3,4,5,6,7,8,9,10,11,12",
               "--workers", "2", "--cache-dir", cache_dir, "--trace", ""]
    proc = subprocess.Popen(command, cwd=str(REPO_ROOT),
                            env=subprocess_env(),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        banner = proc.stdout.readline()
        assert "2 workers" in banner, banner
        results = Path(cache_dir) / "results"
        deadline = time.monotonic() + 60
        workers = set()
        while not any(results.rglob("*.json")):
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "no checkpoint within 60s"
            workers |= _children(proc.pid)
            time.sleep(0.02)
        workers |= _children(proc.pid)
        assert workers, "the sweep started no worker processes"
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 5, (proc.returncode, stdout, stderr)
        assert "checkpointed" in stderr
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    # No worker outlives its sweep.
    deadline = time.monotonic() + 5
    while any(_running(pid) for pid in workers) \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_running(pid) for pid in workers), workers

    rerun = subprocess.run(command, cwd=str(REPO_ROOT),
                           env=subprocess_env(), capture_output=True,
                           text=True, timeout=300)
    assert rerun.returncode == 0, (rerun.returncode, rerun.stdout,
                                   rerun.stderr)
    hits = [line for line in rerun.stdout.splitlines()
            if line.startswith("cache")]
    assert hits, rerun.stdout
    assert "0/12 hits" not in hits[0], hits[0]
