"""The four workloads, as run inside the benchmark's measuring process.

Each workload has an untimed ``setup`` (imports, case loading, input
generation; for ``serve-2c`` also the service boot to ``/readyz``), a
``run_pass`` that submits every cell or request once and times it, and a
``close`` that releases what setup opened.  ``run_pass`` returns the
pass's end-to-end metrics, the outcome of every query, and the layer
counters the program returns with those outcomes.
"""

from __future__ import annotations

import contextlib
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import cells as cellmod
from perfbench import layers
from perfbench.stats import percentile
from perfbench.tracing import Tracer


@dataclass
class PassResult:
    metrics: Dict[str, float]
    #: (query id, cell, outcome dict or None) for the reference check.
    outcomes: List[Tuple[str, cellmod.Cell, Optional[Dict[str, Any]]]]
    #: layer metrics read off outcomes, ``/stats`` and task timings.
    layers: Dict[str, float] = field(default_factory=dict)
    #: sample counts behind percentile metrics.
    counts: Dict[str, Any] = field(default_factory=dict)
    #: query id -> a problem the reference check cannot see (a rerun
    #: that missed the cache).
    problems: Dict[str, str] = field(default_factory=dict)
    #: processes/threads/connections the pass was seen to use.
    observed: Dict[str, int] = field(default_factory=dict)


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None \
        else contextlib.nullcontext()


def _error(exc: BaseException) -> Dict[str, Any]:
    return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


def prepare_opf(case_name: str):
    """A Fig. 5(a) input: the base grid, its loads, topology and optimum."""
    from repro.grid.cases import get_case
    from repro.opf import solve_dc_opf
    grid = get_case(case_name).build_grid()
    loads = {bus: load.existing for bus, load in grid.loads.items()}
    topology = [line.index for line in grid.lines if line.in_service]
    optimum = solve_dc_opf(grid, method="highs").require_feasible().cost
    return grid, topology, loads, optimum


def run_cell(cell: cellmod.Cell, opf_inputs: Dict[str, Any]
             ) -> Dict[str, Any]:
    """One query, serially in this process; never raises."""
    try:
        if cell.opf_check is not None:
            return _opf_check(cell, opf_inputs)
        from repro.runner import ScenarioSpec
        from repro.runner.engine import execute_scenario
        spec = ScenarioSpec.build(**cell.spec)
        return execute_scenario(spec, "", self_check=cell.certify).to_dict()
    except Exception as exc:  # a failed query, not a failed benchmark
        return _error(exc)


def _opf_check(cell: cellmod.Cell, opf_inputs) -> Dict[str, Any]:
    """``OpfModelEncoding.check`` at optimum x factor, certified."""
    from repro.core.encoding import OpfModelEncoding
    from repro.exceptions import CertificateError
    from repro.smt.certificates import verify_sat, verify_unsat
    case, factor = cell.opf_check
    grid, topology, loads, optimum = opf_inputs[case]
    encoding = OpfModelEncoding(grid, topology, loads, certify=cell.certify)
    satisfiable = encoding.check(optimum * factor)
    certified = None
    if cell.certify:
        try:
            (verify_sat if satisfiable else verify_unsat)(encoding.solver)
        except CertificateError as exc:
            return {"status": "certificate_error", "error": str(exc),
                    "certified": False}
        certified = True
    return {"status": "ok", "satisfiable": satisfiable,
            "certified": certified}


class Workload:
    name = ""

    def __init__(self, cells: List[cellmod.Cell], scratch: Path) -> None:
        self.cells = cells
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run one small query nobody times, so that the program's lazy
        set-up (deferred imports such as the LP solver's) is paid in
        set-up, not in the first timed pass; pool workers forked later
        inherit it."""
        cell = cellmod.WARMUP.get(self.name)
        if cell is not None:
            run_cell(cell, {})

    def run_pass(self, rep: int, tracer: Optional[Tracer]) -> PassResult:
        raise NotImplementedError

    def close(self) -> List[Tuple[str, str]]:
        """Release set-up resources; returns any failures doing so."""
        return []


class InProcess(Workload):
    """``exact`` and ``fast``: serial, in-process, one cell at a time."""

    def setup(self) -> None:
        from repro.grid.cases import get_case
        from repro.runner import ScenarioSpec
        from repro.runner.engine import execute_scenario  # noqa: F401
        for cell in self.cells:
            if cell.spec is not None:
                get_case(cell.spec["case"])
                ScenarioSpec.build(**cell.spec)
        self.opf_inputs = {cell.opf_check[0]: prepare_opf(cell.opf_check[0])
                           for cell in self.cells if cell.opf_check}
        self.warm_up()

    def run_pass(self, rep: int, tracer: Optional[Tracer]) -> PassResult:
        outcomes = []
        latency: Dict[str, float] = {}
        started = time.perf_counter()
        for cell in self.cells:
            begun = time.perf_counter()
            with _span(tracer, "bench.cell"):
                outcome = run_cell(cell, self.opf_inputs)
            latency[cell.id] = time.perf_counter() - begun
            outcomes.append((cell.id, cell, outcome))
        wall = time.perf_counter() - started
        metrics = {
            "wall_s": wall,
            "decision_s": sum(latency[c.id] for c in self.cells
                              if not c.is_maximize),
        }
        if any(c.is_maximize for c in self.cells):
            metrics["maximize_s"] = sum(latency[c.id] for c in self.cells
                                        if c.is_maximize)
        return PassResult(metrics, outcomes, layers.from_outcomes(
            [o for _, _, o in outcomes if "trace" in o]))


class Sweep(Workload):
    """``sweep-2w``: the grid through ``SweepEngine(workers=2)``, twice."""

    workers = 2

    def setup(self) -> None:
        from repro.grid.cases import get_case
        from repro.runner import ScenarioSpec, SweepConfig, SweepEngine  # noqa
        for case in cellmod.SWEEP_CASES:
            get_case(case)
        self.specs = [ScenarioSpec.build(**cell.spec) for cell in self.cells]
        self.warm_up()

    def run_pass(self, rep: int, tracer: Optional[Tracer]) -> PassResult:
        from repro.runner import SweepConfig, SweepEngine
        cache_dir = self.scratch / f"sweep-cache-{rep}"
        engine = SweepEngine(SweepConfig(
            workers=self.workers, cache_dir=str(cache_dir), use_cache=True,
            self_check=False))
        started = time.perf_counter()
        with _span(tracer, "bench.pass"):
            first = engine.run(self.specs)
        wall = time.perf_counter() - started
        started = time.perf_counter()
        with _span(tracer, "bench.rerun"):
            second = engine.run(self.specs)
        rerun = time.perf_counter() - started

        computed = [o.to_dict() for o in first.outcomes]
        served = [o.to_dict() for o in second.outcomes]
        outcomes = [(c.id, c, o) for c, o in zip(self.cells, computed)]
        outcomes += [(c.id + "#rerun", c, o)
                     for c, o in zip(self.cells, served)]
        problems = {c.id + "#rerun": "expected a cache hit on the rerun"
                    for c, o in zip(self.cells, served)
                    if not o["cache_hit"]}
        busy = sum(o["task_seconds"] for o in computed)
        hits = sum(o["cache_hit"] for o in served)
        written = sum(p.stat().st_size for p in cache_dir.rglob("*")
                      if p.is_file())
        layer = layers.from_outcomes(computed, set(range(len(computed))),
                                     worker_side=True)
        layer.update({
            "runner.engine.busy_s": busy,
            "runner.engine.busy_ratio": busy / (self.workers * wall),
            "runner.engine.idle_s": self.workers * wall - busy,
            "runner.engine.attempts": sum(o["attempts"] for o in computed),
            "runner.cache.hit_ratio": hits / len(served),
            "runner.cache.bytes_written": written,
            "runner.cache.rejected": first.cache_rejected
            + second.cache_rejected,
        })
        pids = {o["worker_pid"] for o in computed}
        return PassResult(
            {"wall_s": wall, "decision_s": busy, "rerun_s": rerun},
            outcomes, layer, problems=problems,
            observed={"worker_processes": len(pids - {os.getpid()})})


class Serve(Workload):
    """``serve-2c``: ``repro serve --workers 2`` and two closed-loop clients."""

    workers = 2
    clients = 2

    def setup(self) -> None:
        from repro.service import ServiceClient
        log_path = self.scratch / "serve.log"
        self.log = open(log_path, "w")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                        env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", str(self.workers),
             "--cache-dir", str(self.scratch / "serve-cache")],
            stdout=self.log, stderr=subprocess.STDOUT, cwd=self.scratch,
            env=env)
        deadline = time.monotonic() + 60
        url = None
        while url is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not start: "
                                   + log_path.read_text()[-500:])
            match = re.search(r"listening on (http://\S+)",
                              log_path.read_text())
            url = match.group(1) if match else None
            if url is None:
                time.sleep(0.01)
        self.url = url
        ServiceClient(url).wait_ready(60)

    def _payload(self, cell: cellmod.Cell, rep: int) -> Dict[str, Any]:
        spec = dict(cell.spec)
        # Fresh sample seeds on every pass keep each request a cache miss.
        spec["sample_seed"] += rep * cellmod.SERVE_REQUESTS
        return spec

    def run_pass(self, rep: int, tracer: Optional[Tracer]) -> PassResult:
        import random

        from repro.service import ServiceClient
        lock = threading.Lock()
        queue = list(enumerate(self.cells))[::-1]
        replies: Dict[int, Tuple[float, Optional[Dict[str, Any]], str]] = {}
        in_flight = [0, 0]              # now, peak

        def client_loop(number: int) -> None:
            client = ServiceClient(self.url, retries=2,
                                   rng=random.Random(number))
            while True:
                with lock:
                    if not queue:
                        return
                    index, cell = queue.pop()
                    in_flight[0] += 1
                    in_flight[1] = max(in_flight[1], in_flight[0])
                call = client.maximize if cell.is_maximize \
                    else client.analyze
                options = {"self_check": True} if cell.certify else {}
                begun = time.perf_counter()
                try:
                    body, error = call(self._payload(cell, rep),
                                       **options), ""
                except Exception as exc:  # a failed request, not a crash
                    body, error = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - begun
                with lock:
                    in_flight[0] -= 1
                    replies[index] = (elapsed, body, error)

        control = ServiceClient(self.url)
        before = control.stats()
        threads = [threading.Thread(target=client_loop, args=(n,))
                   for n in range(self.clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        after = control.stats()

        outcomes = []
        decision, maximize, waits, worker_s = [], [], [], 0.0
        for index, cell in enumerate(self.cells):
            elapsed, body, error = replies[index]
            outcome = body.get("outcome") if body else None
            if outcome is None:
                outcome = {"status": "error", "error": error or "no outcome"}
            outcomes.append((cell.id, cell, outcome))
            if outcome["status"] == "error":
                continue
            (maximize if cell.is_maximize else decision).append(elapsed)
            waits.append(elapsed - outcome.get("task_seconds", 0.0))
            worker_s += outcome.get("task_seconds", 0.0)
        metrics = {"wall_s": wall, "decision_s": sum(decision),
                   "maximize_s": sum(maximize)}
        counts = {}
        for name, sample, q in (("decision_p50_s", decision, 50),
                                ("decision_p90_s", decision, 90),
                                ("maximize_p50_s", maximize, 50)):
            if sample:
                point = percentile(sample, q)
                metrics[name] = point.value
                counts[name] = {"samples": point.samples,
                                "beyond": point.beyond}

        def delta(*path):
            old, new = before, after
            for key in path:
                old, new = old.get(key, 0), new.get(key, 0)
            return new - old

        hits = delta("totals", "session_hits")
        misses = delta("totals", "session_misses")
        fast_ids = {i for i, (_, cell, _) in enumerate(outcomes)
                    if cell.spec["case"] == cellmod.SERVE_FAST_CASE}
        layer = layers.from_outcomes([o for _, _, o in outcomes], fast_ids,
                                     worker_side=True)
        layer.update({
            "service.queue_wait_p50_s": statistics.median(waits)
            if waits else 0.0,
            "service.worker_s": worker_s,
            "service.warm_hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "service.retried": delta("counters", "retried"),
            "service.shed": delta("counters", "shed"),
        })
        return PassResult(metrics, outcomes, layer, counts,
                          observed={"worker_processes": len(after["workers"]),
                                    "client_threads": len(threads),
                                    "connections": in_flight[1]})

    def close(self) -> List[Tuple[str, str]]:
        """Drain with SIGTERM; anything but a clean exit 0 is a failure."""
        proc = getattr(self, "proc", None)
        if proc is None:
            return []
        problems = []
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            problems.append(("serve/drain", "did not exit within 60 s of "
                                            "SIGTERM"))
        else:
            if code != 0:
                problems.append(("serve/drain", f"exit code {code}"))
        finally:
            self.log.close()
        return problems

    def kill(self) -> None:
        """Stop the service without draining (the benchmark failed)."""
        proc = getattr(self, "proc", None)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()


KINDS = {"exact": InProcess, "fast": InProcess, "sweep-2w": Sweep,
         "serve-2c": Serve}


def make(workload: str, seed: int, scratch: Path) -> Workload:
    made = KINDS[workload](cellmod.cells_for(workload, seed), scratch)
    made.name = workload
    return made
