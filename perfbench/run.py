"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact --seed 0 --seconds 5 --trace 0

Workloads: ``exact``, ``fast``, ``sweep-2w``, ``serve-2c`` (``all`` runs
the four in turn).  The run prints a human-readable report and, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.

This process imports nothing from the program.  It times set-up as the
median of three fresh set-up-only processes, each from its start to its
``READY`` line, then starts the measuring process(es) and reports the
peak RSS over itself and every process it started.  Every file a run
writes goes to a fresh directory under ``.perfbench-run/`` in the
checkout, which is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.cells import CONCURRENCY, COPIES, WORKLOADS  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402

SETUP_SAMPLES = 3
#: a run must end within 180 s; the child gets what is left of this.
RUN_DEADLINE_S = 170.0
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "decision_s": "s",
             "maximize_s": "s", "rerun_s": "s", "decision_p50_s": "s",
             "decision_p90_s": "s", "maximize_p50_s": "s",
             "peak_rss_mb": "MB", "failed_ratio": "ratio"}


class RunFailed(Exception):
    pass


def child_env(scratch: Path) -> dict:
    """The environment of every process the benchmark starts.

    ``REPRO_*`` overrides are dropped so the program runs its defaults,
    hash seeds are fixed, and temporary files land in the run directory.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env.update(PYTHONHASHSEED="0", TMPDIR=str(tmp))
    return env


class Child:
    """One benchmark process, timed from its start to its READY line.

    A watchdog kills the process group (the child, a service it booted,
    pool workers) when the run's deadline passes.
    """

    def __init__(self, args, scratch: Path, deadline: float,
                 setup_only: bool) -> None:
        command = [sys.executable, str(HERE / "child.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--scratch", str(scratch)]
        if setup_only:
            command.append("--setup-only")
        scratch.mkdir(parents=True)
        env = child_env(scratch)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, cwd=scratch, env=env,
            text=True, start_new_session=True)
        self.expired = False
        self.watchdog = threading.Timer(
            max(0.0, deadline - time.perf_counter()), self._expire)
        self.watchdog.start()

    def _expire(self) -> None:
        self.expired = True
        kill_group(self.proc.pid)

    def wait_ready(self) -> float:
        """Seconds from the process start to its READY line."""
        for line in self.proc.stdout:
            if line.strip() == "READY":
                return time.perf_counter() - self.started
        self._check_exit()
        raise RunFailed("the benchmark process exited before finishing "
                        "set-up")

    def finish(self) -> list:
        """The lines printed after READY, once the process exited cleanly."""
        lines = [line for line in self.proc.stdout.read().splitlines()
                 if line.strip()]
        self._check_exit()
        return lines

    def _check_exit(self) -> None:
        code = self.proc.wait()
        if self.expired:
            raise RunFailed(f"the run exceeded {RUN_DEADLINE_S:.0f} s")
        if code != 0:
            raise RunFailed(f"a benchmark process exited with code {code}")

    def stop(self) -> None:
        """Stop every process of the group and wait until each has ended."""
        self.watchdog.cancel()
        kill_group(self.proc.pid)
        self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + 10.0
        while group_alive(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped descendant."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def git_commit() -> str:
    """The checked-out commit; "unknown" outside a git working tree (git
    would otherwise search the directories above the checkout)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(args, scratch: Path) -> dict:
    """Set-up samples, then the measuring process(es); returns the merged
    result (raises RunFailed on anything that voids the run)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups = []
    for index in range(SETUP_SAMPLES):
        child = Child(args, scratch / f"setup{index}", deadline, True)
        try:
            setups.append(child.wait_ready())
            child.finish()
        finally:
            child.stop()
    copies = 1 if args.trace else COPIES[args.workload]
    children = []
    try:
        for index in range(copies):
            children.append(Child(args, scratch / f"run{index}", deadline,
                                  False))
        results = []
        for child in children:
            child.wait_ready()
            lines = child.finish()
            if not lines:
                raise RunFailed("the benchmark process printed no result")
            results.append(json.loads(lines[-1]))
    finally:
        for child in children:
            child.stop()
    result = merge_copies(results)
    result["setup_samples"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["metrics"]["peak_rss_mb"] = peak_rss_mb()
    result["metrics"]["failed_ratio"] = \
        result["failed"] / result["attempted"] if result["attempted"] else 1.0
    return result


def merge_copies(results: list) -> dict:
    """One result from concurrent copies of the measuring process: each
    timing is the median over the copies, and every query of every copy
    counts towards attempted and failed."""
    merged = dict(results[0])
    merged["copies"] = len(results)
    merged["metrics"] = {name: statistics.median(r["metrics"][name]
                                                 for r in results)
                         for name in results[0]["metrics"]}
    for key in ("attempted", "failed", "references_computed"):
        merged[key] = sum(r[key] for r in results)
    merged["problems"] = [p for r in results for p in r["problems"]]
    return merged


def report(args, result: dict, spec: dict) -> dict:
    """Print the human-readable report; return the final JSON object."""
    env = result["environment"]
    print(f"perfbench {args.workload}  seed={args.seed}  "
          f"passes={result['passes']}  copies={result['copies']}  "
          f"nproc={env['nproc']}  "
          f"python={env['python']}  numpy={env['numpy']}  "
          f"scipy={env['scipy']}  commit={git_commit()}  "
          f"code={env['code_fingerprint']}")
    declared = CONCURRENCY[args.workload]
    print("concurrency: " + "  ".join(
        f"{k}={v} (seen {result['observed'].get(k, v)})"
        for k, v in declared.items()))
    print("end-to-end (untraced):")
    for name, value in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = "  median of " + ", ".join(
                f"{s:.3f}" for s in result["setup_samples"])
        if name in result.get("counts", {}):
            count = result["counts"][name]
            note = f"  n={count['samples']}, {count['beyond']} beyond"
        if name == "failed_ratio":
            note = f"  {result['failed']}/{result['attempted']}"
        print(f"  {name:<16} {value:12.4f} {E2E_UNITS.get(name, '')}{note}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    if result["references_computed"]:
        print(f"  ({result['references_computed']} reference answer(s) "
              f"computed in-process, outside the timed region)")
    if "layers" in result:
        print(f"per-layer (traced pass, wall {result['traced_wall_s']:.3f} s"
              f"; overhead {result['layers']['trace.overhead_s']:+.3f} s):")
        moves = {name: where for name, _, where in PER_LAYER}
        for item in spec["per_layer"]:
            name = item["name"]
            print(f"  {name:<32} {result['layers'][name]:14.4f} "
                  f"{item['unit']:<6} -> {moves.get(name, '')}")
        if result.get("span_table"):
            spans = result["layers"]["trace.spans"]
            print(f"  {spans:.0f} spans at {result['span_cost_s'] * 1e6:.2f}"
                  f" us each: about {spans * result['span_cost_s']:.3f} s of "
                  f"tracing cost (trace.overhead_s is that plus noise)")
            print("spans by self time (name, calls, self s):")
            for name, calls, own in result["span_table"]:
                print(f"  {name:<32} {calls:8d} {own:12.4f}")
    correct = result["failed"] == 0 and result["attempted"] > 0
    if args.trace:
        metrics = {item["name"]: {"value": result["layers"][item["name"]],
                                  "unit": item["unit"]}
                   for item in spec["per_layer"]}
    else:
        metrics = {item["name"]: {"value": result["metrics"][item["name"]],
                                  "unit": item["unit"]}
                   for item in spec["end_to_end"]}
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_one(args) -> int:
    nproc = len(os.sched_getaffinity(0))
    counts = dict(CONCURRENCY[args.workload], copies=COPIES[args.workload])
    over = {k: v for k, v in counts.items() if v > nproc}
    if over:
        print(f"refusing {args.workload}: {over} exceeds nproc={nproc}",
              file=sys.stderr)
        return 3
    spec = benchmark_spec()
    runs = ROOT / ".perfbench-run"
    scratch = runs / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        result = measure(args, scratch)
        final = report(args, result, spec)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            runs.rmdir()
        except OSError:
            pass
    print(json.dumps(final), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds through the cleanup that stops every process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program's sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args)
    # One fresh process per workload, so peak RSS is each workload's own.
    code = 0
    for name in WORKLOADS:
        code = max(code, subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
