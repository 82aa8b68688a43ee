"""Seeded, picklable fault injection for the sweep engine.

The harness wraps the engine's real worker entry point: a
:class:`FaultPlan` maps scenario labels to :class:`Fault` actions, and
:meth:`FaultPlan.task` yields a module-level partial that the engine can
ship to worker processes.  Before delegating to the real worker, the
wrapper consults the plan and — for the first ``fault.times`` attempts of
a faulted scenario — crashes the process, hangs, raises, corrupts the
case text, or replaces the task budget with an instantly-exhausted one.

Determinism: plans are frozen values built either explicitly
(:meth:`FaultPlan.single`) or from a seed (:meth:`FaultPlan.seeded`), and
attempt counting survives process boundaries via per-label marker files
under ``state_dir`` (one byte appended per attempt; ``O_APPEND`` keeps
concurrent workers consistent).  The same plan therefore injects the same
faults on every run.

Cache-side faults do not live in workers: :class:`FlakyResultCache` fails
its first N writes with ``ENOSPC`` and :func:`corrupt_cached_outcome`
mangles an entry in place, exercising the engine's degraded paths.

Certificate-corruption faults target certified solving
(:mod:`repro.smt.certificates`): :func:`tamper_model` bit-flips one
assignment of a satisfying model, :func:`truncate_proof` and
:func:`corrupt_proof` damage an UNSAT certificate, and
:func:`write_stale_cache_entry` plants a *structurally valid but
semantically wrong* cached outcome — the kind only the engine's
load-time re-verification can catch.  The chaos suite proves each of
these is surfaced as a certificate error (or recomputed), never silently
accepted as sat/unsat.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runner.cache import ResultCache

#: fault kinds.
CRASH_WORKER = "crash_worker"       # os._exit: the pool sees a dead worker
HANG_WORKER = "hang_worker"         # sleep past the task timeout
RAISE_ERROR = "raise_error"         # deterministic in-task exception
CORRUPT_CASE = "corrupt_case"       # unparsable case text reaches the task
EXHAUST_BUDGET = "exhaust_budget"   # instantly-exhausted solver budget
FAIL_CACHE_WRITE = "fail_cache_write"  # injected ENOSPC on cache writes
#: service-level kinds (the analysis daemon's chaos suite):
SLOW_RESPONSE = "slow_response"     # worker answers late but correctly
DROP_CONNECTION = "drop_connection"  # acceptor closes mid-response
#: fabric-level kinds (the distributed sweep's chaos suite):
STRAGGLER = "straggler"             # unit held idle: speculation target
PARTITION = "partition"             # heartbeats suppressed; work goes on
LEASE_LOSS = "lease_loss"           # unit silently abandoned, no commit
COORDINATOR_KILL = "coordinator_kill"  # coordinator dies post-commit

#: kinds a worker-side plan can apply.  CRASH_WORKER is excluded from
#: seeded defaults: in serial mode it would kill the host process.
WORKER_KINDS = (HANG_WORKER, RAISE_ERROR, CORRUPT_CASE, EXHAUST_BUDGET)

#: kinds a :class:`ServiceFaultPlan` can apply — crash/hang target the
#: service's worker processes, slow-response delays an answer without
#: corrupting it, drop-connection severs the client's socket (the
#: client must retry), and fail-cache-write injects ENOSPC into the
#: worker's checkpoint writes (the bounded retry must absorb it).
SERVICE_KINDS = (CRASH_WORKER, HANG_WORKER, SLOW_RESPONSE,
                 DROP_CONNECTION, FAIL_CACHE_WRITE)

#: kinds a :class:`FabricFaultPlan` can apply — crash/hang target a
#: fabric worker mid-unit, ``straggler`` holds a leased unit idle long
#: enough to trigger speculative re-dispatch, ``partition`` suppresses
#: heartbeats (the lease expires while the work continues),
#: ``lease_loss`` abandons the unit without committing, and
#: ``coordinator_kill`` makes the *coordinator* die right after
#: journaling a commit (the resume path's worst case).
FABRIC_KINDS = (CRASH_WORKER, HANG_WORKER, STRAGGLER, PARTITION,
                LEASE_LOSS, COORDINATOR_KILL)

_EXHAUSTED_BUDGET = {"wall_seconds": 0.0, "max_conflicts": 1,
                     "max_decisions": 1, "max_pivots": 1,
                     "check_interval": 1}

_GARBAGE_CASE = "this is not a case file {{{\n"


class InjectedFault(RuntimeError):
    """Raised by RAISE_ERROR faults (distinguishable from real bugs)."""


def _attempt_marker(state_dir: str, label: str) -> Path:
    digest = hashlib.sha256(label.encode()).hexdigest()[:16]
    return Path(state_dir) / f"{digest}.attempts"


def _record_attempt(state_dir: str, label: str) -> int:
    """Count an attempt cross-process; returns the 1-based number.

    One byte appended per attempt; ``O_APPEND`` keeps concurrent workers
    (and restarted ones — the whole point for the service plans)
    consistent.
    """
    marker = _attempt_marker(state_dir, label)
    marker.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(marker, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        os.write(fd, b".")
    finally:
        os.close(fd)
    return marker.stat().st_size


def _count_attempts(state_dir: str, label: str) -> int:
    marker = _attempt_marker(state_dir, label)
    return marker.stat().st_size if marker.exists() else 0


@dataclass(frozen=True)
class Fault:
    """One fault action, applied on the first ``times`` attempts."""

    kind: str
    times: int = 1
    sleep_seconds: float = 0.5

    def __post_init__(self) -> None:
        known = (CRASH_WORKER, HANG_WORKER, RAISE_ERROR, CORRUPT_CASE,
                 EXHAUST_BUDGET, SLOW_RESPONSE, DROP_CONNECTION,
                 FAIL_CACHE_WRITE, STRAGGLER, PARTITION, LEASE_LOSS,
                 COORDINATOR_KILL)
        if self.kind not in known:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "times": self.times,
                "sleep_seconds": self.sleep_seconds}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Fault":
        return cls(kind=payload["kind"],
                   times=int(payload.get("times", 1)),
                   sleep_seconds=float(payload.get("sleep_seconds", 0.5)))


@dataclass(frozen=True)
class FaultPlan:
    """Frozen label -> fault mapping with cross-process attempt counts."""

    state_dir: str
    faults: Tuple[Tuple[str, Fault], ...] = ()

    # -- construction ----------------------------------------------------

    @classmethod
    def single(cls, state_dir, label: str, fault: Fault) -> "FaultPlan":
        return cls(state_dir=str(state_dir), faults=((label, fault),))

    @classmethod
    def seeded(cls, state_dir, labels: Iterable[str], seed: int,
               rate: float = 0.5,
               kinds: Sequence[str] = WORKER_KINDS) -> "FaultPlan":
        """Deterministically fault a ``rate`` fraction of *labels*."""
        rng = random.Random(seed)
        faults = []
        for label in labels:
            if rng.random() < rate:
                kind = rng.choice(list(kinds))
                faults.append((label, Fault(kind, times=1,
                                            sleep_seconds=0.5)))
        return cls(state_dir=str(state_dir), faults=tuple(faults))

    # -- plan queries ----------------------------------------------------

    def fault_for(self, label: str) -> Optional[Fault]:
        for name, fault in self.faults:
            if name == label:
                return fault
        return None

    def _marker(self, label: str) -> Path:
        return _attempt_marker(self.state_dir, label)

    def record_attempt(self, label: str) -> int:
        """Count this attempt; returns the 1-based attempt number."""
        return _record_attempt(self.state_dir, label)

    def attempts(self, label: str) -> int:
        return _count_attempts(self.state_dir, label)

    # -- engine integration ----------------------------------------------

    def task(self):
        """A picklable SweepEngine task wrapping the real worker."""
        return functools.partial(faulty_worker, self)


def apply_fault(fault: Fault, payload: Dict[str, Any],
                position: int = 0) -> None:
    """Mutate the unit *payload* (its cell at *position*) or the
    process according to *fault*.

    ``EXHAUST_BUDGET`` replaces the budget of the whole unit; the engine
    hands injected tasks one-cell units, so that is the faulted cell's.
    """
    if fault.kind == CRASH_WORKER:
        # A hard death (no exception, no cleanup) — what an OOM kill or a
        # native-library segfault looks like to the pool.
        os._exit(23)
    elif fault.kind == HANG_WORKER:
        time.sleep(fault.sleep_seconds)
    elif fault.kind == RAISE_ERROR:
        label = payload["specs"][position].get("label", "?")
        raise InjectedFault(f"injected failure for {label}")
    elif fault.kind == CORRUPT_CASE:
        specs = list(payload["specs"])
        specs[position] = dict(specs[position], case_text=_GARBAGE_CASE)
        payload["specs"] = specs
    elif fault.kind == EXHAUST_BUDGET:
        payload["budget"] = dict(_EXHAUSTED_BUDGET)


def faulty_worker(plan: FaultPlan,
                  payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Module-level (picklable) worker: maybe fault, then run for real."""
    from repro.runner.engine import _group_worker_entry
    for position, spec in enumerate(payload["specs"]):
        label = spec.get("label", "")
        attempt = plan.record_attempt(label)
        fault = plan.fault_for(label)
        if fault is not None and attempt <= fault.times:
            apply_fault(fault, payload, position)
    return _group_worker_entry(payload)


@dataclass(frozen=True)
class ServiceFaultPlan:
    """Frozen fault plan for the analysis service's chaos suite.

    Unlike :class:`FaultPlan` (which wraps the sweep engine's picklable
    task), a service plan crosses *process* boundaries by file: tests
    write it with :meth:`to_file` and hand the path to the server via
    ``ServiceConfig.fault_plan`` (or the ``REPRO_SERVICE_FAULTS``
    environment variable); workers and the acceptor re-read it per
    request.  Attempt counting shares the sweep harness's marker-file
    ledger, so a fault scheduled for the first N attempts of a label
    stays exhausted across worker restarts — exactly what "crash once,
    then succeed on retry" scenarios need.

    Worker-side kinds: ``crash_worker`` (``os._exit`` mid-request),
    ``hang_worker`` (sleep past the supervisor's hang deadline),
    ``slow_response`` (sleep, then answer correctly) and
    ``fail_cache_write`` (ENOSPC injected into checkpoint writes).
    Acceptor-side: ``drop_connection`` (the response socket is severed,
    so the client's retry loop must recover).
    """

    state_dir: str
    faults: Tuple[Tuple[str, Fault], ...] = ()

    #: kinds this plan class accepts; subclasses override.
    KINDS: Tuple[str, ...] = SERVICE_KINDS
    #: env var ``load`` falls back to; subclasses override.
    ENV_VAR: str = "REPRO_SERVICE_FAULTS"

    @classmethod
    def build(cls, state_dir,
              faults: Dict[str, Fault]) -> "ServiceFaultPlan":
        for fault in faults.values():
            if fault.kind not in cls.KINDS:
                raise ValueError(
                    f"{fault.kind!r} is not a {cls.__name__} kind")
        return cls(state_dir=str(state_dir),
                   faults=tuple(sorted(faults.items())))

    @classmethod
    def single(cls, state_dir, label: str,
               fault: Fault) -> "ServiceFaultPlan":
        return cls.build(state_dir, {label: fault})

    # -- file round-trip (crosses the daemon's process boundaries) -----

    def to_file(self, path) -> str:
        payload = {
            "state_dir": self.state_dir,
            "faults": [[label, fault.to_dict()]
                       for label, fault in self.faults],
        }
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload, indent=1))
        return str(target)

    @classmethod
    def from_file(cls, path) -> "ServiceFaultPlan":
        payload = json.loads(Path(path).read_text())
        return cls(
            state_dir=payload["state_dir"],
            faults=tuple((label, Fault.from_dict(fault))
                         for label, fault in payload["faults"]))

    @classmethod
    def load(cls, path: Optional[str]) -> Optional["ServiceFaultPlan"]:
        """``from_file`` with env-var fallback; None when unconfigured."""
        path = path or os.environ.get(cls.ENV_VAR)
        if not path:
            return None
        return cls.from_file(path)

    # -- queries and application ---------------------------------------

    def fault_for(self, label: str,
                  kinds: Optional[Sequence[str]] = None
                  ) -> Optional[Fault]:
        for name, fault in self.faults:
            if name == label and (kinds is None or fault.kind in kinds):
                return fault
        return None

    def attempts(self, label: str) -> int:
        return _count_attempts(self.state_dir, label)

    def should_fire(self, label: str, fault: Fault,
                    channel: str = "") -> bool:
        """Record one attempt on *label* (per channel) and decide."""
        attempt = _record_attempt(self.state_dir, label + channel)
        return attempt <= fault.times

    def apply_worker_fault(self, label: str) -> None:
        """Crash/hang/slow this worker per the plan (called per job)."""
        fault = self.fault_for(
            label, (CRASH_WORKER, HANG_WORKER, SLOW_RESPONSE))
        if fault is None or not self.should_fire(label, fault):
            return
        if fault.kind == CRASH_WORKER:
            os._exit(23)
        time.sleep(fault.sleep_seconds)     # hang or slow-response

    def wrap_cache(self, label: str, cache):
        """The job's cache, flaky per the plan (or unchanged)."""
        fault = self.fault_for(label, (FAIL_CACHE_WRITE,))
        if fault is None or cache is None:
            return cache
        return PlannedFlakyCache(cache.root, self, label, fault.times)

    def should_drop_connection(self, label: str) -> bool:
        """Acceptor-side: sever this response's socket?"""
        fault = self.fault_for(label, (DROP_CONNECTION,))
        return fault is not None \
            and self.should_fire(label, fault, channel="#drop")


class PlannedFlakyCache(ResultCache):
    """A cache whose first N writes for a label fail with ENOSPC.

    Attempt counting lives in the plan's marker-file ledger, so the
    injected failures stay deterministic across worker restarts and
    across the retry loop inside :meth:`ResultCache.try_put`.
    """

    def __init__(self, root, plan: ServiceFaultPlan, label: str,
                 fail_writes: int) -> None:
        super().__init__(root)
        self._plan = plan
        self._label = label
        self._fail_writes = fail_writes

    def put(self, fingerprint: str, outcome: Dict[str, Any]) -> None:
        attempt = _record_attempt(self._plan.state_dir,
                                  self._label + "#cachewrite")
        if attempt <= self._fail_writes:
            raise OSError(28, "No space left on device (injected)")
        super().put(fingerprint, outcome)


@dataclass(frozen=True)
class FabricFaultPlan(ServiceFaultPlan):
    """Frozen fault plan for the distributed sweep fabric's chaos suite.

    Crosses process boundaries the same way :class:`ServiceFaultPlan`
    does (``to_file`` + the ``REPRO_FABRIC_FAULTS`` environment
    variable), but its kinds target the *fabric* failure model: a fault
    is keyed by scenario label and fires when a worker leases a unit
    containing that label (or, for ``coordinator_kill``, when the
    coordinator journals a commit for such a unit).

    Worker-side kinds — the worker loop interprets them:

    * ``crash_worker`` — ``os._exit`` mid-unit, before any commit;
    * ``hang_worker`` — sleep past the lease TTL with heartbeats
      stopped, then resume (the late commit must be a duplicate);
    * ``straggler`` — keep heartbeating but stall the computation, so
      only *speculative re-dispatch* can finish the unit on time;
    * ``partition`` — suppress heartbeats while computing normally (the
      coordinator expires the lease; the eventual commit races the
      re-dispatched copy — first one wins);
    * ``lease_loss`` — silently abandon the unit: no commit, no error,
      recovery rides entirely on lease expiry.

    Coordinator-side: ``coordinator_kill`` — ``os._exit(5)`` right
    after journaling the commit of a unit containing the label, the
    resume path's worst case (the commit is durable, the in-memory
    queue is gone).
    """

    KINDS: Tuple[str, ...] = FABRIC_KINDS
    ENV_VAR: str = "REPRO_FABRIC_FAULTS"

    #: kinds the worker loop applies when it leases a unit.
    WORKER_SIDE = (CRASH_WORKER, HANG_WORKER, STRAGGLER, PARTITION,
                   LEASE_LOSS)

    def unit_fault(self, labels: Sequence[str]
                   ) -> Optional[Tuple[str, Fault]]:
        """The worker-side fault to apply to a unit, if any fires.

        Checks each scenario label in the unit against the plan; the
        first matching worker-side fault whose attempt budget is not
        yet exhausted is recorded (marker-file ledger, so re-dispatched
        copies of the unit see it already spent) and returned.
        """
        for label in labels:
            fault = self.fault_for(label, self.WORKER_SIDE)
            if fault is not None \
                    and self.should_fire(label, fault, channel="#unit"):
                return label, fault
        return None

    def should_kill_coordinator(self, labels: Sequence[str]) -> bool:
        """Coordinator-side: die right after journaling this commit?"""
        for label in labels:
            fault = self.fault_for(label, (COORDINATOR_KILL,))
            if fault is not None \
                    and self.should_fire(label, fault, channel="#ckill"):
                return True
        return False


def interrupting_worker(state_dir: str, limit: int,
                        payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Serial-mode worker that raises KeyboardInterrupt after *limit*
    completed units (simulating a user hitting Ctrl-C mid-sweep)."""
    from repro.runner.engine import _group_worker_entry
    marker = Path(state_dir) / "interrupt.count"
    marker.parent.mkdir(parents=True, exist_ok=True)
    done = marker.stat().st_size if marker.exists() else 0
    if done >= limit:
        raise KeyboardInterrupt
    result = _group_worker_entry(payload)
    with open(marker, "a") as handle:
        handle.write(".")
    return result


def interrupt_after(state_dir, limit: int):
    """A picklable task that completes *limit* units then interrupts."""
    return functools.partial(interrupting_worker, str(state_dir), limit)


class FlakyResultCache(ResultCache):
    """A result cache whose first ``fail_writes`` puts raise ENOSPC."""

    def __init__(self, root, fail_writes: int = 1) -> None:
        super().__init__(root)
        self.fail_writes = fail_writes
        self.write_attempts = 0

    def put(self, fingerprint: str, outcome: Dict[str, Any]) -> None:
        self.write_attempts += 1
        if self.write_attempts <= self.fail_writes:
            raise OSError(28, "No space left on device (injected)")
        super().put(fingerprint, outcome)


def corrupt_cached_outcome(cache: ResultCache, fingerprint: str,
                           field_name: str, value: Any) -> None:
    """Overwrite one field of a cached outcome in place (envelope stays
    valid JSON with the right version/fingerprint — only the outcome
    payload is malformed, exercising the validate-on-read path)."""
    path = cache._path(fingerprint)
    with open(path) as handle:
        envelope = json.load(handle)
    envelope["outcome"][field_name] = value
    with open(path, "w") as handle:
        json.dump(envelope, handle, indent=1)


# ---------------------------------------------------------------------------
# Certificate-corruption faults
# ---------------------------------------------------------------------------

def tamper_model(model, bool_var=None, real_var=None):
    """A copy of *model* with one assignment bit-flipped.

    Flips the named boolean variable (default: the first one in the
    model) or, when ``real_var`` is given, perturbs that real value by
    one — either way the result is a *plausible-looking* but wrong model
    that :func:`repro.smt.certificates.check_model` must reject.
    """
    from repro.smt.solver import Model
    bools = dict(model._bools)
    reals = dict(model._reals)
    if real_var is not None:
        reals[real_var] = reals[real_var] + 1
    else:
        if bool_var is None:
            if not bools:
                raise ValueError("model has no boolean variables to flip")
            bool_var = next(iter(bools))
        bools[bool_var] = not bools[bool_var]
    return Model(bools, reals)


def truncate_proof(certificate, drop: int = 1):
    """An UNSAT certificate missing its last *drop* proof steps — the
    refutation no longer closes, so the RUP check must fail."""
    from repro.smt.proof import UnsatCertificate
    return UnsatCertificate(certificate.proof,
                            max(0, certificate.num_steps - drop),
                            certificate.assumption_lits)


def corrupt_proof(certificate, step_index: Optional[int] = None):
    """An UNSAT certificate with one learned clause's literal rewritten.

    The first literal of a RUP step (the first one by default) is
    replaced with a literal over a *fresh* variable the proof has never
    seen.  Merely negating a literal can leave the clause derivable —
    once enough contradiction has accumulated, *any* clause is RUP — but
    a fresh variable has no occurrences to propagate over, so the
    tampered step can only pass if the preceding steps were already
    contradictory, which cannot happen in a verified prefix.
    """
    from repro.smt.proof import ProofLog, UnsatCertificate, RUP
    steps = list(certificate.steps)
    if step_index is None:
        candidates = [i for i, s in enumerate(steps) if s.kind == RUP
                      and s.lits]
        if not candidates:
            raise ValueError("certificate has no RUP step to corrupt")
        step_index = candidates[0]
    step = steps[step_index]
    if not step.lits:
        raise ValueError("cannot corrupt an empty clause")
    fresh = 1 + max((max(abs(l) for l in s.lits) for s in steps if s.lits),
                    default=0)
    tampered = (fresh,) + step.lits[1:]
    steps[step_index] = type(step)(step.kind, tampered, step.witness)
    log = ProofLog(steps)
    return UnsatCertificate(log, len(steps), certificate.assumption_lits)


def write_stale_cache_entry(cache: ResultCache, fingerprint: str,
                            outcome_payload: Dict[str, Any],
                            **mutations: Any) -> None:
    """Plant a *structurally valid* but semantically wrong cached entry.

    Unlike :func:`corrupt_cached_outcome` (which breaks the payload's
    shape), the mutated fields keep their types — e.g. a flipped
    ``satisfiable``, an inflated ``believed_min_cost`` or a cleared
    ``certified`` flag — so only the engine's semantic re-verification
    (:func:`repro.runner.engine.verify_cached_outcome`) can tell the
    entry is lying.
    """
    payload = json.loads(json.dumps(outcome_payload))   # deep copy
    payload.update(mutations)
    cache.put(fingerprint, payload)
