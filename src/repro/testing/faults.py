"""Seeded, file-based fault injection for every front end.

A :class:`FaultPlan` maps scenario labels to :class:`Fault` actions.  A
plan is a property of the *cells*, not of the front end: tests write it
to a file (:meth:`FaultPlan.to_file`) and name the path in the
``REPRO_FAULTS`` environment variable, which the supervised workers
(``serve`` and ``sweep --workers N``), ``coordinate --spawn`` children
and ``repro worker`` processes all inherit.  One file with
``crash_worker`` on label X means "the worker executing X dies" under
every front end:

* inside a supervised worker, :meth:`FaultPlan.inject` applies the
  :data:`CELL_KINDS` for the first ``fault.times`` attempts of a cell —
  crash the process, hang, answer late, raise, corrupt the case text,
  replace the cell's budget with an instantly-exhausted one or make its
  cache writes fail;
* in a fabric worker, :meth:`FaultPlan.unit_fault` picks the
  :data:`LEASE_KINDS` fault to apply once per leased unit, before its
  first heartbeat;
* ``drop_connection`` and ``coordinator_kill`` are front-end hooks
  (:meth:`FaultPlan.should_drop_connection` in the acceptor,
  :meth:`FaultPlan.should_kill_coordinator` after a journaled commit).

Determinism: plans are frozen values built either explicitly
(:meth:`FaultPlan.single`) or from a seed (:meth:`FaultPlan.seeded`),
and attempt counting survives process boundaries via per-label marker
files under ``state_dir`` (one byte appended per attempt; ``O_APPEND``
keeps concurrent workers consistent).  The same plan therefore injects
the same faults on every run.

Cache-side faults for in-process runs: :class:`FlakyResultCache` fails
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

import dataclasses
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.runner.cache import ResultCache

#: the environment variable naming the active plan file.
ENV_VAR = "REPRO_FAULTS"

#: fault kinds.
CRASH_WORKER = "crash_worker"       # os._exit: the worker process dies
HANG_WORKER = "hang_worker"         # sleep past the task timeout
SLOW_RESPONSE = "slow_response"     # worker answers late but correctly
RAISE_ERROR = "raise_error"         # deterministic in-task exception
CORRUPT_CASE = "corrupt_case"       # unparsable case text reaches the task
EXHAUST_BUDGET = "exhaust_budget"   # instantly-exhausted solver budget
FAIL_CACHE_WRITE = "fail_cache_write"  # injected ENOSPC on cache writes
STRAGGLER = "straggler"             # unit held idle: speculation target
PARTITION = "partition"             # heartbeats suppressed; work goes on
LEASE_LOSS = "lease_loss"           # unit silently abandoned, no commit
DROP_CONNECTION = "drop_connection"  # acceptor closes mid-response
COORDINATOR_KILL = "coordinator_kill"  # coordinator dies post-commit

#: kinds :meth:`FaultPlan.inject` applies inside a supervised worker;
#: every other kind is inert there.
CELL_KINDS = (CRASH_WORKER, HANG_WORKER, SLOW_RESPONSE, FAIL_CACHE_WRITE,
              RAISE_ERROR, CORRUPT_CASE, EXHAUST_BUDGET)

#: kinds the fabric worker applies once per leased unit, before its
#: first heartbeat: crash/hang as in a supervised worker, ``straggler``
#: stalls the unit with heartbeats running (only speculative
#: re-dispatch finishes it on time), ``partition`` suppresses
#: heartbeats while computing normally, ``lease_loss`` abandons the
#: unit without committing.
LEASE_KINDS = (CRASH_WORKER, HANG_WORKER, STRAGGLER, PARTITION,
               LEASE_LOSS)

_KINDS = frozenset(CELL_KINDS + LEASE_KINDS
                   + (DROP_CONNECTION, COORDINATOR_KILL))

#: kinds a seeded plan draws from by default.  CRASH_WORKER is
#: excluded: under the supervisor's thread fallback it would kill the
#: host process.
WORKER_KINDS = (HANG_WORKER, RAISE_ERROR, CORRUPT_CASE, EXHAUST_BUDGET)

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
    (and restarted ones — the whole point of a file-based plan)
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
        if self.kind not in _KINDS:
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
    """Frozen fault plan for the chaos suites of every front end.

    A plan crosses *process* boundaries by file: tests write it with
    :meth:`to_file` and name the path in ``REPRO_FAULTS``; workers, the
    acceptor and the coordinator re-read it (:meth:`load`) per cell,
    request or commit.  Attempt counting lives in a marker-file ledger,
    so a fault scheduled for the first N attempts of a label stays
    exhausted across worker restarts — exactly what "crash once, then
    succeed on retry" scenarios need.  Each hook counts on its own
    channel, so one plan file can drive a supervised sweep and a fabric
    run in turn.
    """

    state_dir: str
    faults: Tuple[Tuple[str, Fault], ...] = ()

    @classmethod
    def build(cls, state_dir, faults: Dict[str, Fault]) -> "FaultPlan":
        return cls(state_dir=str(state_dir),
                   faults=tuple(sorted(faults.items())))

    @classmethod
    def single(cls, state_dir, label: str, fault: Fault) -> "FaultPlan":
        return cls.build(state_dir, {label: fault})

    @classmethod
    def seeded(cls, state_dir, labels: Iterable[str], seed: int,
               rate: float = 0.5,
               kinds: Sequence[str] = WORKER_KINDS) -> "FaultPlan":
        """Deterministically fault a ``rate`` fraction of *labels*."""
        rng = random.Random(seed)
        faults = {}
        for label in labels:
            if rng.random() < rate:
                faults[label] = Fault(rng.choice(list(kinds)), times=1,
                                      sleep_seconds=0.5)
        return cls.build(state_dir, faults)

    # -- file round-trip (crosses process boundaries) ------------------

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
    def from_file(cls, path) -> "FaultPlan":
        payload = json.loads(Path(path).read_text())
        return cls(
            state_dir=payload["state_dir"],
            faults=tuple((label, Fault.from_dict(fault))
                         for label, fault in payload["faults"]))

    @classmethod
    def load(cls) -> Optional["FaultPlan"]:
        """The plan ``REPRO_FAULTS`` names; None when it is unset or
        the file is unreadable (a chaos hook never breaks real work)."""
        path = os.environ.get(ENV_VAR)
        if not path:
            return None
        try:
            return cls.from_file(path)
        except (OSError, ValueError, KeyError):
            return None

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

    def inject(self, spec, limits: Optional[Dict[str, Any]], cache):
        """Apply the plan's :data:`CELL_KINDS` fault to one cell.

        Returns the ``(spec, budget limits, cache)`` the cell runs with;
        a firing ``crash_worker`` never returns, ``raise_error`` raises
        :class:`InjectedFault`.
        """
        label = spec.label
        fault = self.fault_for(label, CELL_KINDS)
        if fault is None:
            return spec, limits, cache
        if fault.kind == FAIL_CACHE_WRITE:
            # Counted per write, not per cell: see PlannedFlakyCache.
            if cache is not None:
                cache = PlannedFlakyCache(cache.root, self, label,
                                          fault.times)
            return spec, limits, cache
        if not self.should_fire(label, fault):
            return spec, limits, cache
        if fault.kind == CRASH_WORKER:
            # A hard death (no exception, no cleanup) — what an OOM kill
            # or a native-library segfault looks like to the supervisor.
            os._exit(23)
        elif fault.kind == RAISE_ERROR:
            raise InjectedFault(f"injected failure for {label}")
        elif fault.kind == CORRUPT_CASE:
            spec = dataclasses.replace(spec, case_text=_GARBAGE_CASE)
        elif fault.kind == EXHAUST_BUDGET:
            limits = dict(_EXHAUSTED_BUDGET)
        else:
            time.sleep(fault.sleep_seconds)     # hang or slow-response
        return spec, limits, cache

    def unit_fault(self, labels: Sequence[str]) -> Optional[Fault]:
        """The :data:`LEASE_KINDS` fault to apply to a leased unit.

        Checks each scenario label in the unit against the plan; the
        first matching fault whose attempt budget is not yet exhausted
        is recorded (marker-file ledger, so re-dispatched copies of the
        unit see it already spent) and returned.
        """
        for label in labels:
            fault = self.fault_for(label, LEASE_KINDS)
            if fault is not None \
                    and self.should_fire(label, fault, channel="#unit"):
                return fault
        return None

    def should_drop_connection(self, label: str) -> bool:
        """Acceptor-side: sever this response's socket?"""
        fault = self.fault_for(label, (DROP_CONNECTION,))
        return fault is not None \
            and self.should_fire(label, fault, channel="#drop")

    def should_kill_coordinator(self, labels: Sequence[str]) -> bool:
        """Coordinator-side: die right after journaling this commit?"""
        for label in labels:
            fault = self.fault_for(label, (COORDINATOR_KILL,))
            if fault is not None \
                    and self.should_fire(label, fault, channel="#ckill"):
                return True
        return False


class PlannedFlakyCache(ResultCache):
    """A cache whose first N writes for a label fail with ENOSPC.

    Attempt counting lives in the plan's marker-file ledger, so the
    injected failures stay deterministic across worker restarts and
    across the retry loop inside :meth:`ResultCache.try_put`.
    """

    def __init__(self, root, plan: FaultPlan, label: str,
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
