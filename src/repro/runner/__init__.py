"""Parallel scenario-sweep engine with result caching and tracing.

* :mod:`repro.runner.spec` — declarative :class:`ScenarioSpec` with
  deterministic fingerprinting (case content + query + code version),
* :mod:`repro.runner.engine` — the execution kernel (grid planning, the
  :func:`~repro.runner.engine.run_unit` unit runner, the cache policy)
  and :class:`SweepEngine`, which runs units in-process or as jobs on
  the service :class:`~repro.service.supervisor.Supervisor` (per-task
  timeouts, retry of dead or hung workers, thread fallback),
* :mod:`repro.runner.cache` — the on-disk JSON result cache under
  ``.repro-cache/``,
* :mod:`repro.runner.trace` — per-scenario and per-sweep trace records
  (SMT statistics, OPF timings, cache hits).
"""

from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.engine import SweepConfig, SweepEngine, execute_scenario
from repro.runner.spec import ScenarioSpec, code_fingerprint
from repro.runner.trace import ScenarioOutcome, SweepTrace

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "ScenarioOutcome",
    "ScenarioSpec",
    "SweepConfig",
    "SweepEngine",
    "SweepTrace",
    "code_fingerprint",
    "execute_scenario",
]
