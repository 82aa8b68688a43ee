"""Deterministic fault injection for robustness testing.

:mod:`repro.testing.faults` provides file-based fault plans that make
the supervised workers (service and ``sweep --workers N``) crash, hang,
error, corrupt their inputs or exhaust their solver budgets on demand —
plus cache doubles whose writes fail or whose entries are corrupted,
and certificate-corruption helpers (tampered models, truncated/corrupted
UNSAT proofs, semantically stale cache entries) for certified-mode
testing.  The chaos suite (``tests/chaos/``) drives the sweep engine
through these to assert it always terminates with one outcome per
scenario and that corrupted certificates are never silently accepted.

:mod:`repro.testing.fuzz` complements the fault harness with seeded
*input* fuzzing: one mutator whose mutants either corrupt the case text
(against the preflight boundary) or make the case's numbers
ill-conditioned (near-singular B matrices, extreme admittance ratios,
near-redundant measurement sets).  Every mutant is a case text driven
through the parse → preflight → analyze path and checked by one
oracle: no uncaught exception, and on the fast analyzer no silent
disagreement between the float and the exact verdict paths
(``python -m repro fuzz``).
"""

from repro.testing.fuzz import (
    ESCAPE,
    CaseFuzzer,
    FuzzRecord,
    FuzzReport,
    Mutant,
    analyze_text,
    fuzz_bundled_case,
    run_fuzz,
)
from repro.testing.faults import (
    COORDINATOR_KILL,
    CRASH_WORKER,
    CORRUPT_CASE,
    DROP_CONNECTION,
    EXHAUST_BUDGET,
    FABRIC_KINDS,
    FAIL_CACHE_WRITE,
    HANG_WORKER,
    LEASE_LOSS,
    PARTITION,
    RAISE_ERROR,
    SERVICE_KINDS,
    SLOW_RESPONSE,
    STRAGGLER,
    FabricFaultPlan,
    Fault,
    FlakyResultCache,
    InjectedFault,
    PlannedFlakyCache,
    ServiceFaultPlan,
    corrupt_cached_outcome,
    corrupt_proof,
    tamper_model,
    truncate_proof,
    write_stale_cache_entry,
)

__all__ = [
    "ESCAPE",
    "CaseFuzzer",
    "FuzzRecord",
    "FuzzReport",
    "Mutant",
    "analyze_text",
    "fuzz_bundled_case",
    "run_fuzz",
    "COORDINATOR_KILL",
    "CRASH_WORKER",
    "CORRUPT_CASE",
    "DROP_CONNECTION",
    "EXHAUST_BUDGET",
    "FABRIC_KINDS",
    "FAIL_CACHE_WRITE",
    "HANG_WORKER",
    "LEASE_LOSS",
    "PARTITION",
    "RAISE_ERROR",
    "SERVICE_KINDS",
    "SLOW_RESPONSE",
    "STRAGGLER",
    "FabricFaultPlan",
    "Fault",
    "FlakyResultCache",
    "InjectedFault",
    "PlannedFlakyCache",
    "ServiceFaultPlan",
    "corrupt_cached_outcome",
    "corrupt_proof",
    "tamper_model",
    "truncate_proof",
    "write_stale_cache_entry",
]
