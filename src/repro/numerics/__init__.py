"""Numerical-integrity guardrails for the analysis core.

Condition-monitored, residual-verified linear algebra
(:mod:`repro.numerics.guards`), the warn/fail threshold policy
(:mod:`repro.numerics.policy`) and the structured diagnostics the
guards emit (:mod:`repro.numerics.diagnostics`).  Fail-level findings
raise :class:`~repro.exceptions.NumericalInstability`, which the
analysis layers surface end to end as a ``numerical_unstable`` status
(report → sweep outcome → cache → service/fabric → CLI exit code 6)
instead of trusting silently-garbage floating point near the paper's
Eq. 37 decision boundaries.
"""

from repro.numerics.backend import SPARSE_AUTO_MIN_BUSES, resolve_backend
from repro.numerics.diagnostics import (
    FATAL,
    WARNING,
    NumericalDiagnostic,
    collect_diagnostics,
)
from repro.numerics.guards import (
    GuardedFactorization,
    guarded_inverse,
    guarded_rank,
    guarded_solve,
)
from repro.numerics.policy import NumericsPolicy, default_policy, set_policy
from repro.numerics.sparse import (
    CsrMatrix,
    SingularMatrixError,
    SparseLU,
    UpdatedSolver,
    rcm_ordering,
)

__all__ = [
    "FATAL",
    "SPARSE_AUTO_MIN_BUSES",
    "WARNING",
    "CsrMatrix",
    "GuardedFactorization",
    "NumericalDiagnostic",
    "NumericsPolicy",
    "SingularMatrixError",
    "SparseLU",
    "UpdatedSolver",
    "collect_diagnostics",
    "default_policy",
    "guarded_inverse",
    "guarded_rank",
    "guarded_solve",
    "rcm_ordering",
    "resolve_backend",
    "set_policy",
]
