"""Thresholds for the guarded linear-algebra layer.

A :class:`NumericsPolicy` decides when a guarded operation *warns*
(emit a structured diagnostic, keep the result) and when it *fails*
(raise :class:`~repro.exceptions.NumericalInstability`, withhold the
result).  The defaults are deliberately conservative for double
precision: a condition number of 1e8 already costs ~8 of the ~16
significant digits, and a verified relative residual above 1e-6 means
the solve cannot be trusted near the paper's Eq. 37 boundary
comparisons.

The thresholds are fixed; only :func:`set_policy` (a test seam) swaps
them in-process, and :meth:`NumericsPolicy.key` folds the active
thresholds into scenario fingerprints so cached verdicts never alias
across policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

@dataclass(frozen=True)
class NumericsPolicy:
    """Warn/fail thresholds for condition numbers, residuals and ranks."""

    #: 1-norm condition-number estimate above which a factorization
    #: emits a warning diagnostic (result still returned).
    condition_warn: float = 1e8
    #: condition estimate above which the factorization refuses to
    #: produce results at all (``NumericalInstability``).
    condition_fail: float = 1e12
    #: verified relative residual ``|Ax-b| / (|A||x| + |b|)`` above
    #: which a solve warns (after iterative refinement).
    residual_warn: float = 1e-8
    #: residual above which the solve fails.
    residual_fail: float = 1e-6
    #: relative singular-value cutoff for :func:`guarded_rank`
    #: (``s > s_max * rank_rtol`` counts toward the rank) — scaled to
    #: the matrix instead of numpy's machine-epsilon default, so
    #: near-rank-deficient measurement plans are flagged instead of
    #: passing observability and estimating garbage.
    rank_rtol: float = 1e-8
    #: iterative-refinement steps attempted per verified solve.
    refine_steps: int = 2

    def key(self) -> str:
        """Deterministic identity string for cache fingerprints."""
        return (f"cw={self.condition_warn!r};cf={self.condition_fail!r};"
                f"rw={self.residual_warn!r};rf={self.residual_fail!r};"
                f"rk={self.rank_rtol!r};it={self.refine_steps!r}")


_active: Optional[NumericsPolicy] = None


def default_policy() -> NumericsPolicy:
    """The process-wide active policy (the defaults unless a test set
    another with :func:`set_policy`)."""
    global _active
    if _active is None:
        _active = NumericsPolicy()
    return _active


def set_policy(policy: Optional[NumericsPolicy]) -> None:
    """Override (or with ``None`` reset) the process-wide policy.

    Test hook: the degeneracy suites tighten/loosen thresholds.
    """
    global _active
    _active = policy
