"""Structured diagnostics emitted by the guarded linear-algebra layer.

Fatal findings travel inside :class:`~repro.exceptions.NumericalInstability`;
warning-level findings (ill-conditioned but still usable) are delivered
to whoever registered a sink via :func:`collect_diagnostics` — the
analysis session uses this to convert them into run-notes on the
:class:`~repro.core.results.ImpactReport`.  With no sink registered,
warnings are dropped (fail-level findings still raise).  Sinks are per
thread, so concurrent analyses (thread-mode supervisor workers) never
see each other's warnings.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

#: diagnostic severities.
WARNING = "warning"
FATAL = "fatal"


@dataclass(frozen=True)
class NumericalDiagnostic:
    """One condition/residual/rank finding from a guarded operation."""

    operation: str            # "factorize" | "solve" | "inverse" | "rank"
    context: str              # which matrix, e.g. "wls gain matrix"
    severity: str             # WARNING | FATAL
    detail: str               # human-readable finding
    condition: Optional[float] = None   # 1-norm condition estimate
    residual: Optional[float] = None    # verified relative residual

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def render(self) -> str:
        parts = [f"{self.context}: {self.detail}"]
        if self.condition is not None:
            parts.append(f"cond~{self.condition:.2e}")
        if self.residual is not None:
            parts.append(f"residual~{self.residual:.2e}")
        return " ".join(parts)


class _ThreadSinks(threading.local):
    """Each thread's own stack of registered sinks."""

    def __init__(self) -> None:
        self.stack: List[List[NumericalDiagnostic]] = []


_sinks = _ThreadSinks()


def emit(diagnostic: NumericalDiagnostic) -> None:
    """Deliver a warning-level diagnostic to every sink this thread
    registered."""
    for sink in _sinks.stack:
        sink.append(diagnostic)


class collect_diagnostics:
    """Context manager collecting warning diagnostics into a list.

    >>> with collect_diagnostics() as warnings:
    ...     guarded_solve(A, b, context="...")
    >>> warnings     # the NumericalDiagnostics emitted inside the block
    """

    def __init__(self, sink: Optional[List[NumericalDiagnostic]] = None):
        self.sink: List[NumericalDiagnostic] = \
            sink if sink is not None else []

    def __enter__(self) -> List[NumericalDiagnostic]:
        _sinks.stack.append(self.sink)
        return self.sink

    def __exit__(self, *exc_info) -> None:
        # By identity: nested sinks that saw the same warnings compare
        # equal, and list.remove() would unregister the outer one.
        stack = _sinks.stack
        del stack[next(i for i, sink in enumerate(stack)
                       if sink is self.sink)]
