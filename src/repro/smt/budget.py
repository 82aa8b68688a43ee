"""Resource budgets for the solver stack.

A :class:`SolverBudget` bounds one logical task — typically a whole impact
analysis spanning many SMT ``solve()`` calls, optimizer iterations and
exact-LP OPF solves — by wall clock and/or by work counters (SAT
conflicts, SAT decisions, simplex pivots).  The budget object owns the
counters, so limits are cumulative across every solver it is attached to
within the task.

Enforcement is cooperative and cheap: the SAT search calls
:meth:`on_conflict`/:meth:`on_decision` per event and the simplex calls
:meth:`on_pivot` per pivot (before mutating the tableau, so an interrupted
solver stays consistent and reusable).  Counter limits are compared on
every event; the wall clock is only read every ``check_interval`` events,
keeping the overhead of an *unbudgeted* or generously-budgeted solve to a
single predictable ``is not None`` branch per event.

On exhaustion every hook raises :class:`~repro.exceptions.BudgetExhausted`
— and keeps raising on subsequent events, so a task whose budget is spent
fails fast no matter how many more solves it attempts.  Layers that want a
non-raising probe (e.g. per-candidate checks in the fast analyzer) use
:meth:`exhausted`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.exceptions import BudgetExhausted

__all__ = ["BudgetExhausted", "SolverBudget"]


class SolverBudget:
    """Cooperative resource budget shared across one task's solvers."""

    __slots__ = ("wall_seconds", "max_conflicts", "max_decisions",
                 "max_pivots", "check_interval", "conflicts", "decisions",
                 "pivots", "exhausted_reason", "_deadline", "_events")

    def __init__(self, wall_seconds: Optional[float] = None,
                 max_conflicts: Optional[int] = None,
                 max_decisions: Optional[int] = None,
                 max_pivots: Optional[int] = None,
                 check_interval: int = 64) -> None:
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self.wall_seconds = wall_seconds
        self.max_conflicts = max_conflicts
        self.max_decisions = max_decisions
        self.max_pivots = max_pivots
        self.check_interval = check_interval
        self.conflicts = 0
        self.decisions = 0
        self.pivots = 0
        self.exhausted_reason: Optional[str] = None
        self._deadline: Optional[float] = None
        self._events = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "SolverBudget":
        """Arm the wall-clock deadline (idempotent); returns self."""
        if self.wall_seconds is not None and self._deadline is None:
            self._deadline = time.perf_counter() + self.wall_seconds
        return self

    @property
    def started(self) -> bool:
        return self.wall_seconds is None or self._deadline is not None

    def clamped(self, wall_seconds: Optional[float]) -> "SolverBudget":
        """A fresh, unstarted budget with the wall limit tightened.

        The analysis service propagates each request's deadline this way:
        the worker builds the request's counter limits, then clamps the
        wall budget to the seconds the request has left, so a slow probe
        degrades to a ``budget_exhausted`` partial answer *inside* the
        deadline instead of wedging the connection.  ``None`` keeps the
        existing limits (still returning a fresh budget).
        """
        limits = self.to_dict()
        if wall_seconds is not None:
            wall = limits.get("wall_seconds")
            limits["wall_seconds"] = wall_seconds if wall is None \
                else min(wall, wall_seconds)
        return SolverBudget(**limits)

    # ------------------------------------------------------------------
    # Event hooks (called by the solvers)
    # ------------------------------------------------------------------

    def on_conflict(self) -> None:
        self.conflicts += 1
        if self.max_conflicts is not None \
                and self.conflicts >= self.max_conflicts:
            self._exhaust(f"conflict budget ({self.max_conflicts}) "
                          f"exhausted")
        self._tick()

    def on_decision(self) -> None:
        self.decisions += 1
        if self.max_decisions is not None \
                and self.decisions >= self.max_decisions:
            self._exhaust(f"decision budget ({self.max_decisions}) "
                          f"exhausted")
        self._tick()

    def on_pivot(self) -> None:
        self.pivots += 1
        if self.max_pivots is not None and self.pivots >= self.max_pivots:
            self._exhaust(f"simplex pivot budget ({self.max_pivots}) "
                          f"exhausted")
        self._tick()

    def _tick(self) -> None:
        if self.exhausted_reason is not None:
            # Already spent: keep failing fast on every further event.
            raise BudgetExhausted(self.exhausted_reason)
        self._events += 1
        if self._deadline is not None \
                and self._events % self.check_interval == 0:
            self.check_wall()

    # ------------------------------------------------------------------
    # Direct checks (called by analyzer loops)
    # ------------------------------------------------------------------

    def check_wall(self) -> None:
        """Unconditional deadline check; raises on expiry."""
        if self.exhausted_reason is not None:
            raise BudgetExhausted(self.exhausted_reason)
        if self._deadline is not None \
                and time.perf_counter() >= self._deadline:
            self._exhaust(f"wall-clock budget ({self.wall_seconds}s) "
                          f"exhausted")

    def exhausted(self) -> bool:
        """Non-raising probe used between units of work."""
        if self.exhausted_reason is not None:
            return True
        try:
            self.check_wall()
        except BudgetExhausted:
            return True
        return False

    def _exhaust(self, reason: str) -> None:
        if self.exhausted_reason is None:
            self.exhausted_reason = reason
        raise BudgetExhausted(self.exhausted_reason)

    # ------------------------------------------------------------------
    # Serialization (ships limits, not runtime state, to workers)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {}
        if self.wall_seconds is not None:
            payload["wall_seconds"] = self.wall_seconds
        if self.max_conflicts is not None:
            payload["max_conflicts"] = self.max_conflicts
        if self.max_decisions is not None:
            payload["max_decisions"] = self.max_decisions
        if self.max_pivots is not None:
            payload["max_pivots"] = self.max_pivots
        if self.check_interval != 64:
            payload["check_interval"] = self.check_interval
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SolverBudget":
        return cls(**payload)

    def __repr__(self) -> str:
        limits = ", ".join(f"{k}={v}" for k, v in self.to_dict().items())
        return f"SolverBudget({limits})"
