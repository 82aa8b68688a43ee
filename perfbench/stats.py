"""Small statistics helpers shared by the benchmark (stdlib only)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile with the sample count behind it.

    ``beyond`` is how many samples lie above the reported one: a p90 is
    only worth quoting when at least ten samples sit beyond it.
    """

    value: float
    samples: int
    beyond: int


def percentile(values: Sequence[float], q: float) -> Percentile:
    """The nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return Percentile(ordered[rank - 1], len(ordered), len(ordered) - rank)


@dataclass
class Tally:
    """Attempted/failed accounting behind ``failed_ratio``.

    A query fails when it comes back with a status other than ``ok``,
    uncertified where certification was required, different from the
    reference, or not at all (an exception in the driver).
    """

    attempted: int = 0
    failures: List[Tuple[str, str]] = field(default_factory=list)

    def record(self, query_id: str, problem: Optional[str]) -> None:
        """Count one attempted query; ``problem`` is None when it passed."""
        self.attempted += 1
        if problem is not None:
            self.failures.append((query_id, problem))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_ratio(self) -> float:
        """Failed over attempted; a run that attempted nothing failed."""
        return self.failed / self.attempted if self.attempted else 1.0

    def problems(self, limit: int = 10) -> List[str]:
        return [f"{key}: {why}" for key, why in self.failures[:limit]]
