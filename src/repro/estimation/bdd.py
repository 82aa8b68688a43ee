"""Bad data detection: the residual test the attacks must evade.

Standard chi-square testing on the weighted residual sum of squares (Abur &
Exposito ch. 5), plus largest-normalized-residual identification.  The
stealthiness property of paper Section II-B — an attack vector ``a = Hc``
leaves the residual unchanged — is what :class:`BadDataDetector` verifies
empirically in the tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.exceptions import ModelError
from repro.estimation.wls import StateEstimate, WlsEstimator


@dataclass
class BadDataReport:
    """Outcome of a bad-data test."""

    detected: bool
    objective: float          # J(x) = weighted residual sum of squares
    threshold: float
    degrees_of_freedom: int
    suspect_index: Optional[int] = None  # taken-measurement index (1-based
    #                                      in the plan's numbering)
    normalized_residuals: Optional[np.ndarray] = None


class BadDataDetector:
    """Chi-square bad data detector bound to a WLS estimator."""

    def __init__(self, estimator: WlsEstimator,
                 significance: float = 0.01,
                 sigma: float = 0.005) -> None:
        if not 0 < significance < 1:
            raise ModelError("significance must be in (0, 1)")
        if sigma <= 0:
            raise ModelError("sigma must be positive")
        self.estimator = estimator
        self.significance = significance
        self.sigma = sigma
        m = len(estimator.taken)
        n = estimator.grid.num_buses - 1
        self.degrees_of_freedom = max(m - n, 1)
        # scipy.stats is slow to import and no analysis path needs it.
        from scipy import stats
        self.threshold = float(stats.chi2.ppf(1 - significance,
                                              self.degrees_of_freedom))

    def objective(self, z: np.ndarray, estimate: StateEstimate) -> float:
        """J(x) = sum((z - H x_hat)^2 / sigma^2)."""
        residuals = z - estimate.estimated_measurements
        return float(np.sum((residuals / self.sigma) ** 2))

    def test(self, z: np.ndarray) -> BadDataReport:
        """Estimate, then chi-square test; identifies the worst residual."""
        estimate = self.estimator.estimate(z)
        objective = self.objective(z, estimate)
        detected = objective > self.threshold

        suspect = None
        normalized = None
        if detected:
            S = self.estimator.residual_sensitivity
            residuals = z - estimate.estimated_measurements
            diag = np.clip(np.diag(S), 1e-12, None)
            normalized = np.abs(residuals) / (self.sigma * np.sqrt(diag))
            worst = int(np.argmax(normalized))
            suspect = self.estimator.taken[worst]
        return BadDataReport(detected, objective, self.threshold,
                             self.degrees_of_freedom, suspect, normalized)

    def residual_unchanged_by(self, z: np.ndarray,
                              attack: np.ndarray,
                              tolerance: float = 1e-8) -> bool:
        """Does adding *attack* to the readings leave the residual intact?

        True for any attack in the column space of H (paper Section II-B).
        """
        base = self.estimator.estimate(z).residual_norm
        attacked = self.estimator.estimate(z + attack).residual_norm
        return abs(base - attacked) <= tolerance
