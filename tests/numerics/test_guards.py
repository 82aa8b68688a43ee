"""Tests for the guarded linear-algebra layer: condition monitoring,
verified solves, matrix-scaled rank, policy plumbing and diagnostics."""

import numpy as np
import pytest

from repro.exceptions import NumericalInstability
from repro.numerics import (
    FATAL,
    WARNING,
    GuardedFactorization,
    NumericsPolicy,
    collect_diagnostics,
    default_policy,
    guarded_inverse,
    guarded_rank,
    guarded_solve,
    set_policy,
)


@pytest.fixture(autouse=True)
def reset_policy():
    yield
    set_policy(None)


def _hilbert(n):
    """The classic ill-conditioned test matrix."""
    i = np.arange(n)
    return 1.0 / (i[:, None] + i[None, :] + 1.0)


class TestGuardedSolve:
    def test_well_conditioned_solve_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        b = rng.standard_normal(6)
        x = guarded_solve(a, b)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-10)

    def test_singular_matrix_raises_instability(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(NumericalInstability) as excinfo:
            guarded_solve(a, np.ones(2))
        assert excinfo.value.diagnostic is not None
        assert excinfo.value.diagnostic.severity == FATAL

    def test_condition_fail_threshold_refuses(self):
        # Hilbert(12) has condition ~1e16: over any sane fail threshold.
        with pytest.raises(NumericalInstability) as excinfo:
            guarded_solve(_hilbert(12), np.ones(12))
        assert excinfo.value.diagnostic.condition is not None
        assert excinfo.value.diagnostic.condition \
            >= default_policy().condition_fail

    def test_warn_band_emits_diagnostic_but_returns(self):
        # Hilbert(6): condition ~1.5e7; tighten warn below it.
        set_policy(NumericsPolicy(condition_warn=1e6,
                                  condition_fail=1e12))
        with collect_diagnostics() as notes:
            x = guarded_solve(_hilbert(6), np.ones(6))
        assert np.all(np.isfinite(x))
        assert notes and notes[0].severity == WARNING
        assert notes[0].condition > 1e6

    def test_non_finite_input_refuses(self):
        a = np.eye(3)
        a[1, 1] = np.nan
        with pytest.raises(NumericalInstability):
            guarded_solve(a, np.ones(3))
        with pytest.raises(NumericalInstability):
            guarded_solve(np.eye(3), np.array([1.0, np.inf, 0.0]))

    def test_matrix_rhs_supported(self):
        a = np.diag([2.0, 4.0, 8.0])
        inverse = guarded_inverse(a)
        np.testing.assert_allclose(inverse,
                                   np.diag([0.5, 0.25, 0.125]),
                                   atol=1e-12)

    def test_refinement_helps_moderately_conditioned_system(self):
        # A system the raw solve answers with ~1e-11 relative residual;
        # the guarded path must verify it below the fail threshold.
        set_policy(NumericsPolicy(condition_warn=1e10,
                                  condition_fail=1e14))
        a = _hilbert(8) + 1e-6 * np.eye(8)
        b = np.ones(8)
        x = guarded_solve(a, b)
        residual = np.max(np.abs(b - a @ x))
        assert residual < 1e-8


class TestGuardedFactorization:
    def test_many_solves_one_factorization(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        fact = GuardedFactorization(a, context="test")
        for k in range(4):
            b = np.array([1.0 * k, 2.0])
            np.testing.assert_allclose(fact.solve(b),
                                       np.linalg.solve(a, b),
                                       atol=1e-12)

    def test_condition_estimate_tracks_true_condition(self):
        a = np.diag([1.0, 1e-5])
        fact = GuardedFactorization(a, context="test")
        true_condition = np.linalg.cond(a, 1)
        assert fact.condition == pytest.approx(true_condition, rel=1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            GuardedFactorization(np.ones((2, 3)))


class TestGuardedRank:
    def test_full_rank(self):
        assert guarded_rank(np.eye(4)) == 4

    def test_exact_deficiency(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert guarded_rank(a) == 1

    def test_near_deficiency_detected_by_scaled_cutoff(self):
        # numpy's machine-epsilon default calls this full rank; the
        # matrix-scaled 1e-8 cutoff must not.
        a = np.diag([1.0, 1.0, 1e-10])
        assert np.linalg.matrix_rank(a) == 3
        assert guarded_rank(a) == 2

    def test_fragile_rank_decision_warns(self):
        a = np.diag([1.0, 5e-8])  # just above the 1e-8 cutoff
        with collect_diagnostics() as notes:
            rank = guarded_rank(a)
        assert rank == 2
        assert notes and "near-rank-deficient" in notes[0].detail


class TestPolicy:
    def test_key_distinguishes_policies(self):
        a, b = NumericsPolicy(), NumericsPolicy(condition_fail=1e10)
        assert a.key() != b.key()
        assert a.key() == NumericsPolicy().key()

    def test_set_policy_changes_guard_behavior(self):
        a = np.diag([1.0, 1e-6])  # condition ~1e6
        guarded_solve(a, np.ones(2))  # fine under defaults
        set_policy(NumericsPolicy(condition_fail=1e3))
        with pytest.raises(NumericalInstability):
            guarded_solve(a, np.ones(2))

    def test_nested_collectors_unregister_their_own_sink(self):
        set_policy(NumericsPolicy(condition_warn=1e2))
        with collect_diagnostics() as outer:
            with collect_diagnostics() as inner:
                guarded_solve(np.diag([1.0, 1e-4]), np.ones(2))
            assert inner == outer          # equal, but distinct sinks
            guarded_solve(np.diag([1.0, 1e-4]), np.ones(2))
        assert len(inner) == 1
        assert len(outer) == 2

    def test_collectors_in_other_threads_see_nothing(self):
        # Thread-mode supervisor workers analyse concurrently: a warning
        # raised in one worker must not land in another's collector.
        import threading
        set_policy(NumericsPolicy(condition_warn=1e2))
        quiet_ready, loud_done = threading.Event(), threading.Event()
        seen = {}

        def quiet():
            with collect_diagnostics() as notes:
                quiet_ready.set()
                loud_done.wait(10)
            seen["quiet"] = list(notes)

        def loud():
            quiet_ready.wait(10)
            with collect_diagnostics() as notes:
                guarded_solve(np.diag([1.0, 1e-4]), np.ones(2))
            seen["loud"] = list(notes)
            loud_done.set()

        threads = [threading.Thread(target=quiet),
                   threading.Thread(target=loud)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert len(seen["loud"]) == 1
        assert seen["quiet"] == []

    def test_diagnostics_round_trip(self):
        set_policy(NumericsPolicy(condition_warn=1e2))
        with collect_diagnostics() as notes:
            guarded_solve(np.diag([1.0, 1e-4]), np.ones(2))
        assert len(notes) == 1
        payload = notes[0].to_dict()
        assert payload["severity"] == WARNING
        assert payload["context"]
        assert "cond~" in notes[0].render()
