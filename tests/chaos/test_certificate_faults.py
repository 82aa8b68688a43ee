"""Chaos tests for certified solving: corrupted certificates are caught.

Every fault here forges an answer that *looks* plausible — a model with
one flipped bit, a proof missing its tail, a cache entry whose verdict
was rewritten in place — and the suite asserts the stack surfaces each
one as a ``certificate_error`` (or silently recomputes the truth), and
NEVER accepts it as a sat/unsat verdict.
"""

from fractions import Fraction

import pytest

from repro.core.framework import ImpactAnalyzer, ImpactQuery
from repro.exceptions import CertificateError
from repro.grid.cases import get_case
from repro.runner import (
    ResultCache,
    ScenarioSpec,
    SweepConfig,
    SweepEngine,
)
from repro.runner.engine import execute_scenario, verify_cached_outcome
from repro.runner.trace import CERTIFICATE_ERROR, OK, ScenarioOutcome
from repro.smt import (
    BoolVar,
    Not,
    Or,
    RealVar,
    SmtSolver,
    SolveResult,
    verify_sat,
    verify_unsat,
)
from repro.testing import (
    corrupt_proof,
    tamper_model,
    truncate_proof,
    write_stale_cache_entry,
)


def _fast_spec(label="cert-cell", target=1):
    return ScenarioSpec.build("5bus-study1", analyzer="fast",
                              target=target, state_samples=4,
                              label=label)


def _smt_spec(label="cert-smt", target=3):
    return ScenarioSpec.build("5bus-study1", analyzer="smt",
                              target=target, label=label)


class TestBitFlippedModels:
    """A model one bit off must never verify."""

    def test_every_flip_is_caught(self):
        solver = SmtSolver(certify=True)
        p, q = BoolVar("p"), BoolVar("q")
        x = RealVar("x")
        solver.add(Or(p, q))
        solver.add(Not(p))
        solver.add(x.eq(Fraction(5, 3)))
        assert solver.solve() is SolveResult.SAT
        verify_sat(solver)
        model = solver.model()
        for var in (p, q):
            with pytest.raises(CertificateError):
                verify_sat(solver, model=tamper_model(model, bool_var=var))
        with pytest.raises(CertificateError):
            verify_sat(solver, model=tamper_model(model, real_var=x))


class TestTruncatedProofs:
    """A proof missing steps must never verify."""

    def _unsat_solver(self):
        solver = SmtSolver(certify=True)
        x, y = RealVar("x"), RealVar("y")
        solver.add(x <= y)
        solver.add(y <= x - 1)
        p = BoolVar("p")
        solver.add(Or(p, x >= 0))
        assert solver.solve() is SolveResult.UNSAT
        return solver

    def test_each_truncation_depth_is_caught(self):
        solver = self._unsat_solver()
        certificate = solver.last_certificate
        verify_unsat(solver, certificate)
        # Dropping the whole tail in increasing bites: the refutation
        # must stop closing at some point, and from there on every
        # deeper truncation must also be rejected.
        rejected = 0
        for drop in range(1, certificate.num_steps + 1):
            try:
                verify_unsat(solver, truncate_proof(certificate, drop))
            except CertificateError:
                rejected += 1
        assert rejected >= 1
        with pytest.raises(CertificateError):
            verify_unsat(solver, truncate_proof(
                certificate, certificate.num_steps))

    def test_corrupted_learned_clause_is_caught(self):
        solver = SmtSolver(certify=True)
        ps = [BoolVar(f"c{i}") for i in range(3)]
        solver.add(Or(ps[0], ps[1]))
        solver.add(Or(ps[0], Not(ps[1])))
        solver.add(Or(Not(ps[0]), ps[2]))
        solver.add(Or(Not(ps[0]), Not(ps[2])))
        assert solver.solve() is SolveResult.UNSAT
        certificate = solver.last_certificate
        verify_unsat(solver, certificate)
        from repro.smt.proof import RUP
        if any(s.kind == RUP and s.lits for s in certificate.steps):
            with pytest.raises(CertificateError):
                verify_unsat(solver, corrupt_proof(certificate))

    def test_step_rewritten_after_verification_is_caught(self):
        # The checker resumes from the prefix it already verified; a
        # step swapped in that prefix afterwards must still be seen.
        solver = SmtSolver(certify=True)
        ps = [BoolVar(f"v{i}") for i in range(3)]
        solver.add(Or(ps[0], ps[1]))
        solver.add(Or(ps[0], Not(ps[1])))
        solver.add(Or(Not(ps[0]), ps[2]))
        solver.add(Or(Not(ps[0]), Not(ps[2])))
        assert solver.solve() is SolveResult.UNSAT
        certificate = solver.last_certificate
        verify_unsat(solver, certificate)
        tampered = corrupt_proof(certificate)
        index = next(i for i, (a, b) in enumerate(
            zip(certificate.steps, tampered.steps)) if a != b)
        original = certificate.proof.steps[index]
        certificate.proof.steps[index] = tampered.proof.steps[index]
        with pytest.raises(CertificateError):
            verify_unsat(solver, certificate)
        with pytest.raises(CertificateError):
            verify_unsat(solver, certificate)
        certificate.proof.steps[index] = original
        verify_unsat(solver, certificate)


class TestAnalyzerSurfacesCertificateErrors:
    """A failing check inside the framework becomes a certificate_error
    report, never a sat/unsat verdict."""

    def test_sabotaged_checker_yields_certificate_error_status(
            self, monkeypatch):
        analyzer = ImpactAnalyzer(get_case("5bus-study1"))

        def rejecting_verify_sat(solver, model=None, assumptions=None,
                                 extra_terms=()):
            raise CertificateError("injected model rejection")

        monkeypatch.setattr("repro.core.session.verify_sat",
                            rejecting_verify_sat)
        report = analyzer.analyze(ImpactQuery(self_check=True))
        assert report.status == "certificate_error"
        assert report.certified is False
        assert "injected model rejection" in report.certificate_error
        assert not report.satisfiable
        assert "certificate error" in report.render()

    def test_execute_scenario_maps_to_certificate_error_status(
            self, monkeypatch):
        def rejecting_verify_sat(solver, model=None, assumptions=None,
                                 extra_terms=()):
            raise CertificateError("injected model rejection")

        monkeypatch.setattr("repro.core.session.verify_sat",
                            rejecting_verify_sat)
        outcome = execute_scenario(_smt_spec(), self_check=True)
        assert outcome.status == CERTIFICATE_ERROR
        assert outcome.certified is False
        assert outcome.verdict == CERTIFICATE_ERROR
        assert "injected" in outcome.error

    def test_certificate_error_outcomes_are_not_cached(self, monkeypatch,
                                                       tmp_path):
        def rejecting_verify_sat(solver, model=None, assumptions=None,
                                 extra_terms=()):
            raise CertificateError("injected model rejection")

        monkeypatch.setattr("repro.core.session.verify_sat",
                            rejecting_verify_sat)
        cache_dir = tmp_path / "cache"
        engine = SweepEngine(SweepConfig(
            workers=1, cache_dir=str(cache_dir), self_check=True))
        spec = _smt_spec()
        trace = engine.run([spec])
        assert trace.outcomes[0].status == CERTIFICATE_ERROR
        assert trace.to_dict()["totals"]["certificate_errors"] == 1
        # Untrusted verdicts must never be checkpointed.
        assert ResultCache(str(cache_dir)).get(spec.fingerprint()) is None


class TestStaleCacheEntries:
    """Structurally valid but lying cache entries are rejected on load
    and recomputed — the sweep result is the truth, not the forgery."""

    def _seeded_cache(self, tmp_path, spec):
        cache_dir = str(tmp_path / "cache")
        engine = SweepEngine(SweepConfig(workers=1, cache_dir=cache_dir,
                                         self_check=True))
        trace = engine.run([spec])
        outcome = trace.outcomes[0]
        assert outcome.status == OK and outcome.certified is True
        return cache_dir, outcome

    @pytest.mark.parametrize("mutations", [
        # Verdict flipped in place (believed cost left behind betrays it;
        # a *fully* consistent forgery is indistinguishable from a
        # genuine result by construction — only fingerprints catch it).
        {"satisfiable": False, "achieved_increase_percent": None},
        {"believed_min_cost": "1/1", "achieved_increase_percent": -99.9},
        {"certified": None},
        {"status": "certificate_error"},
    ])
    def test_forged_entry_is_recomputed(self, tmp_path, mutations):
        spec = _fast_spec()
        cache_dir, genuine = self._seeded_cache(tmp_path, spec)
        fingerprint = spec.fingerprint()
        cache = ResultCache(cache_dir)
        write_stale_cache_entry(cache, fingerprint, genuine.to_dict(),
                                **mutations)
        engine = SweepEngine(SweepConfig(workers=1, cache_dir=cache_dir,
                                         self_check=True))
        trace = engine.run([spec])
        outcome = trace.outcomes[0]
        # Never served from cache; recomputed to the genuine verdict.
        assert not outcome.cache_hit
        assert trace.cache_rejected == 1
        assert trace.to_dict()["totals"]["cache_rejected"] == 1
        assert outcome.status == OK
        assert outcome.satisfiable == genuine.satisfiable
        assert outcome.believed_min_cost == genuine.believed_min_cost
        # The forged entry was overwritten with the recomputed truth.
        healed = ScenarioOutcome.from_dict(cache.get(fingerprint))
        assert healed.satisfiable == genuine.satisfiable

    def test_uncertified_entry_is_fine_without_self_check(self, tmp_path):
        spec = _fast_spec()
        cache_dir = str(tmp_path / "cache")
        engine = SweepEngine(SweepConfig(workers=1, cache_dir=cache_dir))
        first = engine.run([spec]).outcomes[0]
        assert first.status == OK and first.certified is None
        again = engine.run([spec]).outcomes[0]
        assert again.cache_hit
        # ... but a certified sweep refuses it and recomputes.
        certified_engine = SweepEngine(SweepConfig(
            workers=1, cache_dir=cache_dir, self_check=True))
        trace = certified_engine.run([spec])
        outcome = trace.outcomes[0]
        assert not outcome.cache_hit
        assert trace.cache_rejected == 1
        assert outcome.certified is True


class TestVerifyCachedOutcome:
    """Unit coverage of the semantic load-time check."""

    def _genuine(self):
        spec = _fast_spec(label="unit-cell", target=1)
        outcome = execute_scenario(spec, "fp", self_check=True)
        assert outcome.status == OK
        return spec, outcome

    def test_genuine_outcome_passes(self):
        spec, outcome = self._genuine()
        verify_cached_outcome(outcome, spec)
        verify_cached_outcome(outcome, spec, require_certified=True)

    def test_threshold_forgery_rejected(self):
        spec, outcome = self._genuine()
        outcome.threshold = str(Fraction(outcome.threshold) + 1)
        with pytest.raises(ValueError):
            verify_cached_outcome(outcome, spec)

    def test_subthreshold_sat_rejected(self):
        spec, outcome = self._genuine()
        if outcome.satisfiable:
            outcome.believed_min_cost = str(
                Fraction(outcome.threshold) - 1)
            with pytest.raises(ValueError):
                verify_cached_outcome(outcome, spec)

    def test_inconsistent_increase_rejected(self):
        spec, outcome = self._genuine()
        if outcome.achieved_increase_percent is not None:
            outcome.achieved_increase_percent += 5.0
            with pytest.raises(ValueError):
                verify_cached_outcome(outcome, spec)

    def test_missing_verdict_rejected(self):
        spec, outcome = self._genuine()
        outcome.satisfiable = None
        with pytest.raises(ValueError):
            verify_cached_outcome(outcome, spec)

    def test_uncertified_rejected_only_when_required(self):
        spec, outcome = self._genuine()
        outcome.certified = None
        verify_cached_outcome(outcome, spec)
        with pytest.raises(ValueError):
            verify_cached_outcome(outcome, spec, require_certified=True)
