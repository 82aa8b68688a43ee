"""Certified-solving tests: proofs, witnesses, and tamper detection.

The certificate checkers in :mod:`repro.smt.certificates` share no code
with the search loops they audit, so these tests double as a differential
harness: every answer the solver produces must survive its independent
check, and every deliberately corrupted certificate must be rejected.
"""

import random
from fractions import Fraction

import pytest

from repro.exceptions import CertificateError, SolverError
from repro.smt import (
    And,
    BoolVar,
    Not,
    Or,
    RealVar,
    SmtSolver,
    SolveResult,
    at_most,
    implies,
    minimize,
    verify_sat,
    verify_unsat,
)
from repro.smt.certificates import (
    RupChecker,
    check_farkas,
    check_model,
    check_rup_proof,
    self_check_default,
)
from repro.smt.proof import INPUT, RUP, THEORY, ProofStep, UnsatCertificate
from repro.testing import corrupt_proof, tamper_model, truncate_proof


def certified_solver() -> SmtSolver:
    return SmtSolver(certify=True)


class TestSelfCheckDefault:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SELF_CHECK", "1")
        assert self_check_default(False) is False
        monkeypatch.delenv("REPRO_SELF_CHECK")
        assert self_check_default(True) is True

    @pytest.mark.parametrize("value,expected", [
        ("", False), ("0", False), ("false", False), ("no", False),
        ("off", False), ("1", True), ("true", True), ("yes", True),
    ])
    def test_env_resolution(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_SELF_CHECK", value)
        assert self_check_default(None) is expected


class TestEnableCertificates:
    def test_constructor_flag(self):
        solver = certified_solver()
        assert solver.certify
        assert solver.proof is not None

    def test_disabled_by_default_and_allocation_free(self):
        solver = SmtSolver()
        assert not solver.certify
        assert solver.proof is None
        x = RealVar("x")
        solver.add(x <= 1)
        solver.solve()
        assert solver.proof is None
        assert solver.last_certificate is None

    def test_late_enable_on_used_solver_raises(self):
        solver = SmtSolver()
        solver.add(BoolVar("p"))
        with pytest.raises(SolverError):
            solver.enable_certificates()


class TestSatCertificates:
    def test_boolean_model_verifies(self):
        solver = certified_solver()
        p, q = BoolVar("p"), BoolVar("q")
        solver.add(implies(p, q))
        solver.add(p)
        assert solver.solve() is SolveResult.SAT
        report = verify_sat(solver)
        assert report.kind == "model"
        assert report.terms_checked == 2

    def test_theory_model_verifies(self):
        solver = certified_solver()
        x, y = RealVar("x"), RealVar("y")
        solver.add(x + y >= 4)
        solver.add(x <= 1)
        assert solver.solve() is SolveResult.SAT
        verify_sat(solver)

    def test_tampered_bool_rejected(self):
        solver = certified_solver()
        p, q = BoolVar("p"), BoolVar("q")
        solver.add(And(p, q))
        assert solver.solve() is SolveResult.SAT
        bad = tamper_model(solver.model(), bool_var=p)
        with pytest.raises(CertificateError):
            verify_sat(solver, model=bad)

    def test_tampered_real_rejected(self):
        solver = certified_solver()
        x = RealVar("x")
        solver.add(x.eq(Fraction(7, 2)))
        assert solver.solve() is SolveResult.SAT
        bad = tamper_model(solver.model(), real_var=x)
        with pytest.raises(CertificateError):
            verify_sat(solver, model=bad)

    def test_assumptions_are_part_of_the_check(self):
        solver = certified_solver()
        p = BoolVar("p")
        solver.add(Or(p, Not(p)))
        assert solver.solve([Not(p)]) is SolveResult.SAT
        verify_sat(solver)
        # A model that ignores the assumption must be rejected.
        bad = tamper_model(solver.model(), bool_var=p)
        with pytest.raises(CertificateError):
            verify_sat(solver, model=bad)

    def test_requires_certify_mode(self):
        solver = SmtSolver()
        solver.add(BoolVar("p"))
        solver.solve()
        with pytest.raises(CertificateError):
            verify_sat(solver)


class TestUnsatCertificates:
    def test_boolean_unsat_verifies(self):
        solver = certified_solver()
        p = BoolVar("p")
        solver.add(p)
        solver.add(Not(p))
        assert solver.solve() is SolveResult.UNSAT
        report = verify_unsat(solver)
        assert report.kind == "unsat"

    def test_theory_unsat_carries_farkas_witnesses(self):
        solver = certified_solver()
        x, y, z = RealVar("x"), RealVar("y"), RealVar("z")
        solver.add(x <= y)
        solver.add(y <= z)
        solver.add(z <= x - 1)
        assert solver.solve() is SolveResult.UNSAT
        report = verify_unsat(solver)
        assert report.theory_lemmas >= 1

    def test_assumption_unsat(self):
        solver = certified_solver()
        p, q = BoolVar("p"), BoolVar("q")
        solver.add(implies(p, q))
        assert solver.solve([p, Not(q)]) is SolveResult.UNSAT
        verify_unsat(solver)
        # The same solver stays usable and certifiable afterwards.
        assert solver.solve([p]) is SolveResult.SAT
        verify_sat(solver)

    def test_truncated_proof_rejected(self):
        solver = certified_solver()
        x = RealVar("x")
        solver.add(x >= 3)
        solver.add(x <= 2)
        assert solver.solve() is SolveResult.UNSAT
        certificate = solver.last_certificate
        verify_unsat(solver, certificate)
        with pytest.raises(CertificateError):
            verify_unsat(solver, truncate_proof(certificate,
                                                drop=len(certificate.steps)))

    def test_corrupted_proof_rejected(self):
        solver = certified_solver()
        ps = [BoolVar(f"p{i}") for i in range(4)]
        solver.add(Or(ps[0], ps[1]))
        solver.add(Or(ps[0], Not(ps[1])))
        solver.add(Or(Not(ps[0]), ps[2]))
        solver.add(Or(Not(ps[0]), Not(ps[2])))
        assert solver.solve() is SolveResult.UNSAT
        certificate = solver.last_certificate
        verify_unsat(solver, certificate)
        if any(s.kind == RUP and s.lits for s in certificate.steps):
            with pytest.raises(CertificateError):
                verify_unsat(solver, corrupt_proof(certificate))

    def test_optimize_terminal_unsat_certifies(self):
        solver = certified_solver()
        x = RealVar("x")
        solver.add(x >= 2)
        solver.add(x <= 9)
        result = minimize(solver, x)
        assert result.optimum == 2
        verify_unsat(solver)               # the optimality proof
        verify_sat(solver, model=result.model)

    def test_no_certificate_recorded_raises(self):
        solver = certified_solver()
        solver.add(BoolVar("p"))
        solver.solve()
        with pytest.raises(CertificateError):
            verify_unsat(solver)


class TestCheckModel:
    def test_counts_and_rejects(self):
        solver = certified_solver()
        p = BoolVar("p")
        solver.add(p)
        solver.solve()
        model = solver.model()
        assert check_model([p, Or(p, Not(p))], model) == 2
        with pytest.raises(CertificateError) as err:
            check_model([p, Not(p)], model)
        assert "assertion 1" in str(err.value)


class TestCheckFarkas:
    def _atoms(self):
        # Theory-atom registry as the solver keeps it: var -> plain
        # LE/LT atom; negation lives in the literal's sign.  The
        # conflicting set is {x <= 1, y <= 1, not(x + y < 3)}: witness
        # literals (1, 2, -3), refuted clause Or(-1, -2, 3).
        x, y = RealVar("x"), RealVar("y")
        return {1: x <= 1, 2: y <= 1, 3: x + y < 3}

    def test_valid_witness(self):
        atoms = self._atoms()
        # x<=1, y<=1, -(x+y)<=-3 sum to 0 <= -1: contradiction.
        check_farkas([-1, -2, 3],
                     [(1, Fraction(1)), (2, Fraction(1)),
                      (-3, Fraction(1))], atoms)

    def test_missing_witness_rejected(self):
        with pytest.raises(CertificateError):
            check_farkas([-1], None, self._atoms())

    def test_negative_coefficient_rejected(self):
        with pytest.raises(CertificateError):
            check_farkas([-1, -2, 3],
                         [(1, Fraction(-1)), (2, Fraction(1)),
                          (-3, Fraction(1))], self._atoms())

    def test_mismatched_literals_rejected(self):
        with pytest.raises(CertificateError):
            check_farkas([-1, -2],
                         [(1, Fraction(1)), (-3, Fraction(1))],
                         self._atoms())

    def test_non_contradictory_combination_rejected(self):
        atoms = self._atoms()
        # x<=1 alone (coefficient on the others zero) proves nothing.
        with pytest.raises(CertificateError):
            check_farkas([-1, -2, 3],
                         [(1, Fraction(1)), (2, Fraction(0)),
                          (-3, Fraction(0))], atoms)

    def test_uncancelled_variable_rejected(self):
        atoms = self._atoms()
        with pytest.raises(CertificateError):
            check_farkas([-1, 3],
                         [(1, Fraction(1)), (-3, Fraction(1))], atoms)


class TestRupChecker:
    def test_unit_closure_and_rup(self):
        checker = RupChecker()
        checker.add_clause([1])
        checker.add_clause([-1, 2])
        assert checker.is_rup([2])          # follows by propagation
        assert not checker.is_rup([3])      # unrelated

    def test_contradictory_database_accepts_everything(self):
        checker = RupChecker()
        checker.add_clause([1])
        checker.add_clause([-1])
        assert checker.contradictory
        assert checker.is_rup([])

    def test_check_rup_proof_end_to_end(self):
        steps = [ProofStep(INPUT, (1, 2)), ProofStep(INPUT, (1, -2)),
                 ProofStep(INPUT, (-1, 2)), ProofStep(INPUT, (-1, -2)),
                 ProofStep(RUP, (1,)), ProofStep(RUP, ())]
        rup_steps, theory = check_rup_proof(steps, {})
        assert (rup_steps, theory) == (2, 0)

    def test_non_rup_step_rejected(self):
        steps = [ProofStep(INPUT, (1, 2)), ProofStep(RUP, (1,))]
        with pytest.raises(CertificateError):
            check_rup_proof(steps, {})

    def test_open_proof_rejected(self):
        steps = [ProofStep(INPUT, (1, 2))]
        with pytest.raises(CertificateError):
            check_rup_proof(steps, {})

    def test_assumption_claim(self):
        steps = [ProofStep(INPUT, (-1, 2)), ProofStep(INPUT, (-2,))]
        # Under assumption lit 1 the clauses are contradictory, so the
        # clause (-1) must be derivable ...
        check_rup_proof(steps, {}, assumption_lits=(1,))
        # ... but with no assumptions the set is satisfiable.
        with pytest.raises(CertificateError):
            check_rup_proof(steps, {})


class TestRandomizedDifferential:
    """Random formulas: every answer must survive its certificate."""

    def test_random_mixed_formulas(self):
        rng = random.Random(20260806)
        sat = unsat = 0
        for round_no in range(40):
            solver = certified_solver()
            bools = [BoolVar(f"b{round_no}_{i}") for i in range(4)]
            reals = [RealVar(f"r{round_no}_{i}") for i in range(3)]
            for _ in range(rng.randint(3, 8)):
                kind = rng.random()
                if kind < 0.4:
                    lits = [b if rng.random() < 0.5 else Not(b)
                            for b in rng.sample(bools, rng.randint(1, 3))]
                    solver.add(Or(*lits))
                elif kind < 0.8:
                    expr = sum((rng.randint(-3, 3) * v for v in reals),
                               rng.randint(-2, 2) * reals[0])
                    bound = rng.randint(-6, 6)
                    atom = expr <= bound if rng.random() < 0.5 \
                        else expr >= bound
                    guard = rng.choice(bools)
                    solver.add(Or(atom, guard) if rng.random() < 0.5
                               else atom)
                else:
                    solver.add(at_most(bools, rng.randint(0, 2)))
            result = solver.solve()
            if result is SolveResult.SAT:
                sat += 1
                verify_sat(solver)
            else:
                unsat += 1
                verify_unsat(solver)
        assert sat and unsat      # the mix must exercise both paths


def _warm_unsat_certificates(seed: int, rounds: int = 40):
    """A seeded push / assert / solve-under-assumptions / pop run on one
    certified solver, yielding ``(solver, certificate)`` at every UNSAT
    answer, before the solver goes on."""
    rng = random.Random(seed)
    solver = certified_solver()
    bools = [BoolVar(f"w{i}") for i in range(5)]
    reals = [RealVar(f"x{i}") for i in range(3)]

    def term():
        if rng.random() < 0.5:
            return Or(*[b if rng.random() < 0.5 else Not(b)
                        for b in rng.sample(bools, rng.randint(1, 2))])
        expr = sum((rng.randint(-3, 3) * v for v in reals),
                   rng.randint(-2, 2) * reals[0])
        bound = rng.randint(-6, 6)
        atom = expr <= bound if rng.random() < 0.5 else expr >= bound
        return Or(atom, rng.choice(bools)) if rng.random() < 0.5 else atom

    solver.add(term())
    for _ in range(rounds):
        solver.push()
        for _ in range(rng.randint(3, 6)):
            solver.add(term())
        assumptions = [b if rng.random() < 0.5 else Not(b)
                       for b in rng.sample(bools, rng.randint(1, 4))]
        if solver.solve(assumptions) is SolveResult.UNSAT:
            yield solver, solver.last_certificate
        solver.pop()


def _accepts(check) -> bool:
    try:
        check()
    except CertificateError:
        return False
    return True


class TestResumedReplay:
    """``verify_unsat`` resumes from the verified prefix of a warm
    solver's proof log; it must accept and reject exactly what a full
    replay from step 0 does, and check each step only once."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_verdict_as_a_full_replay(self, seed):
        rng = random.Random(seed)
        verdicts = []
        for solver, certificate in _warm_unsat_certificates(seed):
            atoms = solver.atom_of_var
            variants = [
                # the claim without its assumptions: a resumed prefix
                # with a final claim that may not hold
                UnsatCertificate(certificate.proof, certificate.num_steps),
                # fewer steps than were verified: a restart from step 0
                truncate_proof(certificate,
                               rng.randint(1, certificate.num_steps)),
                certificate,
            ]
            for variant in variants:
                resumed = _accepts(lambda: verify_unsat(solver, variant))
                full = _accepts(lambda: check_rup_proof(
                    variant.steps, atoms, variant.assumption_lits))
                assert resumed == full
                verdicts.append(resumed)
            assert verdicts[-1] is True   # the genuine certificate
        assert len(verdicts) >= 30
        assert False in verdicts

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_step_is_checked_once(self, seed):
        verified = checks = longest = 0
        solver = None
        for solver, certificate in _warm_unsat_certificates(seed):
            report = verify_unsat(solver, certificate)
            verified += report.rup_steps + report.theory_lemmas
            longest = max(longest, certificate.num_steps)
            checks += 1
        prefix = solver.proof.steps[:longest]
        assert checks >= 10
        assert verified == sum(1 for step in prefix
                               if step.kind in (RUP, THEORY))
        assert verified > 0

    def test_another_atom_map_restarts_the_replay(self):
        solver = certified_solver()
        x, y = RealVar("x"), RealVar("y")
        solver.add(x <= y)
        solver.add(y <= x - 1)
        assert solver.solve() is SolveResult.UNSAT
        certificate = solver.last_certificate
        assert verify_unsat(solver, certificate).theory_lemmas >= 1
        # A solver that never saw these atoms cannot vouch for the
        # Farkas witnesses: the prefix verified under the first map
        # must not be reused.
        with pytest.raises(CertificateError):
            verify_unsat(certified_solver(), certificate)
