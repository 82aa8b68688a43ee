"""Independent certificate checkers for certified solving.

This module audits answers produced by the DPLL(T) stack without sharing
any code with the search loops it checks:

``check_model``
    Evaluates every original (pre-CNF) assertion under a model with
    exact rational arithmetic, via :mod:`repro.smt.evaluator`.  A SAT
    answer is accepted only if every assertion evaluates to True.

``check_rup_proof``
    Replays the chronological proof log with its own unit-propagation
    loop (occurrence lists + an incrementally maintained root closure —
    deliberately *not* the solver's two-watched-literal engine).  Each
    learned clause must be derivable by Reverse Unit Propagation from
    the preceding steps; each theory lemma must carry a valid Farkas
    witness; finally the clause of negated assumption literals (the
    empty clause for plain UNSAT) must itself be RUP.

``verify_unsat``
    Checks a solver's UNSAT answer with the same step loop, but checks
    each step of a proof log only once.  A warm solver answers many
    UNSAT queries over one append-only log, so the checker keeps, per
    log, the :class:`RupChecker` state of the prefix it has already
    verified and resumes from there: a certificate over ``num_steps``
    steps costs only the steps appended since the last check, plus its
    own final claim.  The state after a prefix depends only on that
    prefix, so every accept and every reject is the one a full replay
    would give.  The replay starts again from step 0 when the log's
    verified prefix is no longer the same steps, when a certificate
    covers fewer steps than were verified (a truncated proof), or when
    the atom map differs.  A failing step is never added to the state,
    so the next check fails on it again.  The state is owned by its
    log and freed with it.  :class:`CheckReport` counts the steps this
    call verified, not the certificate's length.

``check_farkas``
    Verifies a Farkas witness arithmetically: the nonnegative rational
    combination of the conflicting atoms' inequalities must cancel every
    real variable and leave a contradictory constant (``0 <= c`` with
    ``c < 0``, or ``0 < 0`` when a strict inequality participates with
    positive coefficient).

All failures raise :class:`~repro.exceptions.CertificateError`; a
certificate is never "partially" accepted.
"""

from __future__ import annotations

import os
import time
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import CertificateError
from repro.smt.evaluator import evaluate
from repro.smt.proof import (
    INPUT,
    RUP,
    THEORY,
    ProofLog,
    ProofStep,
    UnsatCertificate,
)
from repro.smt.solver import Model, SmtSolver
from repro.smt.terms import Atom, BoolTerm, RealVar


def self_check_default(flag: Optional[bool] = None) -> bool:
    """Resolve a tri-state self-check flag: an explicit True/False wins,
    None defers to the ``REPRO_SELF_CHECK`` environment variable."""
    if flag is not None:
        return bool(flag)
    value = os.environ.get("REPRO_SELF_CHECK", "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


@dataclass(frozen=True)
class CheckReport:
    """Summary of one successful certificate verification."""

    kind: str                 # "model" | "unsat"
    terms_checked: int = 0    # assertions evaluated (model checks)
    rup_steps: int = 0        # learned clauses verified by this check
    theory_lemmas: int = 0    # Farkas witnesses verified by this check
    seconds: float = 0.0


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------

def check_model(terms: Sequence[BoolTerm], model: Model) -> int:
    """Require every term to evaluate to True under *model*.

    Returns the number of terms checked; raises
    :class:`CertificateError` naming the first violated assertion.
    """
    for index, term in enumerate(terms):
        if evaluate(term, model) is not True:
            raise CertificateError(
                f"model check failed: assertion {index} of {len(terms)} "
                f"evaluates to False ({term!r})")
    return len(terms)


# ---------------------------------------------------------------------------
# Farkas witness checking
# ---------------------------------------------------------------------------

def check_farkas(clause: Sequence[int],
                 witness: Optional[Sequence[Tuple[int, Fraction]]],
                 atoms: Mapping[int, Atom]) -> None:
    """Verify that *witness* refutes the conjunction refuted by *clause*.

    *clause* is a theory lemma ``Or(not l_1, ..., not l_k)``; the witness
    assigns a nonnegative rational coefficient to each explanation
    literal ``l_i``.  Validity requires the coefficient-weighted sum of
    the literals' inequalities to cancel every real variable and leave
    an unsatisfiable constant comparison.
    """
    if witness is None:
        raise CertificateError("theory lemma carries no Farkas witness")
    coeffs: Dict[int, Fraction] = {}
    for lit, coeff in witness:
        coeff = Fraction(coeff)
        if coeff < 0:
            raise CertificateError(
                f"Farkas coefficient for literal {lit} is negative")
        coeffs[lit] = coeffs.get(lit, Fraction(0)) + coeff
    if {-lit for lit in coeffs} != set(clause):
        raise CertificateError(
            "Farkas witness literals do not match the theory lemma")

    combination: Dict[RealVar, Fraction] = {}
    rhs = Fraction(0)
    strict = False
    for lit, coeff in coeffs.items():
        if coeff == 0:
            continue
        atom = atoms.get(abs(lit))
        if atom is None:
            raise CertificateError(
                f"witness literal {lit} does not name a theory atom")
        if atom.op not in (Atom.LE, Atom.LT):
            raise CertificateError(
                f"witness atom has non-inequality operator {atom.op!r}")
        # A true positive literal asserts expr OP bound; a true negative
        # literal asserts the negation, i.e. -expr (<|<=) -bound with
        # strictness flipped.
        sign = 1 if lit > 0 else -1
        if lit > 0:
            is_strict = atom.op == Atom.LT
        else:
            is_strict = atom.op == Atom.LE
        for var, c in atom.expr.coeffs.items():
            total = combination.get(var, Fraction(0)) + coeff * sign * c
            if total == 0:
                combination.pop(var, None)
            else:
                combination[var] = total
        rhs += coeff * sign * (atom.bound - atom.expr.const)
        strict = strict or is_strict
    if combination:
        raise CertificateError(
            "Farkas combination does not cancel all real variables")
    if not (rhs < 0 or (rhs == 0 and strict)):
        raise CertificateError(
            f"Farkas combination is not contradictory (0 "
            f"{'<' if strict else '<='} {rhs} is satisfiable)")


# ---------------------------------------------------------------------------
# RUP proof checking
# ---------------------------------------------------------------------------

class RupChecker:
    """Clause database with an independent unit-propagation engine.

    Maintains the closure of root-level units incrementally as clauses
    are added; :meth:`is_rup` then only propagates the candidate
    clause's negated literals on top of that closure.
    """

    def __init__(self) -> None:
        self._clauses: List[Tuple[int, ...]] = []
        self._occ: Dict[int, List[int]] = {}
        self._root: Dict[int, bool] = {}   # lit -> True (true at root)
        self.contradictory = False

    def _root_value(self, lit: int) -> Optional[bool]:
        if self._root.get(lit):
            return True
        if self._root.get(-lit):
            return False
        return None

    def add_clause(self, lits: Sequence[int]) -> None:
        if self.contradictory:
            return
        clause = tuple(lits)
        index = len(self._clauses)
        self._clauses.append(clause)
        for lit in clause:
            self._occ.setdefault(lit, []).append(index)
        status, unit = self._examine(clause, {})
        if status == "conflict":
            self.contradictory = True
        elif status == "unit":
            self._propagate_root(unit)

    def _examine(self, clause: Tuple[int, ...],
                 overlay: Dict[int, bool]):
        """Classify *clause* under root + overlay assignment."""
        unit = None
        for lit in clause:
            value = overlay.get(lit)
            if value is None and overlay.get(-lit):
                value = False
            if value is None:
                value = self._root_value(lit)
            if value is True:
                return "satisfied", None
            if value is None:
                if unit is None:
                    unit = lit
                elif unit != lit:
                    return "open", None
        if unit is None:
            return "conflict", None
        return "unit", unit

    def _propagate_root(self, lit: int) -> None:
        queue = [lit]
        while queue:
            lit = queue.pop()
            if self._root.get(lit):
                continue
            if self._root.get(-lit):
                self.contradictory = True
                return
            self._root[lit] = True
            for index in self._occ.get(-lit, ()):
                status, unit = self._examine(self._clauses[index], {})
                if status == "conflict":
                    self.contradictory = True
                    return
                if status == "unit":
                    queue.append(unit)

    def is_rup(self, lits: Sequence[int]) -> bool:
        """True iff asserting the negation of every literal and
        unit-propagating over the database yields a conflict."""
        if self.contradictory:
            return True
        overlay: Dict[int, bool] = {}
        queue: List[int] = []
        for lit in lits:
            negated = -lit
            value = self._root_value(negated)
            if value is None and overlay.get(-negated):
                value = False
            if value is False:
                return True    # some clause literal already true
            if value is None and not overlay.get(negated):
                overlay[negated] = True
                queue.append(negated)
        head = 0
        while head < len(queue):
            lit = queue[head]
            head += 1
            for index in self._occ.get(-lit, ()):
                status, unit = self._examine(self._clauses[index], overlay)
                if status == "conflict":
                    return True
                if status == "unit":
                    overlay[unit] = True
                    queue.append(unit)
        return False


class _Replay:
    """A :class:`RupChecker` over the verified prefix of one proof log:
    the steps it accepted, in order, and the atom map it used."""

    def __init__(self, atoms: Mapping[int, Atom]) -> None:
        self.atoms = atoms
        self.checker = RupChecker()
        self.verified: List[ProofStep] = []

    def extend(self, steps: Sequence[ProofStep]) -> Tuple[int, int]:
        """Verify *steps* in order on top of the prefix, adding each one
        once it is accepted.  Returns ``(rup_steps, theory_lemmas)``;
        raises :class:`CertificateError` on the first invalid step."""
        checker, verified = self.checker, self.verified
        rup_steps = 0
        theory_lemmas = 0
        for step in steps:
            if step.kind == INPUT:
                pass
            elif step.kind == RUP:
                if not checker.is_rup(step.lits):
                    raise CertificateError(
                        f"proof step {len(verified)}: learned clause "
                        f"{list(step.lits)} is not RUP")
                rup_steps += 1
            elif step.kind == THEORY:
                check_farkas(step.lits, step.witness, self.atoms)
                theory_lemmas += 1
            else:
                raise CertificateError(
                    f"proof step {len(verified)}: unknown kind "
                    f"{step.kind!r}")
            checker.add_clause(step.lits)
            verified.append(step)
        return rup_steps, theory_lemmas

    def check_claim(self, assumption_lits: Sequence[int]) -> None:
        """Require the clause of negated *assumption_lits* (the empty
        clause when there are none) to be RUP over the prefix."""
        if not self.checker.is_rup([-lit for lit in assumption_lits]):
            raise CertificateError(
                "the proof does not refute the asserted clauses"
                + (" under the given assumptions" if assumption_lits
                   else ""))


#: proof log -> replay state of its verified prefix (see module docstring).
_REPLAYS: "weakref.WeakKeyDictionary[ProofLog, _Replay]" = \
    weakref.WeakKeyDictionary()


def check_rup_proof(steps: Sequence[ProofStep],
                    atoms: Mapping[int, Atom],
                    assumption_lits: Sequence[int] = ()) -> Tuple[int, int]:
    """Verify a chronological proof and its final UNSAT claim.

    Returns ``(rup_steps, theory_lemmas)`` on success; raises
    :class:`CertificateError` on the first invalid step.  The final
    claim — the clause of negated assumption literals, or the empty
    clause when there are none — must be RUP over the full verified log.
    """
    replay = _Replay(atoms)
    counts = replay.extend(steps)
    replay.check_claim(assumption_lits)
    return counts


# ---------------------------------------------------------------------------
# Solver-level entry points
# ---------------------------------------------------------------------------

def verify_sat(solver: SmtSolver, model: Optional[Model] = None,
               assumptions: Optional[Sequence[BoolTerm]] = None,
               extra_terms: Sequence[BoolTerm] = ()) -> CheckReport:
    """Check a SAT answer: the model must satisfy every active original
    assertion plus the assumptions the answer was produced under."""
    started = time.perf_counter()
    if not solver.certify:
        raise CertificateError(
            "cannot verify a SAT answer: solver is not in certify mode")
    if model is None:
        model = solver.model()
    if assumptions is None:
        assumptions = solver.last_assumptions
    terms = (solver.active_assertions() + list(assumptions)
             + list(extra_terms))
    checked = check_model(terms, model)
    return CheckReport("model", terms_checked=checked,
                       seconds=time.perf_counter() - started)


def verify_unsat(solver: SmtSolver,
                 certificate: Optional[UnsatCertificate] = None
                 ) -> CheckReport:
    """Check an UNSAT answer against its recorded proof, resuming from
    the verified prefix of the certificate's log (module docstring)."""
    started = time.perf_counter()
    if not solver.certify:
        raise CertificateError(
            "cannot verify an UNSAT answer: solver is not in certify mode")
    if certificate is None:
        certificate = solver.last_certificate
    if certificate is None:
        raise CertificateError("no UNSAT certificate was recorded")
    proof, num_steps = certificate.proof, certificate.num_steps
    atoms = solver.atom_of_var
    replay = _REPLAYS.get(proof)
    if replay is None or replay.atoms is not atoms \
            or num_steps < len(replay.verified) \
            or proof.steps[:len(replay.verified)] != replay.verified:
        replay = _REPLAYS[proof] = _Replay(atoms)
    rup_steps, theory_lemmas = replay.extend(
        proof.steps[len(replay.verified):num_steps])
    replay.check_claim(certificate.assumption_lits)
    return CheckReport("unsat", rup_steps=rup_steps,
                       theory_lemmas=theory_lemmas,
                       seconds=time.perf_counter() - started)
