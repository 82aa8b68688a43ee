"""Proof-log data structures for certified solving.

The SAT core, when certificate generation is enabled, appends one
:class:`ProofStep` per clause it ever relies on, in chronological order:

``"input"``
    A clause given to :meth:`SatSolver.add_clause`, logged *before* the
    level-0 simplifications (tautology/satisfied/falsified-literal
    filtering).  Logging the unsimplified clause is sound because every
    simplification is justified by level-0 units that are themselves
    logged inputs.

``"rup"``
    A learned clause (first-UIP).  CDCL learned clauses are derivable by
    input resolution from the clauses present at learning time, which
    makes them checkable by Reverse Unit Propagation: assert the negation
    of every literal and unit-propagate over the preceding steps — a
    conflict must follow.

``"theory"``
    A theory lemma produced from a simplex conflict explanation.  Theory
    lemmas are *not* RUP-derivable (their validity lives in linear
    arithmetic), so each carries a Farkas witness: nonnegative rational
    coefficients over the conflicting atom literals whose combination is
    the contradiction ``0 <= c`` with ``c < 0`` (or ``0 < 0``).

The log is append-only and survives clause-database reductions — the
checker may use deleted learned clauses, which is sound because they were
themselves verified steps.  :class:`UnsatCertificate` snapshots the log
length at the moment an UNSAT answer is produced, so clauses asserted
later (e.g. blocking clauses from an enumerate-and-block loop) cannot
leak into the check of an earlier answer.

Because the log only grows, the checker verifies each step once: a
later certificate over the same log resumes from the prefix an earlier
check accepted.  :class:`ProofLog` therefore compares and hashes by
identity, so it can key that per-log replay state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

INPUT = "input"
RUP = "rup"
THEORY = "theory"


@dataclass(frozen=True)
class ProofStep:
    """One clause in the chronological proof log."""

    kind: str                    # INPUT | RUP | THEORY
    lits: Tuple[int, ...]        # DIMACS-convention literals
    #: Farkas witness for THEORY steps: ``(literal, coefficient)`` pairs
    #: over the conflict explanation (the *negations* of ``lits``).
    #: ``None`` for INPUT/RUP steps, or when witness generation was
    #: impossible (the checker then rejects the step — never accepts).
    witness: Optional[Tuple[Tuple[int, Fraction], ...]] = None


@dataclass(eq=False)
class ProofLog:
    """Append-only chronological clause log (see module docstring).

    Equality and hashing are by identity: two logs are the same log
    only if they are the same object."""

    steps: List[ProofStep] = field(default_factory=list)

    def add_input(self, lits) -> None:
        self.steps.append(ProofStep(INPUT, tuple(lits)))

    def add_rup(self, lits) -> None:
        self.steps.append(ProofStep(RUP, tuple(lits)))

    def add_theory(self, lits, witness) -> None:
        self.steps.append(ProofStep(
            THEORY, tuple(lits),
            None if witness is None else tuple(witness)))

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class UnsatCertificate:
    """An UNSAT answer plus everything needed to check it independently.

    The answer claims: the input clauses up to step ``num_steps`` entail
    the falsity of the conjunction of ``assumption_lits`` (the empty
    conjunction — plain UNSAT — when no assumptions were used).  The
    checker in :mod:`repro.smt.certificates` verifies every step in
    order and finally derives the clause of negated assumptions by RUP.
    """

    proof: ProofLog
    num_steps: int
    assumption_lits: Tuple[int, ...] = ()

    @property
    def steps(self) -> List[ProofStep]:
        return self.proof.steps[:self.num_steps]
