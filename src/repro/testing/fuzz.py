"""Seeded text-level case fuzzing against the preflight boundary.

:class:`CaseFuzzer` derives a deterministic stream of corrupted case
texts from a base case in the paper's input format: dropped, duplicated
and reordered rows, zeroed/negated/garbage tokens, dangling bus
references, truncated or padded rows, deleted section headers and
flipped status flags.  :func:`run_fuzz` drives every mutant through the
same path ``python -m repro analyze`` uses — parse, preflight
validation, analyzer — and tallies the outcomes.

The invariant under test: **no mutated input escapes as an uncaught
exception**.  Every mutant must either analyze to a definitive verdict
(``sat``/``unsat``) or be rejected with structured diagnostics
(``invalid_input``/``degenerate_case``).  A mutant that raises anything
instead is recorded as an ``escape`` — the failure mode the preflight
subsystem exists to eliminate.

Everything is seeded and per-iteration addressable: mutant ``i`` of
``(case, seed)`` is always the same text, so an escape found in CI
replays locally with ``python -m repro fuzz --case ... --seed ...``.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import InputFormatError
from repro.grid.caseio import parse_case, write_case
from repro.validation import DEGENERATE_CASE, INVALID_INPUT

#: synthetic outcome status for a mutant that raised instead of being
#: analyzed or rejected.
ESCAPE = "escape"

#: replacement tokens chosen to hit distinct failure classes: zero and
#: negative parameters, a zero denominator, non-numeric junk, a
#: dangling index, and an absurd magnitude.
_GARBAGE_TOKENS = ("0", "-1", "1/0", "nan", "bogus", "97", "999999",
                   "-3/7", "0.0.1", "")

#: limits of the fresh SolverBudget each SMT-analyzed mutant gets: a
#: decision count, not a wall clock, so a seeded run tallies the same
#: statuses on any machine.
MUTANT_BUDGET = {"max_decisions": 100_000}


def _data_indices(rows: List[str]) -> List[int]:
    return [i for i, row in enumerate(rows)
            if row.strip() and not row.lstrip().startswith("#")]


def _header_indices(rows: List[str]) -> List[int]:
    return [i for i, row in enumerate(rows)
            if row.lstrip().startswith("#")]


def _pick_token(rng: random.Random, rows: List[str]):
    """A random (row index, token index, tokens) triple, or None."""
    candidates = _data_indices(rows)
    if not candidates:
        return None
    row = rng.choice(candidates)
    tokens = rows[row].split()
    return row, rng.randrange(len(tokens)), tokens


def _drop_row(rng: random.Random, rows: List[str]) -> Optional[str]:
    candidates = _data_indices(rows)
    if not candidates:
        return None
    removed = rows.pop(rng.choice(candidates))
    return f"drop row {removed!r}"


def _duplicate_row(rng, rows: List[str]) -> Optional[str]:
    candidates = _data_indices(rows)
    if not candidates:
        return None
    index = rng.choice(candidates)
    rows.insert(index, rows[index])
    return f"duplicate row {rows[index]!r}"


def _swap_rows(rng, rows: List[str]) -> Optional[str]:
    candidates = _data_indices(rows)
    if len(candidates) < 2:
        return None
    a, b = rng.sample(candidates, 2)
    rows[a], rows[b] = rows[b], rows[a]
    return f"swap rows {a} and {b}"


def _drop_header(rng, rows: List[str]) -> Optional[str]:
    candidates = _header_indices(rows)
    if not candidates:
        return None
    removed = rows.pop(rng.choice(candidates))
    return f"drop header {removed!r}"


def _corrupt_token(rng, rows: List[str]) -> Optional[str]:
    picked = _pick_token(rng, rows)
    if picked is None:
        return None
    row, col, tokens = picked
    garbage = rng.choice(_GARBAGE_TOKENS)
    old = tokens[col]
    tokens[col] = garbage
    rows[row] = " ".join(token for token in tokens if token)
    return f"row {row}: token {old!r} -> {garbage!r}"


def _negate_token(rng, rows: List[str]) -> Optional[str]:
    picked = _pick_token(rng, rows)
    if picked is None:
        return None
    row, col, tokens = picked
    old = tokens[col]
    tokens[col] = old[1:] if old.startswith("-") else "-" + old
    rows[row] = " ".join(tokens)
    return f"row {row}: negate {old!r}"


def _flip_flag(rng, rows: List[str]) -> Optional[str]:
    candidates = []
    for i in _data_indices(rows):
        for j, token in enumerate(rows[i].split()):
            if token in ("0", "1"):
                candidates.append((i, j))
    if not candidates:
        return None
    row, col = rng.choice(candidates)
    tokens = rows[row].split()
    tokens[col] = "1" if tokens[col] == "0" else "0"
    rows[row] = " ".join(tokens)
    return f"row {row}: flip flag {col}"


def _truncate_row(rng, rows: List[str]) -> Optional[str]:
    candidates = [i for i in _data_indices(rows)
                  if len(rows[i].split()) > 1]
    if not candidates:
        return None
    index = rng.choice(candidates)
    rows[index] = " ".join(rows[index].split()[:-1])
    return f"row {index}: drop last field"


def _pad_row(rng, rows: List[str]) -> Optional[str]:
    candidates = _data_indices(rows)
    if not candidates:
        return None
    index = rng.choice(candidates)
    rows[index] = rows[index] + " 1"
    return f"row {index}: append stray field"


#: all mutation operators; each either mutates ``rows`` in place and
#: returns a description, or returns None when not applicable.
OPERATORS: Tuple[Callable[[random.Random, List[str]],
                          Optional[str]], ...] = (
    _drop_row, _duplicate_row, _swap_rows, _drop_header,
    _corrupt_token, _corrupt_token, _negate_token, _flip_flag,
    _flip_flag, _truncate_row, _pad_row,
)


@dataclass(frozen=True)
class Mutant:
    """One corrupted case text, addressable by iteration number."""

    iteration: int
    text: str
    mutations: Tuple[str, ...]


class CaseFuzzer:
    """Deterministic stream of corrupted case texts.

    Mutant ``i`` depends only on ``(base_text, seed, i)`` — iterations
    are independently addressable, so one escaping mutant can be
    regenerated without replaying the stream.
    """

    def __init__(self, base_text: str, seed: int = 0,
                 max_mutations: int = 3) -> None:
        self.base_text = base_text
        self.seed = seed
        self.max_mutations = max_mutations

    def mutant(self, iteration: int) -> Mutant:
        rng = random.Random(f"{self.seed}:{iteration}")
        rows = self.base_text.splitlines()
        applied: List[str] = []
        wanted = rng.randint(1, self.max_mutations)
        # operators can decline (no applicable site); bound the retries
        # so a pathological base text still terminates.
        for _ in range(10 * wanted):
            if len(applied) >= wanted:
                break
            description = rng.choice(OPERATORS)(rng, rows)
            if description is not None:
                applied.append(description)
        return Mutant(iteration, "\n".join(rows) + "\n", tuple(applied))

    def mutants(self, count: int) -> Iterator[Mutant]:
        for iteration in range(count):
            yield self.mutant(iteration)


# -- driving mutants through the analyze path ---------------------------

def analyze_text(text: str, *, analyzer: str = "fast",
                 state_samples: int = 2) -> Tuple[str, Optional[str]]:
    """Drive one case text through parse → preflight → analysis.

    Returns ``(status, detail)`` where status is ``sat``/``unsat``, a
    rejection status, or the analyzer's own non-verdict status.  Parse
    failures come back as ``invalid_input`` — exactly what the CLI
    reports.  Anything raised past :class:`InputFormatError` propagates
    to the caller (and is an escape for the fuzz driver).
    """
    try:
        case = parse_case(text, name="fuzz")
    except InputFormatError as exc:
        return INVALID_INPUT, str(exc)
    if analyzer == "fast":
        from repro.core import FastImpactAnalyzer, FastQuery
        report = FastImpactAnalyzer(case).analyze(
            FastQuery(state_samples=state_samples))
    else:
        from repro.core import ImpactAnalyzer, ImpactQuery
        from repro.smt import SolverBudget
        report = ImpactAnalyzer(case).analyze(
            ImpactQuery(budget=SolverBudget(**MUTANT_BUDGET)))
    if report.status == "complete":
        return ("sat" if report.satisfiable else "unsat"), None
    detail = None
    if report.diagnostics is not None:
        detail = "; ".join(d.code for d in report.diagnostics.fatal)
    return report.status, detail


@dataclass
class FuzzRecord:
    """Outcome of one mutant."""

    iteration: int
    status: str
    mutations: Tuple[str, ...]
    detail: Optional[str] = None  # fatal codes, or an escape traceback


@dataclass
class FuzzReport:
    """Aggregated result of a fuzz run."""

    case: str
    analyzer: str
    seed: int
    iterations: int
    counts: Dict[str, int] = field(default_factory=dict)
    escapes: List[FuzzRecord] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: True when a ``time_limit`` stopped the run before ``iterations``
    #: mutants were examined (``iterations`` then holds the count done).
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.escapes

    def render(self) -> str:
        lines = [f"fuzz {self.case} (analyzer={self.analyzer}, "
                 f"seed={self.seed}): {self.iterations} mutants in "
                 f"{self.elapsed_seconds:.1f}s"
                 + (" [truncated by time limit]" if self.truncated
                    else "")]
        for status in sorted(self.counts):
            lines.append(f"  {status:16s} {self.counts[status]}")
        for record in self.escapes:
            lines.append(f"ESCAPE at iteration {record.iteration} "
                         f"(mutations: {', '.join(record.mutations)}):")
            for raw in (record.detail or "").rstrip().splitlines():
                lines.append(f"  {raw}")
        if self.ok:
            lines.append("no mutant escaped the preflight boundary")
        return "\n".join(lines)


def run_fuzz(base_text: str, *, case: str = "case", seed: int = 0,
             iterations: int = 100, analyzer: str = "fast",
             max_mutations: int = 3,
             time_limit: Optional[float] = None,
             on_record: Optional[Callable[[FuzzRecord], None]] = None,
             ) -> FuzzReport:
    """Fuzz ``base_text`` for ``iterations`` mutants; tally outcomes.

    Never raises on a misbehaving mutant: exceptions are captured as
    ``escape`` records with their tracebacks.  ``time_limit`` (seconds)
    bounds the whole run — exceeded, the report comes back truncated
    instead of the run overshooting a CI budget.  ``on_record`` (if
    given) observes every record as it is produced.
    """
    fuzzer = CaseFuzzer(base_text, seed=seed, max_mutations=max_mutations)
    report = FuzzReport(case=case, analyzer=analyzer, seed=seed,
                        iterations=iterations)
    started = time.monotonic()
    for mutant in fuzzer.mutants(iterations):
        if time_limit is not None \
                and time.monotonic() - started > time_limit:
            report.truncated = True
            report.iterations = mutant.iteration
            break
        try:
            status, detail = analyze_text(mutant.text, analyzer=analyzer)
        except Exception:
            status, detail = ESCAPE, traceback.format_exc()
        record = FuzzRecord(mutant.iteration, status, mutant.mutations,
                            detail)
        report.counts[status] = report.counts.get(status, 0) + 1
        if status == ESCAPE:
            report.escapes.append(record)
        if on_record is not None:
            on_record(record)
    report.elapsed_seconds = time.monotonic() - started
    return report


def fuzz_bundled_case(name: str, *, seed: int = 0,
                      iterations: int = 100, analyzer: str = "fast",
                      max_mutations: int = 3,
                      time_limit: Optional[float] = None) -> FuzzReport:
    """Fuzz one bundled case (by name) through the analyze path."""
    from repro.grid.cases import get_case
    base_text = write_case(get_case(name))
    return run_fuzz(base_text, case=name, seed=seed,
                    iterations=iterations, analyzer=analyzer,
                    max_mutations=max_mutations, time_limit=time_limit)
