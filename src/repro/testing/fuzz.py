"""Seeded case fuzzing: one mutator, one driver, one oracle.

:class:`CaseFuzzer` derives a deterministic stream of mutants from a
base case in the paper's input format.  Each mutant draws one of two
operator families:

* **text** — corrupts the case text against the preflight boundary:
  dropped, duplicated and reordered rows, zeroed/negated/garbage
  tokens, dangling bus references, truncated or padded rows, deleted
  section headers and flipped status flags;
* **numeric** — corrupts the parsed case's numbers against the
  numerical-integrity layer: near-singular susceptance matrices
  (admittances scaled toward zero), extreme admittance ratios, shed
  measurements, loads pinned a hair inside their plausibility bounds
  and squeezed line capacities.  Numeric mutants stay well formed and
  are written back with the lossless :func:`~repro.grid.caseio.write_case`.

Either way a mutant is one case text, and :func:`run_fuzz` drives it
through the same parse → preflight → analyze path ``python -m repro
analyze`` uses.  One oracle checks every mutant:

* **no escape** — no mutant raises an uncaught exception; it analyzes
  to a verdict or comes back rejected or degraded with structured
  diagnostics (``invalid_input``, ``degenerate_case``,
  ``numerical_unstable``).  A mutant that raises instead is recorded
  as an ``escape``;
* **no silent float/exact disagreement** (fast analyzer) — the float
  verdict agrees with the verdict re-decided on the exact rational path
  (Eq. 37 escalation band forced open), or the float report shows the
  divergence (a ``numeric.boundary_escalated`` note or a
  non-``complete`` status);
* **boundary probe** (fast analyzer) — a sat verdict whose achieved
  increase is replayed as the target sits exactly on the inclusive
  Eq. 37 boundary, and must stay sat or visibly escalate.

Everything is seeded and per-iteration addressable: mutant ``i`` of
``(case, seed, max_mutations)`` is always the same text, so a failure
found in CI replays locally with ``python -m repro fuzz --case ...
--seed ...``.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import InputFormatError
from repro.grid.caseio import CaseDefinition, parse_case, write_case
from repro.validation import INVALID_INPUT

#: synthetic outcome status for a mutant that raised instead of being
#: analyzed or rejected.
ESCAPE = "escape"

#: the two operator families a mutant draws from.
TEXT = "text"
NUMERIC = "numeric"

#: replacement tokens chosen to hit distinct failure classes: zero and
#: negative parameters, a zero denominator, non-numeric junk, a
#: dangling index, and an absurd magnitude.
_GARBAGE_TOKENS = ("0", "-1", "1/0", "nan", "bogus", "97", "999999",
                   "-3/7", "0.0.1", "")

#: limits of the fresh SolverBudget each SMT-analyzed mutant gets: a
#: decision count, not a wall clock, so a seeded run tallies the same
#: statuses on any machine.
MUTANT_BUDGET = {"max_decisions": 100_000}

#: run-note code the session attaches when a verdict was escalated.
_ESCALATION_CODE = "numeric.boundary_escalated"


# -- text operators ------------------------------------------------------
#
# Each mutates the case text's ``rows`` in place and returns a
# description, or returns None when it has no applicable site.

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


# -- numeric operators ---------------------------------------------------
#
# Each mutates a clone of the parsed base ``case`` in place and returns
# a description, or returns None when it has no applicable site.  All
# mutants stay well formed (positive admittances, loads inside their
# bounds): the text family is the one aimed at the parser.

def _near_singular_line(rng: random.Random,
                        case: CaseDefinition) -> Optional[str]:
    """Scale one admittance toward zero: B drifts toward singular."""
    position = rng.randrange(len(case.line_specs))
    spec = case.line_specs[position]
    k = rng.randint(6, 12)
    case.line_specs[position] = replace(
        spec, admittance=spec.admittance / 10 ** k)
    return f"line {spec.index}: admittance /1e{k} (near-singular B)"


def _huge_admittance(rng: random.Random,
                     case: CaseDefinition) -> Optional[str]:
    position = rng.randrange(len(case.line_specs))
    spec = case.line_specs[position]
    k = rng.randint(4, 9)
    case.line_specs[position] = replace(
        spec, admittance=spec.admittance * 10 ** k)
    return f"line {spec.index}: admittance x1e{k}"


def _extreme_ratio(rng: random.Random,
                   case: CaseDefinition) -> Optional[str]:
    """Push two admittances apart: extreme ratios across the grid."""
    if len(case.line_specs) < 2:
        return None
    up, down = rng.sample(range(len(case.line_specs)), 2)
    k = rng.randint(3, 6)
    up_spec, down_spec = case.line_specs[up], case.line_specs[down]
    case.line_specs[up] = replace(
        up_spec, admittance=up_spec.admittance * 10 ** k)
    case.line_specs[down] = replace(
        down_spec, admittance=down_spec.admittance / 10 ** k)
    return (f"lines {up_spec.index}/{down_spec.index}: "
            f"admittance ratio stretched by 1e{2 * k}")


def _shed_measurements(rng: random.Random,
                       case: CaseDefinition) -> Optional[str]:
    """Clear taken flags: the measurement set nears unobservability."""
    taken = [i for i, m in enumerate(case.measurement_specs) if m.taken]
    if not taken:
        return None
    shed = rng.sample(taken, min(len(taken), rng.randint(1, 4)))
    for position in shed:
        case.measurement_specs[position] = replace(
            case.measurement_specs[position], taken=False)
    dropped = [case.measurement_specs[p].index for p in sorted(shed)]
    return f"measurements {dropped}: taken flag cleared"


def _load_to_bound(rng: random.Random,
                   case: CaseDefinition) -> Optional[str]:
    """Pin one existing load a hair inside its plausibility bound."""
    if not case.loads:
        return None
    position = rng.randrange(len(case.loads))
    load = case.loads[position]
    span = load.p_max - load.p_min
    if span <= 0:
        return None
    margin = span / 10 ** rng.randint(7, 10)
    if rng.random() < 0.5:
        existing, edge = load.p_max - margin, "p_max"
    else:
        existing, edge = load.p_min + margin, "p_min"
    case.loads[position] = replace(load, existing=existing)
    return f"load at bus {load.bus}: existing pinned near {edge}"


def _squeeze_capacity(rng: random.Random,
                      case: CaseDefinition) -> Optional[str]:
    position = rng.randrange(len(case.line_specs))
    spec = case.line_specs[position]
    divisor = rng.randint(2, 8)
    case.line_specs[position] = replace(
        spec, capacity=spec.capacity / divisor)
    return f"line {spec.index}: capacity /{divisor}"


#: operator pools per family.  Repeats are weights: token corruption
#: and flag flips dominate the text family, and the conditioning
#: attacks make up roughly half of all numeric mutations.
OPERATORS: Dict[str, Tuple[Callable, ...]] = {
    TEXT: (_drop_row, _duplicate_row, _swap_rows, _drop_header,
           _corrupt_token, _corrupt_token, _negate_token, _flip_flag,
           _flip_flag, _truncate_row, _pad_row),
    NUMERIC: (_near_singular_line, _near_singular_line,
              _extreme_ratio, _extreme_ratio, _huge_admittance,
              _shed_measurements, _load_to_bound, _squeeze_capacity),
}


def _clone(case: CaseDefinition) -> CaseDefinition:
    """A mutation-safe copy (the list fields are shared by replace())."""
    return replace(case,
                   line_specs=list(case.line_specs),
                   measurement_specs=list(case.measurement_specs),
                   bus_types=list(case.bus_types),
                   generators=list(case.generators),
                   loads=list(case.loads))


@dataclass(frozen=True)
class Mutant:
    """One mutated case text, addressable by iteration number."""

    iteration: int
    text: str
    mutations: Tuple[str, ...]
    family: str


class CaseFuzzer:
    """Deterministic stream of mutated case texts.

    Mutant ``i`` depends only on ``(base_text, seed, max_mutations, i)``
    — iterations are independently addressable, so one failing mutant
    can be regenerated without replaying the stream.  ``base_text`` must
    parse: numeric operators mutate a clone of the parsed case.
    """

    def __init__(self, base_text: str, seed: int = 0,
                 max_mutations: int = 3) -> None:
        self.base_text = base_text
        self.base = parse_case(base_text, name="fuzz")
        self.seed = seed
        self.max_mutations = max_mutations

    def mutant(self, iteration: int) -> Mutant:
        rng = random.Random(f"{self.seed}:{iteration}")
        family = rng.choice((TEXT, NUMERIC))
        subject = self.base_text.splitlines() if family == TEXT \
            else _clone(self.base)
        applied: List[str] = []
        wanted = rng.randint(1, self.max_mutations)
        # operators can decline (no applicable site); bound the retries
        # so a pathological base case still terminates.
        for _ in range(10 * wanted):
            if len(applied) >= wanted:
                break
            description = rng.choice(OPERATORS[family])(rng, subject)
            if description is not None:
                applied.append(description)
        text = "\n".join(subject) + "\n" if family == TEXT \
            else write_case(subject)
        return Mutant(iteration, text, tuple(applied), family)

    def mutants(self, count: int) -> Iterator[Mutant]:
        for iteration in range(count):
            yield self.mutant(iteration)


# -- driving mutants through the analyze path ---------------------------

def analyze_text(text: str, *, analyzer: str = "fast", **query):
    """Drive one case text through parse → preflight → analysis.

    Returns ``(status, report)``: status is ``sat``/``unsat``, a
    rejection status, or the analyzer's own non-verdict status; report
    is the analyzer's report, or None when the text did not parse (an
    ``invalid_input``, exactly what the CLI reports).  ``query``
    overrides fields of the one query both analyzers are asked, which
    samples two attacker states (the fast analyzer's) under
    :data:`MUTANT_BUDGET` (the SMT analyzer's).  Anything raised past
    :class:`InputFormatError` propagates to the caller (and is an
    escape for the fuzz driver).
    """
    from repro.core import ImpactQuery
    from repro.runner.engine import build_analyzer
    from repro.smt import SolverBudget
    try:
        case = parse_case(text, name="fuzz")
    except InputFormatError:
        return INVALID_INPUT, None
    report = build_analyzer(case, analyzer).analyze(ImpactQuery(
        state_samples=2, budget=SolverBudget(**MUTANT_BUDGET), **query))
    if report.status == "complete":
        return ("sat" if report.satisfiable else "unsat"), report
    return report.status, report


def _escalated(report) -> bool:
    return report.diagnostics is not None and any(
        d.code == _ESCALATION_CODE for d in report.diagnostics.diagnostics)


def _escalation_count(report) -> int:
    session = getattr(report.trace, "session", None)
    return int((session or {}).get("boundary_escalations", 0) or 0)


@dataclass
class FuzzRecord:
    """Outcome of one mutant."""

    iteration: int
    status: str
    mutations: Tuple[str, ...]
    detail: Optional[str] = None  # an escape traceback or a disagreement


@dataclass
class FuzzReport:
    """Aggregated result of a fuzz run."""

    case: str
    analyzer: str
    seed: int
    requested: int
    #: mutants examined: ``requested`` unless a time limit cut the run.
    iterations: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    escapes: List[FuzzRecord] = field(default_factory=list)
    disagreements: List[FuzzRecord] = field(default_factory=list)
    boundary_probes: int = 0
    escalations: int = 0
    elapsed_seconds: float = 0.0

    @property
    def truncated(self) -> bool:
        return self.iterations < self.requested

    @property
    def ok(self) -> bool:
        return not (self.escapes or self.disagreements or self.truncated)

    def render(self) -> str:
        lines = [f"fuzz {self.case} (analyzer={self.analyzer}, "
                 f"seed={self.seed}): {self.iterations} of "
                 f"{self.requested} mutants in "
                 f"{self.elapsed_seconds:.1f}s"
                 + (" [truncated by time limit]" if self.truncated
                    else "")]
        for status in sorted(self.counts):
            lines.append(f"  {status:20s} {self.counts[status]}")
        lines.append(f"  boundary probes      {self.boundary_probes}")
        lines.append(f"  exact escalations    {self.escalations}")
        for record in self.escapes:
            lines.append(f"ESCAPE at iteration {record.iteration} "
                         f"(mutations: {', '.join(record.mutations)}):")
            for raw in (record.detail or "").rstrip().splitlines():
                lines.append(f"  {raw}")
        for record in self.disagreements:
            lines.append(
                f"SILENT DISAGREEMENT at iteration {record.iteration} "
                f"(mutations: {', '.join(record.mutations)}): "
                f"{record.detail}")
        if self.truncated:
            lines.append(f"TRUNCATED: the time limit stopped the run "
                         f"after {self.iterations} of {self.requested} "
                         f"requested mutants")
        elif self.ok:
            lines.append("no mutant escaped and the oracle held on "
                         "every mutant")
        return "\n".join(lines)


def _examine(mutant: Mutant, analyzer: str,
             report: FuzzReport) -> FuzzRecord:
    """Run one mutant through the analyze path and the oracle."""
    record = FuzzRecord(mutant.iteration, ESCAPE, mutant.mutations)
    try:
        record.status, first = analyze_text(mutant.text, analyzer=analyzer)
        if analyzer != "fast" or record.status not in ("sat", "unsat"):
            return record
        report.escalations += _escalation_count(first)
        # The exact oracle: same candidate search, but the escalation
        # band forced open so the final verdict always comes from the
        # exact rational re-solve.
        exact, _ = analyze_text(mutant.text,
                                escalation_band=float("inf"))
        if exact in ("sat", "unsat") and exact != record.status \
                and not _escalated(first):
            record.detail = (f"float path says {record.status}, exact "
                             f"path says {exact}, no escalation")
            return record
        # Boundary probe: replay the achieved increase as the target, so
        # the query sits exactly on the Eq. 37 boundary.  Eq. 37 is
        # inclusive: the verdict must stay sat — or visibly escalate.
        if record.status == "sat" \
                and first.achieved_increase_percent is not None:
            report.boundary_probes += 1
            probe_status, probe = analyze_text(
                mutant.text,
                target_increase_percent=first.achieved_increase_percent)
            report.escalations += _escalation_count(probe)
            if probe_status == "unsat" and not _escalated(probe):
                record.detail = ("boundary probe at the achieved "
                                 "increase flipped to unsat without "
                                 "escalation")
    except Exception:
        record.status, record.detail = ESCAPE, traceback.format_exc()
    return record


def run_fuzz(base_text: str, *, case: str = "case", seed: int = 0,
             iterations: int = 100, analyzer: str = "fast",
             max_mutations: int = 3,
             time_limit: Optional[float] = None) -> FuzzReport:
    """Fuzz ``base_text`` for ``iterations`` mutants; tally outcomes.

    Never raises on a misbehaving mutant: exceptions are captured as
    ``escape`` records with their tracebacks, and oracle violations as
    ``disagreements``.  ``time_limit`` (seconds) bounds the whole run —
    exceeded, the report comes back truncated (and not ``ok``) instead
    of the run overshooting a CI budget.
    """
    fuzzer = CaseFuzzer(base_text, seed=seed, max_mutations=max_mutations)
    report = FuzzReport(case=case, analyzer=analyzer, seed=seed,
                        requested=iterations)
    started = time.monotonic()
    for mutant in fuzzer.mutants(iterations):
        if time_limit is not None \
                and time.monotonic() - started > time_limit:
            break
        record = _examine(mutant, analyzer, report)
        report.iterations += 1
        report.counts[record.status] = \
            report.counts.get(record.status, 0) + 1
        if record.status == ESCAPE:
            report.escapes.append(record)
        elif record.detail is not None:
            report.disagreements.append(record)
    report.elapsed_seconds = time.monotonic() - started
    return report


def fuzz_bundled_case(name: str, *, seed: int = 0,
                      iterations: int = 100, analyzer: str = "fast",
                      max_mutations: int = 3,
                      time_limit: Optional[float] = None) -> FuzzReport:
    """Fuzz one bundled case (by name) through the analyze path."""
    from repro.grid.cases import get_case
    return run_fuzz(write_case(get_case(name)), case=name, seed=seed,
                    iterations=iterations, analyzer=analyzer,
                    max_mutations=max_mutations, time_limit=time_limit)
