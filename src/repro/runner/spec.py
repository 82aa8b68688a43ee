"""Declarative scenario specifications with deterministic fingerprints.

A :class:`ScenarioSpec` names everything one impact analysis needs — the
case (a bundled name or an inline case file in the paper's input format),
an optional attacker-randomization seed, the analyzer kind and the query
parameters — as plain JSON-able data, so scenarios can be shipped to
worker processes, hashed for the on-disk result cache, and replayed
bit-identically later.

The fingerprint covers the *resolved* case (the full serialized case
text, after attacker randomization), the query parameters and a code
fingerprint of the ``repro`` package sources: any change to the inputs or
to the analysis code invalidates cached results.

A process resolves each case once.  :meth:`ScenarioSpec.resolve_case`,
:meth:`~ScenarioSpec.fingerprint` and :meth:`~ScenarioSpec.encoding_group`
read one memo keyed by ``(case, case_text, attacker_seed,
default_policy().key())`` that holds the resolved
:class:`~repro.grid.caseio.CaseDefinition` and its :func:`write_case`
text.  The numerics policy is in the key because building a bundled case
runs guarded linear algebra.  The memoised case is shared by every
caller in the process and must be treated as read-only; a case text that
does not parse raises on every call and is never memoised.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ModelError
from repro.grid.caseio import (
    CaseDefinition,
    MeasurementSpec,
    parse_case,
    write_case,
)
from repro.numerics import default_policy
from repro.smt.rational import to_fraction

#: bump when the cached-result layout changes incompatibly.
#: v3: cache keys additionally carry the installed ``repro`` version, so
#: results produced by a differently-versioned install never alias
#: (outcomes also record ``certified``).  The code fingerprint already
#: hashes every module of the package, encoding and solving included.
#: v4: outcomes grow a ``diagnostics`` payload and the deterministic
#: preflight rejections (``invalid_input``/``degenerate_case``) are
#: cached alongside ``ok`` — pre-v4 entries must not be served as "no
#: diagnostics recorded".
#: v5: specs grow a ``search`` mode (``decision`` | ``maximize``) and a
#: bisection ``tolerance``; maximize outcomes carry a ``max_impact``
#: payload — pre-v5 entries must not alias either mode's results.
#: v6: the guarded-numerics layer adds the ``numerical_unstable``
#: outcome status (cached like rejections) and fingerprints carry the
#: active numerics policy thresholds — pre-v6 entries were produced
#: with unguarded linear algebra and must not be served.
#: v7: fingerprints carry the resolved dense/sparse backend — pre-v7
#: entries predate the sparse core and must not be served.
#: v8: specs and keys drop ``backend``: the backend is now a function
#: of the bus count, hence of ``case_text``, which the key already
#: carries.  A v7 spec payload that still names ``backend`` fails
#: :meth:`ScenarioSpec.from_dict`, so its entry is recomputed, never
#: served.
#: v9: specs and keys drop the SMT candidate cap, so a v8 SMT unsat may
#: be a capped, unproved verdict; a v8 spec still names the cap, fails
#: :meth:`ScenarioSpec.from_dict`, and its entry is recomputed.
CACHE_FORMAT_VERSION = 9

#: bus count at and below which ``analyzer="auto"`` picks the full SMT
#: framework (mirrors the paper's Section IV-A hybrid).
AUTO_SMT_MAX_BUSES = 14


def resolve_analyzer(analyzer: str, case: CaseDefinition) -> str:
    """The analyzer kind ``analyzer`` names for ``case``: ``"auto"``
    resolves by bus count, any other name is returned as given."""
    if analyzer != "auto":
        return analyzer
    return "smt" if case.num_buses <= AUTO_SMT_MAX_BUSES else "fast"

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of the ``repro`` package sources (cached per process).

    Part of every scenario fingerprint, so edits to the analysis code
    automatically invalidate stale cached results.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        import repro
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
        _code_fingerprint = digest.hexdigest()[:16]
    return _code_fingerprint


# Paper Section IV-B: "At each problem size, we perform three experiments
# taking different random scenarios, especially in terms of the
# attacker's resource limitation."  A spec's ``attacker_seed`` names one
# such scenario variant, produced deterministically by
# :func:`randomize_attacker`.

def scenario_seeds(count: int = 3, base: int = 2014) -> List[int]:
    """The per-size scenario seeds (2014: the paper's year)."""
    return [base + i for i in range(count)]


def randomize_attacker(case: CaseDefinition, seed: int) -> CaseDefinition:
    """A scenario variant with randomized attacker resources.

    Varies the resource budgets (the paper's emphasis) and sprinkles
    additional measurement protection, while keeping the grid itself —
    and therefore the OPF — untouched.
    """
    rng = random.Random(seed)
    total = case.num_potential_measurements
    buses = case.num_buses

    measurement_budget = max(4, int(total * rng.uniform(0.05, 0.25)))
    bus_budget = max(2, int(buses * rng.uniform(0.15, 0.45)))

    secured_fraction = rng.uniform(0.0, 0.15)
    new_specs = []
    for spec in case.measurement_specs:
        secured = spec.secured or rng.random() < secured_fraction
        new_specs.append(MeasurementSpec(spec.index, spec.taken,
                                         secured, spec.alterable))

    return CaseDefinition(
        name=f"{case.name}-scenario{seed}",
        line_specs=list(case.line_specs),
        measurement_specs=new_specs,
        bus_types=list(case.bus_types),
        generators=list(case.generators),
        loads=list(case.loads),
        resource_measurements=measurement_budget,
        resource_buses=bus_budget,
        base_cost=case.base_cost,
        min_increase_percent=case.min_increase_percent,
    )


#: resolved cases one process keeps.  A sweep resolves each of its
#: (case, attacker seed) pairs in every pass over the grid (fingerprint,
#: encoding group, unit), with the pairs shuffled between cells, so the
#: memo holds a whole grid's pairs (``sweep-2w``'s 24); a resolved case
#: holds about 2 KB per bus.
_RESOLVED_CASES = 32


@lru_cache(maxsize=_RESOLVED_CASES)
def _resolve(case: str, case_text: Optional[str],
             attacker_seed: Optional[int], numerics: str
             ) -> Tuple[CaseDefinition, str]:
    """The resolved case of a spec and its :func:`write_case` text.

    *numerics* (the active policy's key) is read only by the memo: the
    bundled builders run guarded linear algebra, so a policy change
    rebuilds.  An exception (an unparsable text, an unknown name) is
    not memoised.
    """
    if case_text is not None:
        resolved = parse_case(case_text, name=case)
    else:
        from repro.grid.cases import get_case
        resolved = get_case(case)
    if attacker_seed is not None:
        resolved = randomize_attacker(resolved, attacker_seed)
    return resolved, write_case(resolved)


def resolution_counts() -> Tuple[int, int]:
    """This process's case-resolution memo as ``(hits, misses)``."""
    info = _resolve.cache_info()
    return info.hits, info.misses


@dataclass(frozen=True)
class ScenarioSpec:
    """One (case × attacker × query) cell of a sweep grid."""

    case: str                            # bundled case name or a label
    analyzer: str = "auto"               # "smt" | "fast" | "auto"
    case_text: Optional[str] = None      # inline case (paper input format)
    attacker_seed: Optional[int] = None  # randomize_attacker() seed
    #: target increase as ``str(Fraction)`` (keeps the spec hashable and
    #: JSON-clean); None uses the case's own value.  In ``maximize`` mode
    #: this is the bisection bracket's *anchor* ``lo`` (None: 0).
    target: Optional[str] = None
    with_state_infection: bool = False
    state_samples: int = 24
    sample_seed: int = 0                 # fast-analyzer sampling seed
    #: "decision" answers the spec's threshold query; "maximize" bisects
    #: to the maximum achievable increase I* on the same warm session.
    search: str = "decision"
    #: maximize-mode bisection tolerance as ``str(Fraction)`` (None uses
    #: :data:`repro.search.DEFAULT_TOLERANCE`).
    tolerance: Optional[str] = None
    label: str = ""

    @classmethod
    def build(cls, case: str, *, analyzer: str = "auto",
              case_text: Optional[str] = None,
              attacker_seed: Optional[int] = None,
              target=None, with_state_infection: bool = False,
              state_samples: int = 24,
              sample_seed: int = 0, search: str = "decision",
              tolerance=None, label: str = "") -> "ScenarioSpec":
        """Constructor accepting any rational-ish ``target``."""
        if analyzer not in ("smt", "fast", "auto"):
            raise ModelError(f"unknown analyzer kind {analyzer!r}")
        if search not in ("decision", "maximize"):
            raise ModelError(f"unknown search mode {search!r}")
        if tolerance is not None:
            if search != "maximize":
                raise ModelError(
                    "tolerance only applies to search='maximize'")
            if to_fraction(tolerance) <= 0:
                raise ModelError("bisection tolerance must be positive")
        target_str = None if target is None else str(to_fraction(target))
        tolerance_str = None if tolerance is None \
            else str(to_fraction(tolerance))
        if not label:
            parts = [case]
            if attacker_seed is not None:
                parts.append(f"s{attacker_seed}")
            if target_str is not None:
                parts.append(f"t{target_str}")
            if with_state_infection:
                parts.append("states")
            if search == "maximize":
                parts.append("max")
            label = "/".join(parts)
        return cls(case=case, analyzer=analyzer, case_text=case_text,
                   attacker_seed=attacker_seed, target=target_str,
                   with_state_infection=with_state_infection,
                   state_samples=state_samples, sample_seed=sample_seed,
                   search=search, tolerance=tolerance_str, label=label)

    # -- resolution -----------------------------------------------------

    def _resolved(self) -> Tuple[CaseDefinition, str]:
        return _resolve(self.case, self.case_text, self.attacker_seed,
                        default_policy().key())

    def resolve_case(self) -> CaseDefinition:
        """The concrete case this scenario analyzes.

        Memoised per process (see the module docstring): every spec with
        the same case, case text and attacker seed gets the *same*
        object under one numerics policy, so callers must not mutate it.
        """
        return self._resolved()[0]

    def resolved_analyzer(self, case: CaseDefinition) -> str:
        return resolve_analyzer(self.analyzer, case)

    def target_fraction(self) -> Optional[Fraction]:
        return None if self.target is None else Fraction(self.target)

    def tolerance_fraction(self) -> Optional[Fraction]:
        return None if self.tolerance is None else Fraction(self.tolerance)

    # -- serialization and fingerprinting -------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec, rejecting unknown fields.

        Raises :class:`ValueError` (never a bare ``TypeError`` stack
        trace) so boundary layers — the result cache and the analysis
        service's request protocol — can turn a malformed or
        version-skewed spec payload into a structured diagnostic.
        """
        if not isinstance(payload, dict):
            raise ValueError("scenario spec payload is not a JSON object")
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown scenario spec field(s): {', '.join(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ValueError(f"malformed scenario spec: {exc}") from exc

    def encoding_group(self) -> str:
        """Identity of the *encoding* this scenario solves against.

        Narrower than :meth:`fingerprint`: only the resolved case text,
        the analyzer kind and the state-infection flag shape the attack
        encoding — the target threshold and sampling seeds are
        per-query.  Scenarios with equal groups can share one
        warm analyzer (the engine re-solves them incrementally inside
        solver scopes instead of re-encoding per scenario).
        """
        case, text = self._resolved()
        key = {
            "case_text": text,
            "analyzer": self.resolved_analyzer(case),
            "with_state_infection": self.with_state_infection,
        }
        blob = json.dumps(key, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def fingerprint(self) -> str:
        """Deterministic identity of (resolved case, query, code)."""
        import repro
        case, text = self._resolved()
        key = {
            "format": CACHE_FORMAT_VERSION,
            "version": repro.__version__,
            "code": code_fingerprint(),
            "case_text": text,
            "analyzer": self.resolved_analyzer(case),
            "target": self.target,
            "with_state_infection": self.with_state_infection,
            "state_samples": self.state_samples,
            "sample_seed": self.sample_seed,
            "search": self.search,
            "tolerance": self.tolerance,
            # The active guardrail thresholds decide when an analysis
            # degrades to ``numerical_unstable``, so a policy change
            # (a test's ``set_policy``) must miss the cache
            # rather than serve results produced under different guards.
            "numerics": default_policy().key(),
        }
        blob = json.dumps(key, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()
