"""Per-cell reference answers and the check every benchmark output passes.

``reference.json`` maps a cell's *result key* (the spec fields that can
change its answer) to the expected answer:

* SMT cells (``kind: smt``): status, verdict, exact base cost and
  threshold, and for I* searches the proved bracket.  SAT witnesses may
  legitimately differ between runs, so they are not compared; the answer
  must come back ``certified`` when the cell asks for certification.
* fast-analyzer cells (``kind: fast``): the full
  ``deterministic_outcome_view`` minus the spec and fingerprint.
* Fig. 5(a) OPF-model checks (``kind: opf``): the verdict.

A cell missing from the file is computed by a serial in-process run
outside the timed region (see ``workloads.fill_references``).
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Any, Dict, Optional

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

_MAX_IMPACT_FIELDS = ("status", "lower_bound", "upper_bound",
                      "max_increase_percent")
_SMT_FIELDS = ("status", "satisfiable", "base_cost", "threshold")


@functools.lru_cache(maxsize=None)
def _auto_analyzer(case: str) -> str:
    """What ``analyzer="auto"`` resolves to for a bundled case."""
    from repro.grid.cases import get_case
    from repro.runner import ScenarioSpec
    return ScenarioSpec(case=case).resolved_analyzer(get_case(case))


def result_kind(cell) -> str:
    if cell.opf_check is not None:
        return "opf"
    analyzer = cell.spec["analyzer"]
    return _auto_analyzer(cell.spec["case"]) if analyzer == "auto" \
        else analyzer


def result_key(cell) -> str:
    """The spec fields that determine the answer, as canonical JSON."""
    kind = result_kind(cell)
    if kind == "opf":
        case, factor = cell.opf_check
        return json.dumps({"opf_check": case, "factor": str(factor)},
                          sort_keys=True)
    spec = cell.spec
    key = {"kind": kind, "case": spec["case"],
           "attacker_seed": spec.get("attacker_seed"),
           "target": spec.get("target"),
           "states": bool(spec.get("with_state_infection")),
           "search": spec.get("search", "decision"),
           "tolerance": spec.get("tolerance")}
    # The fast analyzer draws state samples only with state infection;
    # the SMT analyzer never samples.
    if kind == "fast" and key["states"]:
        key["sample_seed"] = spec.get("sample_seed", 0)
    return json.dumps(key, sort_keys=True)


def _plain(payload: Any) -> Any:
    """The payload as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(payload))


def fast_view(outcome: Dict[str, Any]) -> Dict[str, Any]:
    from repro.runner.trace import deterministic_outcome_view
    view = deterministic_outcome_view(outcome)
    view.pop("spec", None)
    view.pop("fingerprint", None)
    return _plain(view)


def expected_entry(kind: str, outcome: Dict[str, Any]) -> Dict[str, Any]:
    """The reference entry a known-good outcome defines."""
    if kind == "fast":
        return {"kind": kind, "view": fast_view(outcome)}
    if kind == "opf":
        return {"kind": kind, "satisfiable": outcome["satisfiable"]}
    entry = {"kind": kind}
    entry.update({name: outcome.get(name) for name in _SMT_FIELDS})
    if outcome.get("max_impact") is not None:
        entry["max_impact"] = {name: outcome["max_impact"].get(name)
                               for name in _MAX_IMPACT_FIELDS}
    return entry


def check(entry: Optional[Dict[str, Any]], outcome: Optional[Dict[str, Any]],
          certify: bool) -> Optional[str]:
    """None when ``outcome`` matches ``entry``; otherwise the reason."""
    if outcome is None:
        return "no outcome"
    if outcome.get("status") != "ok":
        return f"status {outcome.get('status')}: {outcome.get('error')}"
    if certify and outcome.get("certified") is not True:
        return f"not certified (certified={outcome.get('certified')!r})"
    if entry is None:
        return "no reference answer"
    kind = entry["kind"]
    if kind == "fast":
        view = fast_view(outcome)
        differing = sorted(name for name in set(view) | set(entry["view"])
                           if view.get(name) != entry["view"].get(name))
        return f"differs from reference in {differing}" if differing \
            else None
    got = _plain(expected_entry(kind, outcome))
    differing = sorted(name for name in entry
                       if got.get(name) != entry[name])
    return f"differs from reference in {differing}" if differing else None


def load(path: Path = REFERENCE_FILE) -> Dict[str, Dict[str, Any]]:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def save(entries: Dict[str, Dict[str, Any]],
         path: Path = REFERENCE_FILE) -> None:
    path.write_text(json.dumps(dict(sorted(entries.items())), indent=1,
                               sort_keys=True) + "\n")
