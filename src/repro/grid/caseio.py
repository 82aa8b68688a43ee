"""The paper's case-definition format: data model, parser and writer.

The paper drives its tool with a text *input file* (Tables II and III)
whose sections are::

    # Topology (Line) Information
    # (line no, from bus, to bus, admittance, line capacity, knowledge?,
    #  in true topology?, in core?, secured?, can alter?)
    1 1 2 16.90 0.15 1 1 1 0 0
    ...
    # Measurement Information
    # (measurement no, measurement taken?, secured?, can attacker alter?)
    1 1 1 0
    ...
    # Attacker's Resource Limitation (measurements, buses)
    8 3
    # Bus Types (bus no, is generator?, is load?)
    1 1 0
    ...
    # Generator Information (bus no, max generation, min generation,
    #                        cost coefficient)
    1 0.80 0.10 60 1800
    ...
    # Load Information (bus no, existing load, max load, min load)
    2 0.21 0.30 0.10
    ...
    # Cost Constraint, Minimum Cost Increase by Attack (in percentage)
    1580 3

:class:`CaseDefinition` is the parsed form; it also serves as the
programmatic case-construction API used by :mod:`repro.grid.cases`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import CaseFieldError, InputFormatError, ModelError
from repro.grid.components import Bus, Generator, Line, Load
from repro.grid.network import Grid
from repro.smt.rational import to_fraction


@dataclass(frozen=True)
class LineSpec:
    """One row of the "Topology (Line) Information" section."""

    index: int
    from_bus: int
    to_bus: int
    admittance: Fraction
    capacity: Fraction
    knowledge: bool          # g_i: attacker knows the admittance
    in_true_topology: bool   # u_i
    in_core: bool            # v_i: fixed line, never opened
    status_secured: bool     # w_i
    status_alterable: bool   # attacker can spoof this line's status

    def __post_init__(self) -> None:
        object.__setattr__(self, "admittance", to_fraction(self.admittance))
        object.__setattr__(self, "capacity", to_fraction(self.capacity))


@dataclass(frozen=True)
class MeasurementSpec:
    """One row of the "Measurement Information" section."""

    index: int
    taken: bool       # t_i
    secured: bool     # s_i
    alterable: bool   # r_i


@dataclass
class CaseDefinition:
    """A complete analysis case in the paper's input format."""

    name: str
    line_specs: List[LineSpec]
    measurement_specs: List[MeasurementSpec]
    bus_types: List[Tuple[int, bool, bool]]  # (bus, is_gen, is_load)
    generators: List[Generator]
    loads: List[Load]
    resource_measurements: int   # max measurements alterable at once
    resource_buses: int          # T_B: max substations compromised
    base_cost: Fraction          # attack-free OPF cost constraint
    min_increase_percent: Fraction
    reference_bus: int = 1

    def __post_init__(self) -> None:
        self.base_cost = to_fraction(self.base_cost)
        self.min_increase_percent = to_fraction(self.min_increase_percent)
        expected = 2 * len(self.line_specs) + len(self.bus_types)
        if self.measurement_specs and len(self.measurement_specs) != expected:
            raise ModelError(
                f"case {self.name}: expected {expected} potential "
                f"measurements, got {len(self.measurement_specs)}")

    # -- derived views -------------------------------------------------------

    @property
    def num_buses(self) -> int:
        return len(self.bus_types)

    @property
    def num_lines(self) -> int:
        return len(self.line_specs)

    @property
    def num_potential_measurements(self) -> int:
        return 2 * self.num_lines + self.num_buses

    def build_grid(self) -> Grid:
        """The physical grid implied by this case."""
        buses = [Bus(index, is_gen, is_load)
                 for index, is_gen, is_load in self.bus_types]
        lines = [Line(spec.index, spec.from_bus, spec.to_bus,
                      spec.admittance, spec.capacity,
                      in_service=spec.in_true_topology)
                 for spec in self.line_specs]
        return Grid(buses, lines, self.generators, self.loads,
                    self.reference_bus)

    def measurement(self, index: int) -> MeasurementSpec:
        return self.measurement_specs[index - 1]

    def line_spec(self, index: int) -> LineSpec:
        return self.line_specs[index - 1]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_SECTIONS = (
    "topology",
    "measurement",
    "resource",
    "bus types",
    "generator",
    "load",
    "cost",
)


def _section_of(header: str) -> Optional[str]:
    lowered = header.lower()
    if "topology" in lowered and "line" in lowered:
        return "topology"
    if "measurement information" in lowered:
        return "measurement"
    if "resource" in lowered:
        return "resource"
    if "bus types" in lowered:
        return "bus types"
    if "generator information" in lowered:
        return "generator"
    if "load information" in lowered:
        return "load"
    if "cost constraint" in lowered:
        return "cost"
    return None


def _flag(token: str) -> bool:
    if token not in ("0", "1"):
        raise ValueError(f"expected 0/1 flag, got {token!r}")
    return token == "1"


#: (field name, converter) per section row, in file order.
_LINE_FIELDS = (
    ("index", int), ("from_bus", int), ("to_bus", int),
    ("admittance", to_fraction), ("capacity", to_fraction),
    ("knowledge", _flag), ("in_true_topology", _flag),
    ("in_core", _flag), ("secured", _flag), ("alterable", _flag))
_MEASUREMENT_FIELDS = (
    ("index", int), ("taken", _flag), ("secured", _flag),
    ("alterable", _flag))
_BUS_FIELDS = (("index", int), ("is_generator", _flag), ("is_load", _flag))
_GENERATOR_FIELDS = (
    ("bus", int), ("p_max", to_fraction), ("p_min", to_fraction),
    ("cost_alpha", to_fraction), ("cost_beta", to_fraction))
_LOAD_FIELDS = (
    ("bus", int), ("existing", to_fraction), ("p_max", to_fraction),
    ("p_min", to_fraction))
_RESOURCE_FIELDS = (("measurements", int), ("buses", int))
_COST_FIELDS = (("base_cost", to_fraction), ("min_increase_percent",
                                             to_fraction))


def _convert_row(section: str, position: int, row: Sequence[str],
                 fields: Sequence[tuple]) -> list:
    """Convert one data row, naming the exact field on failure.

    Every conversion failure — including a zero-denominator fraction like
    ``1/0``, which :class:`~fractions.Fraction` reports as
    ``ZeroDivisionError`` — becomes a :class:`CaseFieldError` carrying the
    field path (``topology[2].admittance``).
    """
    path = f"{section}[{position}]"
    if len(row) != len(fields):
        raise CaseFieldError(
            path, f"expected {len(fields)} fields, got {len(row)}")
    values = []
    for token, (field_name, converter) in zip(row, fields):
        try:
            values.append(converter(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise CaseFieldError(f"{path}.{field_name}",
                                 f"cannot parse {token!r}: {exc}") from exc
    return values


def parse_case(text: str, name: str = "case") -> CaseDefinition:
    """Parse a case file in the paper's input format.

    Malformed fields raise :class:`CaseFieldError` (a subclass of
    :class:`InputFormatError`) carrying the field path; semantically
    inconsistent component rows (e.g. a generator with ``p_max < p_min``)
    are wrapped the same way, pointing at the offending row.
    """
    section: Optional[str] = None
    rows: Dict[str, List[List[str]]] = {key: [] for key in _SECTIONS}
    for raw_line in text.splitlines():
        stripped = raw_line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            found = _section_of(stripped)
            if found is not None:
                section = found
            continue
        if section is None:
            raise InputFormatError(
                f"data line before any section header: {stripped!r}")
        rows[section].append(stripped.split())

    def parsed(section_key: str, path_name: str,
               fields: Sequence[tuple]) -> List[list]:
        return [_convert_row(path_name, pos, row, fields)
                for pos, row in enumerate(rows[section_key])]

    def construct(factory, path_name: str, position: int, values: list):
        try:
            return factory(*values)
        except ModelError as exc:
            raise CaseFieldError(f"{path_name}[{position}]",
                                 str(exc)) from exc

    line_specs = [construct(LineSpec, "topology", pos, values)
                  for pos, values in
                  enumerate(parsed("topology", "topology", _LINE_FIELDS))]
    measurement_specs = [
        MeasurementSpec(*values)
        for values in parsed("measurement", "measurement",
                             _MEASUREMENT_FIELDS)]
    bus_types = [tuple(values)
                 for values in parsed("bus types", "bus_types",
                                      _BUS_FIELDS)]
    generators = [construct(Generator, "generator", pos, values)
                  for pos, values in
                  enumerate(parsed("generator", "generator",
                                   _GENERATOR_FIELDS))]
    loads = [construct(Load, "load", pos, values)
             for pos, values in
             enumerate(parsed("load", "load", _LOAD_FIELDS))]
    if len(rows["resource"]) != 1:
        raise InputFormatError(
            "resource section must hold one '<measurements> <buses>' row")
    resource_measurements, resource_buses = _convert_row(
        "resource", 0, rows["resource"][0], _RESOURCE_FIELDS)
    if len(rows["cost"]) != 1:
        raise InputFormatError(
            "cost section must hold one '<cost> <percent>' row")
    base_cost, percent = _convert_row(
        "cost", 0, rows["cost"][0], _COST_FIELDS)

    try:
        return CaseDefinition(
            name=name,
            line_specs=line_specs,
            measurement_specs=measurement_specs,
            bus_types=bus_types,
            generators=generators,
            loads=loads,
            resource_measurements=resource_measurements,
            resource_buses=resource_buses,
            base_cost=base_cost,
            min_increase_percent=percent,
        )
    except ModelError as exc:
        # Cross-section consistency checks (e.g. the measurement count
        # not matching the line count) live in CaseDefinition; at the
        # parse boundary they are still input-format failures.
        raise CaseFieldError("case", str(exc)) from exc


@lru_cache(maxsize=4096, typed=True)
def _number(value: Fraction) -> str:
    """``value`` as case text: ``:g`` when that is exact, else ``p/q``.

    Cached: fingerprinting writes the same case values once per
    scenario, and the exactness check re-parses the text.
    """
    text = f"{float(value):g}"
    return text if Fraction(text) == value else str(value)


def write_case(case: CaseDefinition) -> str:
    """Serialize a case back to the paper's input format, losslessly.

    Every number that ``:g`` renders exactly (all bundled cases) is
    written that way; any other value is written as the exact fraction
    ``p/q`` the parser reads back, so ``parse_case(write_case(c))``
    reproduces every value of ``c``.
    """
    out: List[str] = []
    out.append("# Topology (Line) Information")
    out.append("# (line no, from bus, to bus, admittance, line capacity, "
               "knowledge?, in true topology?, in core?, secured?, "
               "can alter?)")
    for s in case.line_specs:
        out.append(f"{s.index} {s.from_bus} {s.to_bus} "
                   f"{_number(s.admittance)} {_number(s.capacity)} "
                   f"{int(s.knowledge)} {int(s.in_true_topology)} "
                   f"{int(s.in_core)} {int(s.status_secured)} "
                   f"{int(s.status_alterable)}")
    out.append("# Measurement Information")
    out.append("# (measurement no, measurement taken?, secured?, "
               "can attacker alter?)")
    for m in case.measurement_specs:
        out.append(f"{m.index} {int(m.taken)} {int(m.secured)} "
                   f"{int(m.alterable)}")
    out.append("# Attacker's Resource Limitation (measurements, buses)")
    out.append(f"{case.resource_measurements} {case.resource_buses}")
    out.append("# Bus Types (bus no, is generator?, is load?)")
    for bus, is_gen, is_load in case.bus_types:
        out.append(f"{bus} {int(is_gen)} {int(is_load)}")
    out.append("# Generator Information (bus no, max generation, "
               "min generation, cost coefficient)")
    for g in case.generators:
        out.append(f"{g.bus} {_number(g.p_max)} {_number(g.p_min)} "
                   f"{_number(g.cost_alpha)} {_number(g.cost_beta)}")
    out.append("# Load Information (bus no, existing load, max load, "
               "min load)")
    for l in case.loads:
        out.append(f"{l.bus} {_number(l.existing)} {_number(l.p_max)} "
                   f"{_number(l.p_min)}")
    out.append("# Cost Constraint, Minimum Cost Increase by Attack "
               "(in percentage)")
    out.append(f"{_number(case.base_cost)} "
               f"{_number(case.min_increase_percent)}")
    return "\n".join(out) + "\n"
