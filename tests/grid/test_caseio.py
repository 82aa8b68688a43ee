"""Tests for the case-definition format: parsing, writing, round-trips."""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.exceptions import CaseFieldError, InputFormatError, ModelError
from repro.grid.caseio import parse_case, write_case
from repro.grid.cases import case_names, get_case

SAMPLE = """
# Topology (Line) Information
# (line no, from bus, to bus, admittance, line capacity, knowledge?, in true topology?, in core?, secured?, can alter?)
1 1 2 16.90 0.15 1 1 1 0 0
2 2 3 4.48 0.15 1 1 1 0 1
3 1 3 5.05 0.05 1 0 0 0 1
# Measurement Information
# (measurement no, measurement taken?, secured?, can attacker alter?)
1 1 1 0
2 1 0 1
3 0 0 0
4 1 0 1
5 1 0 1
6 1 1 0
7 1 0 1
8 1 0 1
9 1 1 1
# Attacker's Resource Limitation (measurements, buses)
4 2
# Bus Types (bus no, is generator?, is load?)
1 1 0
2 0 1
3 1 1
# Generator Information (bus no, max generation, min generation, cost coefficient)
1 0.80 0.10 60 1800
3 0.50 0.10 60 1200
# Load Information (bus no, existing load, max load, min load)
2 0.21 0.30 0.10
3 0.24 0.25 0.15
# Cost Constraint, Minimum Cost Increase by Attack (in percentage)
1580 3
"""


class TestParse:
    def test_sections(self):
        case = parse_case(SAMPLE, "sample")
        assert case.num_lines == 3
        assert case.num_buses == 3
        assert case.num_potential_measurements == 9
        assert case.resource_measurements == 4
        assert case.resource_buses == 2
        assert case.base_cost == 1580
        assert case.min_increase_percent == 3

    def test_line_flags(self):
        case = parse_case(SAMPLE)
        spec = case.line_spec(3)
        assert not spec.in_true_topology
        assert spec.status_alterable
        assert spec.admittance == Fraction(101, 20)

    def test_measurement_flags(self):
        case = parse_case(SAMPLE)
        assert case.measurement(1).secured
        assert not case.measurement(3).taken
        assert case.measurement(9).alterable

    def test_build_grid_excludes_open_lines(self):
        grid = parse_case(SAMPLE).build_grid()
        assert not grid.line(3).in_service
        assert grid.line(1).in_service

    def test_data_before_header_rejected(self):
        with pytest.raises(InputFormatError):
            parse_case("1 2 3\n# Topology (Line) Information\n")

    def test_bad_flag_rejected(self):
        bad = SAMPLE.replace("1 1 1 0 0", "1 1 1 0 2", 1)
        with pytest.raises(InputFormatError):
            parse_case(bad)

    def test_missing_resource_row_rejected(self):
        bad = SAMPLE.replace("4 2", "")
        with pytest.raises(InputFormatError):
            parse_case(bad)

    def test_wrong_measurement_count_rejected(self):
        # Cross-section consistency failures surface as input-format
        # errors at the parse boundary (not bare ModelError tracebacks).
        bad = SAMPLE.replace("9 1 1 1\n", "")
        with pytest.raises(CaseFieldError) as info:
            parse_case(bad)
        assert info.value.path == "case"
        assert "measurement" in str(info.value)


class TestFieldErrors:
    """Malformed fields carry their path instead of a raw traceback."""

    def test_zero_denominator_admittance(self):
        # Fraction("1/0") raises ZeroDivisionError, which previously
        # escaped parse_case as an uncaught exception.
        bad = SAMPLE.replace("16.90", "1/0", 1)
        with pytest.raises(CaseFieldError) as exc:
            parse_case(bad)
        assert exc.value.path == "topology[0].admittance"

    def test_non_numeric_capacity(self):
        bad = SAMPLE.replace("16.90 0.15", "16.90 lots", 1)
        with pytest.raises(CaseFieldError) as exc:
            parse_case(bad)
        assert exc.value.path == "topology[0].capacity"

    def test_bad_flag_names_the_field(self):
        bad = SAMPLE.replace("1 1 1 0 0", "1 1 1 0 2", 1)
        with pytest.raises(CaseFieldError) as exc:
            parse_case(bad)
        assert exc.value.path.endswith(".alterable")

    def test_short_row_reports_field_count(self):
        bad = SAMPLE.replace("2 0.21 0.30 0.10", "2 0.21 0.30", 1)
        with pytest.raises(CaseFieldError) as exc:
            parse_case(bad)
        assert exc.value.path == "load[0]"
        assert "expected 4 fields" in str(exc.value)

    def test_inconsistent_generator_limits_carry_row_path(self):
        bad = SAMPLE.replace("1 0.80 0.10 60 1800",
                             "1 0.10 0.80 60 1800", 1)
        with pytest.raises(CaseFieldError) as exc:
            parse_case(bad)
        assert exc.value.path == "generator[0]"

    def test_bad_resource_count_field(self):
        bad = SAMPLE.replace("\n4 2\n", "\n4 x\n", 1)
        with pytest.raises(CaseFieldError) as exc:
            parse_case(bad)
        assert exc.value.path == "resource[0].buses"

    def test_field_error_is_an_input_format_error(self):
        assert issubclass(CaseFieldError, InputFormatError)


class TestRoundTrip:
    @pytest.mark.parametrize("name", case_names())
    def test_write_then_parse_preserves_everything(self, name):
        original = get_case(name)
        text = write_case(original)
        parsed = parse_case(text, name)
        assert parsed.num_lines == original.num_lines
        assert parsed.num_buses == original.num_buses
        assert parsed.resource_measurements == original.resource_measurements
        assert parsed.resource_buses == original.resource_buses
        assert parsed.base_cost == original.base_cost
        for a, b in zip(parsed.line_specs, original.line_specs):
            assert (a.from_bus, a.to_bus) == (b.from_bus, b.to_bus)
            assert float(a.admittance) == pytest.approx(float(b.admittance))
            assert a.in_core == b.in_core
            assert a.status_secured == b.status_secured
        for a, b in zip(parsed.measurement_specs, original.measurement_specs):
            assert (a.taken, a.secured, a.alterable) == \
                (b.taken, b.secured, b.alterable)
        for a, b in zip(parsed.generators, original.generators):
            assert a.bus == b.bus
            assert float(a.cost_beta) == pytest.approx(float(b.cost_beta))

    def test_values_beyond_six_digits_round_trip_exactly(self):
        # ``:g`` carries six significant digits; a value it cannot
        # render exactly is written as ``p/q`` and must parse back as
        # the very same Fraction.
        original = get_case("5bus-study1")
        original.line_specs[2] = replace(
            original.line_specs[2], admittance=Fraction("5.0500004"),
            capacity=Fraction(1, 35))
        text = write_case(original)
        assert "5.0500004" not in text and "1/35" in text
        assert parse_case(text, original.name) == original


class TestCaseRegistry:
    def test_unknown_case(self):
        with pytest.raises(ModelError):
            get_case("ieee9000")

    @pytest.mark.parametrize("name,buses,lines,gens", [
        ("5bus-study1", 5, 7, 3),
        ("5bus-study2", 5, 7, 3),
        ("ieee14", 14, 20, 5),
        ("ieee30", 30, 41, 6),
        ("ieee57", 57, 80, 7),
        ("ieee118", 118, 186, 23),
    ])
    def test_dimensions_match_paper(self, name, buses, lines, gens):
        case = get_case(name)
        assert case.num_buses == buses
        assert case.num_lines == lines
        assert len(case.generators) == gens

    def test_cases_are_deterministic(self):
        a = get_case("ieee30")
        b = get_case("ieee30")
        assert write_case(a) == write_case(b)

    @pytest.mark.parametrize("name", case_names())
    def test_generation_covers_load(self, name):
        grid = get_case(name).build_grid()
        assert grid.total_generation_capacity() >= grid.total_load()

    @pytest.mark.parametrize("name", case_names())
    def test_grid_connected(self, name):
        assert get_case(name).build_grid().is_connected()


class TestPaperTableII:
    """Spot checks against the literal content of paper Table II."""

    def test_line_6_attributes(self):
        case = get_case("5bus-study1")
        spec = case.line_spec(6)
        assert (spec.from_bus, spec.to_bus) == (3, 4)
        assert float(spec.admittance) == pytest.approx(5.85)
        assert float(spec.capacity) == pytest.approx(0.20)
        assert not spec.in_core and not spec.status_secured
        assert spec.status_alterable

    def test_untaken_measurements(self):
        case = get_case("5bus-study1")
        untaken = [m.index for m in case.measurement_specs if not m.taken]
        assert untaken == [4, 8, 9, 11]

    def test_alterable_measurements(self):
        case = get_case("5bus-study1")
        alterable = [m.index for m in case.measurement_specs if m.alterable]
        assert alterable == [6, 7, 10, 12, 13, 14, 17, 18, 19]

    def test_study2_secured_measurements(self):
        case = get_case("5bus-study2")
        secured = [m.index for m in case.measurement_specs if m.secured]
        assert secured == [1, 2, 15]
        assert all(m.taken for m in case.measurement_specs)
