#!/usr/bin/env python3
"""Build and analyze a custom case from the paper's text input format.

Shows the full round trip a user of the original tool would follow: write
the input file (the paper's Tables II/III layout), parse it, run the
analysis, and write the results file.

Run:  python examples/custom_case.py
"""

import tempfile
from pathlib import Path

from repro.core import ImpactAnalyzer, ImpactQuery
from repro.estimation import MeasurementPlan
from repro.grid import parse_case, write_case
from repro.grid.cases import get_case

#: A 3-bus toy system in the paper's input format: two cheap-to-expensive
#: generators, one congested line, a spoofable tie line.
INPUT_TEXT = """
# Topology (Line) Information
# (line no, from bus, to bus, admittance, line capacity, knowledge?, in true topology?, in core?, secured?, can alter?)
1 1 2 10.0 0.40 1 1 1 0 0
2 2 3 8.0 0.25 1 1 0 0 1
3 1 3 5.0 0.30 1 1 1 1 1
# Measurement Information
# (measurement no, measurement taken?, secured?, can attacker alter?)
1 1 1 0
2 1 0 1
3 1 1 0
4 1 0 1
5 1 0 1
6 1 0 1
7 1 1 0
8 1 0 1
9 1 0 1
# Attacker's Resource Limitation (measurements, buses)
6 2
# Bus Types (bus no, is generator?, is load?)
1 1 0
2 0 1
3 1 1
# Generator Information (bus no, max generation, min generation, cost coefficient)
1 0.90 0.05 40 1500
3 0.60 0.05 40 2600
# Load Information (bus no, existing load, max load, min load)
2 0.45 0.70 0.15
3 0.25 0.50 0.05
# Cost Constraint, Minimum Cost Increase by Attack (in percentage)
0 2
"""


def main() -> None:
    case = parse_case(INPUT_TEXT, name="toy3")
    grid = case.build_grid()
    print(f"parsed custom case: {grid}")

    analyzer = ImpactAnalyzer(case)
    print(f"attack-free optimal cost: ${float(analyzer.base_cost):.2f}")

    report = analyzer.analyze(ImpactQuery())
    print(report.render(MeasurementPlan.from_case(case)))

    # Round-trip the case and the result to files, as the original tool
    # does with its input/output text files.
    out_dir = Path(tempfile.mkdtemp(prefix="repro-"))
    (out_dir / "input.txt").write_text(write_case(case))
    (out_dir / "output.txt").write_text(report.render())
    print(f"\ninput/output files written under {out_dir}")


if __name__ == "__main__":
    main()
