"""Pytest configuration for the pytest-benchmark scripts (the fabric and
service soaks and the scaling curves).  The paper's figures and tables
are regenerated by ``benchmarks/paper.py``, a plain script.
"""

from __future__ import annotations


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper(ref): the paper table/figure a benchmark "
        "regenerates")
