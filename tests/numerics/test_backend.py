"""The dense/sparse choice is a function of the bus count alone."""

import pytest

from repro.grid.cases import get_case
from repro.numerics import SPARSE_AUTO_MIN_BUSES, resolve_backend


def test_size_rule_threshold():
    assert SPARSE_AUTO_MIN_BUSES == 300
    assert resolve_backend(None, 299) == "dense"
    assert resolve_backend(None, 300) == "sparse"


@pytest.mark.parametrize("name, expected", [("ieee118", "dense"),
                                            ("synth300", "sparse")])
def test_bundled_cases_resolve_by_size(name, expected):
    assert resolve_backend(None, get_case(name).num_buses) == expected


def test_explicit_backend_wins_over_size():
    assert resolve_backend("dense", 10_000) == "dense"
    assert resolve_backend("sparse", 5) == "sparse"


@pytest.mark.parametrize("bad", ["auto", "Dense", ""])
def test_unknown_backend_rejected(bad):
    with pytest.raises(ValueError):
        resolve_backend(bad, 118)
