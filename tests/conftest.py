"""Fixtures shared across the test packages."""

import multiprocessing

import pytest

import repro.service.supervisor as supervisor_mod


@pytest.fixture
def no_worker_processes(monkeypatch):
    """Make every worker process spawn fail, as in a sandbox without
    process creation, so the supervisor runs its workers as threads."""
    real = multiprocessing.get_context()

    class NoProcesses:
        Pipe = staticmethod(real.Pipe)

        def Process(self, *args, **kwargs):
            raise OSError("no processes in this sandbox")

    monkeypatch.setattr(supervisor_mod.multiprocessing, "get_context",
                        NoProcesses)


@pytest.fixture
def bland_pivots(monkeypatch):
    """Have ``Simplex.check`` take Bland's smallest-index entering
    variable from the first pivot on, instead of the sparsest column."""
    import repro.smt.simplex as simplex_mod
    monkeypatch.setattr(simplex_mod, "_SPARSE_PIVOTS", 0)


@pytest.fixture(params=["sparsest", "bland"])
def pivot_rule(request):
    """Run the test under each entering rule of ``Simplex.check``."""
    if request.param == "bland":
        request.getfixturevalue("bland_pivots")
    return request.param
