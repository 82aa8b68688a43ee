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
