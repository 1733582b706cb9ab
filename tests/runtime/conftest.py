"""Shared fixtures for the runtime tests."""

from __future__ import annotations

import pytest

from repro.runtime import engine
from repro.runtime.executor import ParallelExecutor


@pytest.fixture
def opened_pools(monkeypatch) -> list[ParallelExecutor]:
    """Every :class:`ParallelExecutor` the engine opens during the test."""
    opened: list[ParallelExecutor] = []

    class RecordingExecutor(ParallelExecutor):
        def __init__(self, jobs: int) -> None:
            super().__init__(jobs)
            opened.append(self)

    monkeypatch.setattr(engine, "ParallelExecutor", RecordingExecutor)
    return opened
