import os

import pytest

import asdcong.engine


@pytest.fixture
def pool(monkeypatch):
    """A sweep at jobs > 1 runs its streams, and then its sum-free cases, on
    two workers wherever it has two or more of them, however many CPUs
    there are.

    Returns the worker count of every such pool, in order, so a test that
    means to cover the pool path can check that it took it.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []
    real = asdcong.engine._pool

    def spy(calls, workers):
        started.append(workers)
        return real(calls, workers)

    monkeypatch.setattr(asdcong.engine, "_pool", spy)
    return started
