import tracemalloc

import pytest

from timemg import multigrid


@pytest.fixture
def teams(monkeypatch):
    """The size of every worker team the multigrid module starts, in order."""
    started, original = [], multigrid.run_team

    def recording(k, body, barrier):
        started.append(k)
        original(k, body, barrier)

    monkeypatch.setattr(multigrid, "run_team", recording)
    return started


@pytest.fixture
def traced_peak():
    """``peak(call)``: the most bytes that ``call()`` held allocated at once
    beyond what existed before it, as traced by tracemalloc in every thread."""

    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
