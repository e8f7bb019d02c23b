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
