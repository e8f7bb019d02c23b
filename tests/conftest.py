import hashlib
import statistics
import threading
import time
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


@pytest.fixture
def host_control():
    """``control()``: the wall time of one thread hashing 16 buffers of
    4 MiB over two threads hashing 8 each, median of 3.  hashlib releases
    the GIL on such buffers, so this reads about 2 when the host gives the
    process a second free hardware thread and about 1 when it does not: the
    ceiling of a 2-worker speedup measured beside it."""

    def control() -> float:
        data = bytes(1 << 22)

        def hash_buffers(count):
            for _ in range(count):
                hashlib.sha256(data).digest()

        ratios = []
        for _ in range(3):
            t0 = time.perf_counter()
            hash_buffers(16)
            one = time.perf_counter() - t0
            threads = [threading.Thread(target=hash_buffers, args=(8,)) for _ in range(2)]
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            ratios.append(one / (time.perf_counter() - t0))
        return statistics.median(ratios)

    return control
