"""Shared-memory worker team for the slab-parallel kernels.

Workers are threads: the block kernels spend their time in numpy inner loops
that release the GIL, and a shared address space keeps the neighbor-block
reads of the Jacobi sweep free.  Worker 0 doubles as the serial worker for
levels too small to split.
"""

from __future__ import annotations

import threading


class NullBarrier:
    """Stand-in barrier for single-worker runs."""

    def wait(self):
        pass

    def abort(self):
        pass


def team_barrier(n_workers: int):
    return NullBarrier() if n_workers == 1 else threading.Barrier(n_workers)


def run_team(n_workers: int, body, barrier=None) -> None:
    """Run ``body(wid)`` on ``n_workers`` workers; worker 0 is the caller.

    A failing worker aborts the shared ``barrier`` so the rest of the team
    unblocks; the first exception is re-raised in the caller.
    """
    if n_workers == 1:
        body(0)
        return
    errors = []

    def entry(wid):
        try:
            body(wid)
        except BaseException as exc:
            errors.append(exc)
            if barrier is not None:
                barrier.abort()

    threads = [threading.Thread(target=entry, args=(wid,), daemon=True)
               for wid in range(1, n_workers)]
    for t in threads:
        t.start()
    entry(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
