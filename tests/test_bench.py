import os
import re

import numpy as np
import pytest

from timemg import multigrid
from timemg.bench import ScalingPlan, run_scaling


def tiny_plan(mode, **kw):
    base = dict(mode=mode, workers=[1, 2], steps_per_worker=256, total_steps=512,
                p_t_list=(0,), tau=1e-2, eps=1e-6, repetitions=3, seed=0)
    base.update(kw)
    return ScalingPlan(**base)


class TestPlanValidation:
    def test_rejects_few_repetitions(self):
        with pytest.raises(ValueError):
            tiny_plan("strong", repetitions=2)

    @pytest.mark.parametrize("workers, message", [
        ([], "need at least one worker count, got none"),
        ([0, 1], "worker count must be an integer >= 1, got 0"),
        ([1, 2.5], "worker count must be an integer >= 1, got 2.5")])
    def test_rejects_bad_worker_counts(self, workers, message):
        # at construction, before any point runs
        with pytest.raises(ValueError, match=re.escape(message)):
            tiny_plan("weak", workers=workers)

    def test_rejects_decreasing_workers(self):
        with pytest.raises(ValueError):
            tiny_plan("weak", workers=[4, 2])

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            tiny_plan("scaling")

    def test_rejects_empty_degree_list(self):
        with pytest.raises(ValueError, match="at least one polynomial degree"):
            tiny_plan("strong", p_t_list=())

    @pytest.mark.parametrize("p_t", [-1, 1.5, True])
    def test_rejects_bad_degree(self, p_t):
        # at construction, before the degree-0 points run
        with pytest.raises(ValueError, match="^p_t must be an integer >= 0, got "
                                             + re.escape(repr(p_t))):
            tiny_plan("strong", p_t_list=(0, p_t))

    @pytest.mark.parametrize("tau", [0.0, -1e-3, np.nan, np.inf])
    def test_rejects_bad_step_size(self, tau):
        # at construction, not when the first point builds its hierarchy
        with pytest.raises(ValueError, match=f"must be finite and positive, got {tau}"):
            tiny_plan("strong", tau=tau)


class TestStrongScaling:
    def test_rows_and_invariants(self):
        rows = run_scaling(tiny_plan("strong"))
        assert [r.workers for r in rows] == [1, 2]
        assert all(r.steps == 512 for r in rows)
        assert rows[0].scaled == 1.0
        # the algorithm is worker-count invariant
        assert rows[0].iterations == rows[1].iterations
        assert all(len(r.samples) == 3 for r in rows)

    def test_row_serialization(self):
        row = run_scaling(tiny_plan("strong", workers=[1]))[0]
        d = row.to_dict()
        assert {"mode", "workers", "steps", "p_t", "median_time", "scaled",
                "iterations", "samples"} == set(d)


class TestAnyTeam:
    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_three_workers_split_and_match_one(self, monkeypatch, teams, mode):
        # with 64-step slabs the 512 and 768 finest steps split three ways
        monkeypatch.setattr(multigrid, "MIN_SLAB", 64)
        rows = run_scaling(tiny_plan(mode, workers=[1, 3]))
        assert teams == [1, 1, 1, 3, 3, 3]
        assert [r.workers for r in rows] == [1, 3]
        assert rows[0].iterations == rows[1].iterations


class TestWeakScaling:
    def test_rows_and_invariants(self):
        rows = run_scaling(tiny_plan("weak"))
        assert [r.steps for r in rows] == [256, 512]
        assert rows[0].scaled == 1.0
        # mesh-independent convergence: iteration growth at most 2
        assert rows[1].iterations <= rows[0].iterations + 2

    def test_oversubscription_warns_but_runs(self):
        cpus = os.cpu_count() or 1
        workers = [1, 2 ** (cpus.bit_length() + 1)]
        with pytest.warns(UserWarning):
            rows = run_scaling(tiny_plan("weak", workers=workers))
        assert len(rows) == 2


class TestStrongSpeedupTrend:
    def test_two_workers_on_large_problem(self, host_control):
        # big enough that the per-sweep work amortizes the synchronization;
        # the host control, measured right after, shows whether the host
        # gave the second worker a free hardware thread
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs at least 2 hardware threads")
        plan = tiny_plan("strong", total_steps=1 << 20, tau=1e-6, eps=1e-8, seed=42)
        rows = run_scaling(plan)
        control = host_control()
        assert rows[1].scaled >= 1.4, (f"2-worker speedup {rows[1].scaled:.2f}; host control: "
                                       f"two GIL-free threads ran {control:.2f}x one")
        assert rows[0].iterations == rows[1].iterations
