"""Every public count argument follows one rule, ``dg.check_count``: an
integer, not a bool and not a whole float, of at least the entry point's
minimum, else ``ValueError`` naming the argument."""

import re

import numpy as np
import pytest

from timemg.bench import ScalingPlan
from timemg.dg import BasisSpec, assemble_local, build_transfers, radau_rule, rhs_moments
from timemg.fourier import frequencies, rho_profile, symbol_smoother, twogrid_symbol
from timemg.multigrid import CycleConfig, TimeHierarchy

_OPS = (assemble_local(BasisSpec(1), 0.5), assemble_local(BasisSpec(1), 1.0),
        build_transfers(BasisSpec(1), 0.5))

# entry point: (its count's name, the minimum, a call with the count)
ENTRIES = {
    "radau_rule": ("s", 1, radau_rule),
    "BasisSpec": ("p_t", 0, BasisSpec),
    "rhs_moments": ("n_steps", 1, lambda n: rhs_moments(np.sin, BasisSpec(1), 0.1, n)),
    "TimeHierarchy.build": ("n_steps", 2, lambda n: TimeHierarchy.build(BasisSpec(1), 0.1, n)),
    "frequencies": ("n_steps", 4, frequencies),
    "rho_profile": ("n_steps", 4, lambda n: rho_profile(BasisSpec(0), 1.0, n)),
    "symbol_smoother": ("nu", 0,
                        lambda nu: symbol_smoother(assemble_local(BasisSpec(1), 0.5), 0.3,
                                                   0.7, nu)),
    "ScalingPlan": ("repetitions", 3,
                    lambda reps: ScalingPlan(mode="strong", workers=[1], repetitions=reps)),
    "ScalingPlan.steps_per_worker": ("steps_per_worker", 2, lambda n: ScalingPlan(
        mode="weak", workers=[1], steps_per_worker=n)),
    "ScalingPlan.total_steps": ("total_steps", 2, lambda n: ScalingPlan(
        mode="strong", workers=[1], total_steps=n)),
    "rho_profile.nu1": ("nu1", 0, lambda nu: rho_profile(BasisSpec(0), 1.0, 16, nu, 1)),
    "rho_profile.nu2": ("nu2", 0, lambda nu: rho_profile(BasisSpec(0), 1.0, 16, 1, nu)),
    "twogrid_symbol.nu1": ("nu1", 0, lambda nu: twogrid_symbol(*_OPS, 0.3, nu, 1, 0.7)),
    "twogrid_symbol.nu2": ("nu2", 0, lambda nu: twogrid_symbol(*_OPS, 0.3, 1, nu, 0.7)),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("kind", ["float", "bool", "whole-float", "below"])
def test_rejects_bad_count(entry, kind):
    name, low, call = ENTRIES[entry]
    value = {"float": 2.5, "bool": True, "whole-float": np.float64(low), "below": low - 1}[kind]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}, got "
                                         + re.escape(repr(value))):
        call(value)


@pytest.mark.parametrize("entry", ENTRIES)
def test_accepts_numpy_integer(entry):
    _, low, call = ENTRIES[entry]
    call(np.int64(low))


def _plan(**field):
    return ScalingPlan(mode="strong", workers=[1], **field)


@pytest.mark.parametrize("make, field, value", [
    (CycleConfig, "damping", 5.0), (CycleConfig, "damping", "bogus"),
    (CycleConfig, "damping", True), (_plan, "eps", 5.0), (_plan, "seed", -3)],
    ids=["damping-range", "damping-mode", "damping-bool", "plan-eps", "plan-seed"])
def test_cycle_fields_refused_at_construction(make, field, value):
    # the cycle is checked when it is specified, not when a solve starts
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        make(**{field: value})
