"""Every public count argument follows one rule, ``dg.check_count``: an
integer, not a bool and not a whole float, of at least the entry point's
minimum, else ``ValueError`` naming the argument."""

import re

import numpy as np
import pytest

from timemg.bench import ScalingPlan
from timemg.dg import BasisSpec, assemble_local, radau_rule, rhs_moments
from timemg.fourier import frequencies, rho_profile, symbol_smoother
from timemg.multigrid import TimeHierarchy

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
