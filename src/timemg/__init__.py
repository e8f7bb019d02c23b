"""Multigrid in time for DG discretizations of the scalar model problem
u' + u = f, with a Fourier-mode analyzer that predicts the convergence
factors the solver achieves."""

from .bench import ScalingPlan, ScalingRow, run_scaling
from .dg import (BasisSpec, GlobalSystem, LocalOperators, RadauRule,
                 apply_global, assemble_local, build_transfers, forward_solve,
                 radau_rule, rhs_moments, stability_function)
from .fourier import (FrequencySet, SmoothingReport, frequencies, gamma, mode_vector,
                      predicted_rho, rho_profile, smoothing_factor, symbol_smoother,
                      symbol_system, transfer_symbols, twogrid_symbol)
from .multigrid import (CycleConfig, Level, SolveStats, TimeHierarchy,
                        block_jacobi_sweep, choose_cycle, measure_convergence_factor,
                        random_initial_guess, solve, two_grid_cycle, v_cycle)
from .smoothing import (ALPHA_MIN, alpha, optimal_omega, resolve_damping,
                        smoothing_symbol_modulus)

__version__ = "0.1.0"
