"""Multigrid in time for DG discretizations of the scalar model problem
u' + u = f, with a Fourier-mode analyzer that predicts the convergence
factors the solver achieves."""

from .bench import ScalingPlan, ScalingRow, run_strong_scaling, run_weak_scaling
from .dg import (BasisSpec, GlobalSystem, LocalOperators, RadauRule,
                 apply_global, assemble_local, forward_solve, jump_error_estimator,
                 radau_rule, rhs_moments, stability_function)
from .fourier import (BlockSpectrum, FrequencySet, HarmonicsDecomposition,
                      block_dft, block_idft, frequencies, gamma,
                      harmonics_decomposition, mode_vector, predicted_rho,
                      rho_profile, symbol_smoother, symbol_system,
                      transfer_symbols, twogrid_symbol)
from .multigrid import (CycleConfig, Level, SolveStats, TimeHierarchy,
                        block_jacobi_sweep, measure_convergence_factor,
                        random_initial_guess, solve, two_grid_cycle, v_cycle)
from .smoothing import (ALPHA_MIN, SmoothingReport, alpha, optimal_omega, resolve_damping,
                        smoothing_factor, smoothing_symbol_modulus)
from .transfers import build_transfers

__version__ = "0.1.0"
