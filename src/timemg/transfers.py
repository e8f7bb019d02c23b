"""Intergrid transfer blocks between a fine step tau and a coarse step 2*tau.

Restriction maps two consecutive fine blocks into one coarse block with the
pair (r1, r2); prolongation is its transpose and realizes the L2 projection
from the coarse onto the fine space, so coarse polynomials are reproduced
exactly on the fine grid.
"""

from __future__ import annotations

import functools

import numpy as np

from .dg import BasisSpec, basis_values, check_step_size, reference_tables


@functools.lru_cache(maxsize=None)
def _half_step_values(basis: BasisSpec) -> tuple[np.ndarray, np.ndarray]:
    """Coarse basis values at the fine Gauss points of the first and second
    half of the coarse step, each (n_t, n_t); cached and read-only."""
    xg = reference_tables(basis).xg
    halves = (basis_values(basis, xg / 2.0), basis_values(basis, (xg + 1.0) / 2.0))
    for values in halves:
        values.flags.writeable = False
    return halves


def build_transfers(basis: BasisSpec, tau_fine: float) -> tuple[np.ndarray, np.ndarray]:
    """Return the local restriction blocks (r1, r2) for one coarsening step.

    r1.T = mass^{-1} @ proj1 and r2.T = mass^{-1} @ proj2, where proj1/proj2
    are the cross mass matrices between the coarse basis on (0, 2 tau) and the
    fine basis on the first/second half.  Quadrature is Gauss-Legendre with
    p_t + 1 points, exact for the degree 2 p_t integrands.
    """
    check_step_size(tau_fine)
    ref = reference_tables(basis)
    phi_c1, phi_c2 = _half_step_values(basis)
    weighted = tau_fine * ref.phi_w
    mass = weighted @ ref.phi.T
    proj1 = weighted @ phi_c1.T          # proj1[k, l] = int phi~_l phi_k
    proj2 = weighted @ phi_c2.T
    r1 = np.linalg.solve(mass, proj1).T
    r2 = np.linalg.solve(mass, proj2).T
    return r1, r2
