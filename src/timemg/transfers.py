"""Intergrid transfer blocks between a fine step tau and a coarse step 2*tau.

Restriction maps two consecutive fine blocks into one coarse block with the
pair (r1, r2); prolongation is its transpose and realizes the L2 projection
from the coarse onto the fine space, so coarse polynomials are reproduced
exactly on the fine grid.  On the basis's own Radau nodes the projection is
interpolation, one pair for every step size.
"""

from __future__ import annotations

import functools

import numpy as np

from .dg import BasisSpec, basis_values, check_step_size, radau_rule


@functools.lru_cache(maxsize=None)
def _restriction_pair(basis: BasisSpec) -> tuple[np.ndarray, np.ndarray]:
    """Coarse basis values at the fine nodes of the first and second half of
    the coarse step, each (n_t, n_t); cached and read-only."""
    c = radau_rule(basis.n_t).c
    pair = (basis_values(basis, c / 2.0), basis_values(basis, (c + 1.0) / 2.0))
    for r in pair:
        r.flags.writeable = False
    return pair


def build_transfers(basis: BasisSpec, tau_fine: float) -> tuple[np.ndarray, np.ndarray]:
    """Return the local restriction blocks (r1, r2) for one coarsening step.

    r1.T = mass^{-1} @ proj1 and r2.T = mass^{-1} @ proj2, where proj1/proj2
    are the cross mass matrices between the coarse basis on (0, 2 tau) and the
    fine basis on the first/second half.  On the fine Radau nodes c, exact for
    these degree 2 p_t integrands, mass = tau diag(b) and proj1[k, l] =
    tau b_k phi~_l(c_k / 2): tau cancels, and every valid ``tau_fine`` gets
    the basis's cached read-only pair r1[l, k] = phi~_l(c_k / 2), r2[l, k] =
    phi~_l((c_k + 1) / 2).
    """
    check_step_size(tau_fine)
    return _restriction_pair(basis)
