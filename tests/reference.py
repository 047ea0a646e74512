"""Slow but obvious reference implementations that the tests compare against."""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from lolrec import solver


def l_system(state, X, cfg):
    """The L subproblem L M = rhs, built densely in d x d."""
    D = X - X @ state.R
    M = state.mu * (X @ X.T + np.eye(X.shape[0])) + 2.0 * cfg.beta * (D @ D.T)
    rhs = (state.Y1 + state.mu * (X - X @ state.Z - state.E)) @ X.T + state.mu * state.F - state.Y3
    return M, rhs


def cholesky_update_L(state, X, cfg, basis=None):
    """Reference L update: Cholesky of the d x d system, as before the range basis."""
    M, rhs = l_system(state, X, cfg)
    return solver.cho_solve(solver._spd_factor(M), rhs.T).T


def cholesky_latlrr_L(X, calls):
    """Reference LatLRR L step, as before the range basis: one d x d Cholesky
    factor of I + XX' and d right-hand sides, L (XX' + I) = P X' / mu + H
    with P = Y1 + mu (X - XZ - E) and H = F - Y3/mu, and L @ X as a d x d by
    d x N product, left in the state's `_lx`.  It stands in for `_solve_L`
    in `latlrr`; each call appends to `calls`."""
    lfac = cho_factor(np.eye(X.shape[0]) + X @ X.T)

    def step(state, X, basis):
        mu = state.mu
        calls.append(mu)
        P = state.Y1 + mu * (X - X @ state.Z - state.E)
        L = cho_solve(lfac, (P @ X.T / mu + state.F - state.Y3 / mu).T).T
        state._lx = (L, X, L @ X)
        return L
    return step


def reference_svt(M, tau):
    """Singular value thresholding by a full thin SVD, at every tau."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


def per_entry_csv(M):
    """CSV text of M formatted one entry at a time, as `save_matrix_csv` once did."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in M)
