"""Slow but obvious reference implementations that the tests compare against."""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from lolrec import solver
from lolrec.blas import one_blas_thread


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


@one_blas_thread()
def dense_solve(X, cfg, record_lagrangian=False):
    """ASLRC's `solve` with L, F and Y3 held d x d from the first sweep, at
    any shape: a state from `init_state` run through `_run_alm` and
    `primal_sweep`, the path the acceptance gate drives, with `solve`'s
    sweep constants and output.  Every helper is looked up on `solver` at
    call time, so a test's patch of one applies here too."""
    X = solver._data_matrix(X)
    zfactor = solver._spd_factor(2.0 * np.eye(X.shape[1]) + X.T @ X)
    basis = np.linalg.qr(X)
    lagrangian = ((lambda state, blocks: solver.augmented_lagrangian(state, X, cfg, blocks))
                  if record_lagrangian else None)
    state = solver.init_state(X, cfg)
    trace, converged = solver._run_alm(
        state, cfg, lambda state: solver.primal_sweep(state, X, cfg, zfactor, basis),
        lambda state: solver._residual_blocks(state, X), lagrangian)
    return solver._decomposition(X, state, trace, converged)


def cholesky_latlrr_L(X, calls):
    """Reference LatLRR L step, as before the range basis: one d x d Cholesky
    factor of I + XX' and d right-hand sides, L (XX' + I) = P X' / mu + H
    with P = Y1 + mu (X - XZ - E) and H = F - Y3/mu.  It stands in for
    `_solve_L` in `latlrr` and leaves no L @ X, so `solver._salient` forms
    it as a d x d by d x N product; each call appends to `calls`."""
    lfac = cho_factor(np.eye(X.shape[0]) + X @ X.T)

    def step(state, X, basis):
        mu = state.mu
        calls.append(mu)
        P = state.Y1 + mu * (X - X @ state.Z - state.E)
        return cho_solve(lfac, (P @ X.T / mu + state.F - state.Y3 / mu).T).T
    return step


def reference_svt(M, tau):
    """Singular value thresholding by a full thin SVD, at every tau."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


def per_entry_csv(M):
    """CSV text of M formatted one entry at a time, as `save_matrix_csv` once did."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in M)
