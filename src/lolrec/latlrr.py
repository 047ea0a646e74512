"""Latent low-rank representation baseline.

Minimizes ||Z||_* + ||L||_* + lambda ||E||_1 subject to X = XZ + LX + E
by inexact ALM with splitting variables J = Z and F = L.  It runs on the
main solver's inexact-ALM loop (zero initialization, mu schedule,
residual check, multiplier ascent), so head-to-head comparisons isolate
the model, not the solver.
"""

from types import SimpleNamespace

import numpy as np
from scipy.linalg import cho_solve

from .blas import one_blas_thread
from .prox import svt, thin_svd, weighted_shrink
from .solver import (SolverConfig, _data_matrix, _decomposition, _penalized,
                     _run_alm, _spd_factor)


def _residual_blocks(state, X):
    return {"Y1": X - X @ state.Z - state.L @ X - state.E,
            "Y2": state.Z - state.J,
            "Y3": state.L - state.F}


def latlrr_lagrangian(state, X, lam, blocks=None):
    """Augmented Lagrangian of the baseline model at `state`.

    `blocks` are the state's residual blocks, when the caller already has them.
    """
    if blocks is None:
        blocks = _residual_blocks(state, X)
    value = (thin_svd(state.J).singular_values.sum()
             + thin_svd(state.F).singular_values.sum()
             + lam * np.abs(state.E).sum())
    return _penalized(value, state, blocks)


@one_blas_thread()
def latlrr_solve(X, lam=None, cfg=None, record_lagrangian=True, callback=None):
    """Solve the baseline decomposition; returns the same Decomposition shape.

    `callback(state, residual)` runs after each sweep, and the whole solve
    runs on one BLAS thread, as in `solve`.
    """
    cfg = cfg or SolverConfig()
    if lam is None:
        lam = cfg.lam
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    X = _data_matrix(X)
    d, N = X.shape
    zfac = _spd_factor(np.eye(N) + X.T @ X)
    lfac = _spd_factor(np.eye(d) + X @ X.T)

    def sweep(s):
        # L (XX' + I) = (X - XZ - E) X' + F + (Y1 X' - Y3)/mu
        rhs_L = (X - X @ s.Z - s.E) @ X.T + s.F + (s.Y1 @ X.T - s.Y3) / s.mu
        s.L = cho_solve(lfac, rhs_L.T).T
        # (X'X + I) Z = X'(X - LX - E) + J + (X'Y1 - Y2)/mu
        rhs_Z = X.T @ (X - s.L @ X - s.E) + s.J + (X.T @ s.Y1 - s.Y2) / s.mu
        s.Z = cho_solve(zfac, rhs_Z)
        s.E = weighted_shrink(X - X @ s.Z - s.L @ X + s.Y1 / s.mu,
                              np.full((d, N), lam / s.mu))
        s.J = svt(s.Z + s.Y2 / s.mu, 1.0 / s.mu)
        s.F = svt(s.L + s.Y3 / s.mu, 1.0 / s.mu)

    z = np.zeros
    state = SimpleNamespace(Z=z((N, N)), J=z((N, N)), L=z((d, d)), F=z((d, d)), E=z((d, N)),
                            Y1=z((d, N)), Y2=z((N, N)), Y3=z((d, d)), mu=cfg.mu0, iter=0)
    lagrangian = ((lambda state, blocks: latlrr_lagrangian(state, X, lam, blocks))
                  if record_lagrangian else None)
    trace, converged = _run_alm(state, cfg, sweep, lambda state: _residual_blocks(state, X),
                                lagrangian, callback)
    return _decomposition(X, state, trace, converged)
