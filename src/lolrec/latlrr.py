"""Latent low-rank representation baseline.

Minimizes ||Z||_* + ||L||_* + lambda ||E||_1 subject to X = XZ + LX + E
by inexact ALM with splitting variables J = Z and F = L.  It runs on the
main solver's inexact-ALM loop (zero initialization, mu schedule, residual
check, multiplier ascent), with the main solver's residuals of its three
constraints (`solver._lrr_residual_blocks`) and its L step: LatLRR's L
subproblem is ASLRC's at beta = 0 (`solver._solve_L`, in the range of X),
which leaves L @ X for the sweep (`solver._salient`).  Comparisons thus
isolate the model.
"""

import dataclasses

import numpy as np

from .blas import one_blas_thread
from .prox import svt, thin_svd, weighted_shrink
from .solver import (SolverConfig, _add_div, _data_matrix, _decomposition, _geometry,
                     _lrr_residual_blocks, _run_alm, _salient, _solve_L, _spd_factor,
                     _zero_state, cho_solve)


def latlrr_lagrangian(state, X, lam, blocks=None):
    """Augmented Lagrangian of the baseline model at `state`.

    `blocks` are the state's residual blocks, when the caller already has them.
    """
    if blocks is None:
        blocks = _lrr_residual_blocks(state, X)
    # svt returns an all-zero J or F below its threshold; its nuclear norm is 0.
    value = ((thin_svd(state.J)[1].sum() if state.J.any() else 0.0)
             + (thin_svd(state.F)[1].sum() if state.F.any() else 0.0)
             + lam * np.abs(state.E).sum())
    return _geometry(state).penalized(value, state, blocks)


@one_blas_thread()
def latlrr_solve(X, lam=None, cfg=None, record_lagrangian=True):
    """Solve the baseline decomposition; returns the same Decomposition shape.

    `lam` defaults to `cfg.lam`.  The whole solve runs on one BLAS thread,
    as in `solve`.  A sweep that leaves the state non-finite raises
    NumericalError.
    """
    cfg = cfg or SolverConfig()
    if lam is not None:
        cfg = dataclasses.replace(cfg, lam=lam)  # validates lam
    lam = cfg.lam
    X = _data_matrix(X)
    d, N = X.shape
    zfac = _spd_factor(np.eye(N) + X.T @ X)
    basis = np.linalg.qr(X)

    def sweep(s):
        # L mu (XX' + I) = P X' + mu H: ASLRC's L system without its beta term
        s.L = _solve_L(s, X, basis)
        LX = _salient(s, X)
        # (X'X + I) Z = X'(X - LX - E) + J + (X'Y1 - Y2)/mu
        s.Z = cho_solve(zfac, X.T @ (X - LX - s.E) + s.J + (X.T @ s.Y1 - s.Y2) / s.mu)
        s.E = weighted_shrink(X - X @ s.Z - LX + s.Y1 / s.mu, lam / s.mu)
        s.J = svt(s.Z + s.Y2 / s.mu, 1.0 / s.mu)
        s.F = svt(_add_div(s.L, s.Y3, s.mu), 1.0 / s.mu)

    nn, dd, dn = (N, N), (d, d), (d, N)
    state = _zero_state(cfg, Z=nn, J=nn, L=dd, F=dd, E=dn, Y1=dn, Y2=nn, Y3=dd)
    lagrangian = ((lambda state, blocks: latlrr_lagrangian(state, X, lam, blocks))
                  if record_lagrangian else None)
    trace, converged = _run_alm(state, cfg, sweep,
                                lambda state: _lrr_residual_blocks(state, X),
                                lagrangian)
    return _decomposition(X, state, trace, converged)
