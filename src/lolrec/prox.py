"""Closed-form proximal/shrinkage operators and the thin SVD they use.

These are the building blocks of every solver update: soft thresholding
at a scalar or per-entry threshold, singular value thresholding
(prox of the nuclear norm), and column-wise group shrinkage (prox of the
L2,1 norm).
"""

import numpy as np

from . import blas
from .errors import DimensionError, InvalidThreshold, NumericalError


def _require_finite(M, who):
    if not np.all(np.isfinite(M)):
        raise NumericalError(f"{who}: non-finite input")


def weighted_shrink(M, T):
    """Entrywise soft threshold sgn(M) max(|M| - T, 0), with T >= 0 either a
    scalar or one threshold per entry of M."""
    M = np.asarray(M, dtype=float)
    T = np.asarray(T, dtype=float)
    if T.ndim and M.shape != T.shape:
        raise DimensionError(f"shape mismatch {M.shape} vs {T.shape}")
    if np.any(T < 0):
        raise InvalidThreshold("negative threshold")
    return np.sign(M) * np.maximum(np.abs(M) - T, 0.0)


scalar_shrink = weighted_shrink


def thin_svd(M):
    """Thin SVD of M as numpy returns it: (U, s, Vt) with M = (U * s) @ Vt
    and s nonincreasing."""
    M = np.asarray(M, dtype=float)
    _require_finite(M, "thin_svd")
    try:
        return np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; retry with the slower but
        # more reliable gesvd driver before giving up.  scipy.linalg is
        # imported only here: the import costs more than numpy's own, and it
        # maps scipy's OpenBLAS, which a running solve's pin must then cover.
        import scipy.linalg
        blas.pin_late_copies()
        try:
            return scipy.linalg.svd(M, full_matrices=False, lapack_driver="gesvd")
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD failed: {exc}") from exc


def svt(M, tau):
    """Singular value thresholding: prox of tau * nuclear norm at M.

    When every singular value is at most tau the result is exactly zero, so
    the SVD is skipped if a cheap upper bound on sigma_max(M),
    min(||M||_F, sqrt(||M||_1 ||M||_inf)), is at most tau (1 - (size + 2) eps).
    The margin covers the bound's own rounding: each norm is a sum of at
    most M.size terms, so the computed bound is below the exact one by less
    than (size + 2) eps relative.  Below tau = 1e-150 the squares in ||M||_F
    could underflow, so the SVD always runs there.  A non-finite M raises
    NumericalError at any tau.
    """
    if tau < 0:
        raise InvalidThreshold(f"negative threshold {tau}")
    M = np.asarray(M, dtype=float)
    _require_finite(M, "svt")
    if M.size == 0:
        return np.zeros(M.shape)
    if tau >= 1e-150:
        A = np.abs(M)
        bound = min(np.linalg.norm(M),
                    np.sqrt(A.sum(axis=0).max() * A.sum(axis=1).max()))
        if bound <= tau * (1.0 - (M.size + 2) * np.finfo(float).eps):
            return np.zeros(M.shape)
    U, s, Vt = thin_svd(M)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


def _shrink_factor(norms, taus):
    """(n - t)/n for each norm n above its threshold t, else 0."""
    return np.divide(norms - taus, norms, out=np.zeros_like(norms), where=norms > taus)


def _l21_scale(M, tau):
    """Column factors of the L2,1 prox at float M: (||m_i|| - tau)/||m_i||
    where ||m_i|| > tau, else 0.

    The norms come from one sum of squares, with no M^2 temporary, and only
    the d norms are checked: a non-finite entry makes its column's sum
    non-finite, and such a column raises NumericalError.  A finite column
    whose sum overflowed, or whose norm is below 1e-150 where its squares
    may underflow, is divided by its largest |entry|, and tau with it; an
    all-zero column gets factor 0.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", M, M))
    redo = np.flatnonzero(~np.isfinite(norms) | (norms < 1e-150))
    if not redo.size:
        return _shrink_factor(norms, tau)
    cols = M[:, redo]
    _require_finite(cols, "column_l21_shrink")
    norms[redo] = 0.0  # factor 0 unless rescaled below; no inf / inf
    scale = _shrink_factor(norms, tau)
    peak = np.abs(cols).max(axis=0)
    live = peak > 0
    scale[redo[live]] = _shrink_factor(np.linalg.norm(cols[:, live] / peak[live], axis=0),
                                       tau / peak[live])
    return scale


def column_l21_shrink(M, tau):
    """Column-wise group shrinkage: prox of tau * L2,1 norm at M.

    Column m_i maps to ((||m_i|| - tau)/||m_i||) m_i when ||m_i|| > tau,
    else to zero.  A column whose sum of squares overflows or underflows is
    rescaled by its largest |entry| first, so finite input gives a finite
    result and a tiny column is not lost; a non-finite entry raises
    NumericalError at any tau.
    """
    if tau < 0:
        raise InvalidThreshold(f"negative threshold {tau}")
    M = np.asarray(M, dtype=float)
    return M * _l21_scale(M, tau)
