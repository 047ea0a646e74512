"""Adaptive structure-constrained low-rank coding by inexact ALM.

Decomposes X = X@Z + L@X + E where Z is a block-diagonal-leaning coding
matrix (nuclear norm + adaptively weighted L1), L extracts group-sparse
salient features (L2,1 norm), and E is sparse error (L1).  Splitting
variables J = Z, F = L, Q = Z, S = R and W = ones - R give closed-form
block updates; a single augmented Lagrangian ties them together.

Per-sweep update order is L, Z, E, R, then the splitting variables
J, F, Q, W, S: the Z update consumes the fresh L, while L, R consume the
previous sweep's Z, E, R and W, S respectively.  LatLRR (`latlrr.py`) shares
the zero start (`_zero_state`), the ALM loop (`_run_alm`), the L step
(`_solve_L`), which leaves L @ X for `_salient`, and the residuals of
X = XZ + LX + E, J = Z and F = L (`_lrr_residual_blocks`).

How a state holds L, F and Y3 is its geometry, read in one place
(`_geometry`) by every step that depends on it.  `_Dense` holds them as
d x d arrays: every d <= N solve, LatLRR, and every state a caller builds
(`init_state`).  At d > N, ASLRC's `solve` starts in a `_ColumnSplit`.
With X = QB the reduced QR (Q d x r, r = N < d), let U be the columns that
F has kept, or that the F step could not rule out, and C the others; U
starts empty, grows and never shrinks.  On C, F = 0, Y3 = Y~ Q_C' and
L = L_c Q_C' (Q_C the rows C of Q), so each block is held column-major as
d x (r + |U|) coordinates: the d x r factor (L_c, Y~, 0), then the columns
U in one contiguous block.  The Y3 residual L - F and the ascent
Y3 + mu (L - F) are the same sums on coordinates.
"""

import numbers
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .blas import one_blas_thread
from .errors import DimensionError, NumericalError
from .prox import _l21_scale, _require_finite, column_l21_shrink, svt, thin_svd, weighted_shrink


@dataclass
class SolverConfig:
    alpha: float = 0.01
    beta: float = 0.01
    lam: float = 0.015
    mu0: float = 1e-6
    eta: float = 1.12
    mu_max: float = 1e10
    tol: float = 1e-6
    max_iter: int = 300

    def __post_init__(self):
        if not (self.eta > 1):
            raise ValueError("eta must exceed 1")
        if not (0 < self.mu0 < self.mu_max):
            raise ValueError("need 0 < mu0 < mu_max")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        n = self.max_iter
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {n!r}")
        for name in ("alpha", "beta", "lam"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")


@dataclass
class TracePoint:
    iteration: int
    residual: float
    mu: float
    lagrangian: float


@dataclass
class Decomposition:
    Z_star: np.ndarray
    L_star: np.ndarray
    E_star: np.ndarray
    principal: np.ndarray  # X @ Z_star
    salient: np.ndarray    # L_star @ X
    trace: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0


def _zero_state(cfg, **shapes):
    """The all-zero ALM start shared by every model: each named block at
    `np.zeros(shape)`, mu = mu0 and iteration 0."""
    return SimpleNamespace(**{name: np.zeros(shape) for name, shape in shapes.items()},
                           mu=cfg.mu0, iter=0)


def _aslrc_state(cfg, d, N, width):
    """ASLRC's all-zero start with L, F and Y3 d x width."""
    nn, dn, dw = (N, N), (d, N), (d, width)
    return _zero_state(cfg, Z=nn, J=nn, Q=nn, R=nn, S=nn, W=nn,
                       L=dw, F=dw, E=dn, Y1=dn, Y2=nn, Y3=dw, Y4=nn, Y5=nn, Y6=nn)


def init_state(X, cfg=None):
    """ASLRC's all-zero starting point with mu = mu0, L, F and Y3 d x d."""
    d, N = np.asarray(X).shape
    return _aslrc_state(cfg or SolverConfig(), d, N, d)


def _lower_inverse(C):
    """Inverse of the lower-triangular C, by halves:
        [[A, 0], [B, D]]^-1 = [[A^-1, 0], [-D^-1 B A^-1, D^-1]].
    Up to 32 rows `np.linalg.inv` inverts C whole.  Above that its LU (it
    knows no triangular case) costs more than the halves: on one OpenBLAS
    thread, an SPD solve (`_spd_factor`, then `cho_solve`) of a 60-wide
    system with 60 right-hand sides took 0.095 ms this way against 0.12 ms
    with one `inv`, and 0.33 against 0.58 ms at 120 wide.
    """
    n = C.shape[0]
    if n <= 32:
        return np.linalg.inv(C)
    h = n // 2
    T = np.zeros_like(C)
    T[:h, :h] = A = _lower_inverse(C[:h, :h])
    T[h:, h:] = D = _lower_inverse(C[h:, h:])
    T[h:, :h] = D @ C[h:, :h] @ -A
    return T


def _spd_factor(M):
    """Inverse Cholesky factor T = C^-1 of SPD M = CC', so that M^-1 = T'T
    (`cho_solve`): a matrix fixed for a whole solve is factored once, and
    each solve with it is two matrix products.  One trace-scaled jitter
    retry, then NumericalError.

    A non-finite M raises NumericalError at once: no jitter can repair it.
    `np.linalg.cholesky` reads one triangle of M, so M must be exactly
    symmetric, as `A @ A.T` is.
    """
    _require_finite(M, "Cholesky factorization")
    try:
        C = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * max(np.trace(M), 1.0)
        try:
            C = np.linalg.cholesky(M + jitter * np.eye(M.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Cholesky factorization failed: {exc}") from exc
    return _lower_inverse(C)


def cho_solve(T, B):
    """M^-1 B = T'(T B) for T = `_spd_factor(M)`."""
    return T.T @ (T @ B)


def _add_div(A, B, c):
    """A + B / c as one new array: the quotient's buffer takes the sum."""
    out = B / c
    out += A
    return out


class _Dense:
    """L, F and Y3 held as d x d arrays: each step's expressions on them."""

    def solve_L(self, state, P, basis, T):
        Q, B = basis
        H = _add_div(state.F, state.Y3, -state.mu)
        HQ = H @ Q
        W = ((P @ B.T + state.mu * HQ) @ T.T) @ T
        if Q.shape[1] == Q.shape[0]:
            # Q is square, so I - QQ' = 0: H - HQQ' would add only rounding, of
            # size eps |H|, to L's components that K scales up.
            return W @ Q.T, W
        L = (W - HQ) @ Q.T
        L += H
        return L, W

    def update_F(self, state):
        M = _add_div(state.L, state.Y3, state.mu)
        M *= _l21_scale(M, 1.0 / state.mu)
        return M

    def max_abs(self, blocks):
        return float(np.max([max(b.max(), -b.min()) if b.size else 0.0 for b in blocks.values()]))

    def F_norms(self, F):
        return np.linalg.norm(F, axis=0)

    def penalized(self, value, state, blocks):
        """Add each block's multiplier term <Y, r> and penalty (mu/2)||r||^2."""
        for name, r in blocks.items():
            value += np.sum(getattr(state, name) * r) + 0.5 * state.mu * np.linalg.norm(r, "fro") ** 2
        return float(value)

    def dense_L(self, L):
        return L


_DENSE = _Dense()


def _l21_zero_columns(Q, W, Yr, mu):
    """Which columns of the L2,1 prox at tau = 1/mu of L + Y3/mu = A Q' are
    certainly zero, for L = W Q', Y3 = Yr Q' and A = W + Yr/mu, without
    forming A Q': one flag per row of Q.

    Column j of A Q' is A q_j, with q_j row j of Q, so its squared norm is
    q_j G q_j' for the r x r G = A'A.  Each q_j has norm at most 1, so those
    values are off by at most about (d + 2r) eps tr(G), for d the rows of W.
    The dense step forms L + Y3/mu with entry errors up to
    (r + 2) eps (|W| + |Yr|/mu) |Q|', which moves a column norm by up to
    (r + 2) eps (||W|| + ||Yr||/mu), and its own norms carry (d + 2) eps.
    The test allows twice each of these first-order bounds.  A column whose
    norm is not finite or below 1e-150 (where `_l21_scale` rescales, and a
    square may have underflowed) is not ruled out.
    """
    d, r = W.shape
    A = _add_div(W, Yr, mu)
    G = A.T @ A
    norms2 = np.einsum("ij,ij->i", Q @ G, Q)
    u = 2.0 * (d + 2 * r + 4) * np.finfo(float).eps
    tops = (np.sqrt(norms2 + u * np.trace(G))
            + u * (np.linalg.norm(W) + np.linalg.norm(Yr) / mu))
    return (norms2 >= 1e-300) & (tops * (1.0 + u) <= 1.0 / mu)


class _ColumnSplit:
    """ASLRC's column split (module docstring) for the dense columns U, in
    the order their coordinates are held; Q_U and Q_C are the rows U and C
    of Q, and qn the row norms of Q_C, each square at least 1e-300."""

    def __init__(self, Q, U):
        self.Q, self.U, self.r, self.C = Q, U, Q.shape[1], np.setdiff1d(np.arange(len(Q)), U)
        self.Qu, self.Qc = Q[U], Q[self.C]
        self.Pu = self.Qu.T @ self.Qu
        self.qn = np.sqrt(np.maximum(np.einsum("ij,ij->i", self.Qc, self.Qc), 1e-300))

    def solve_L(self, state, P, basis, T):
        """H = F - Y3/mu is H_U on U and -Y~ Q_C'/mu on C; Q_C'Q_C = I - P_U, so
            W = (P B' + mu H_U Q_U - Y~ + Y~ P_U) K^-1,
            L_c = W - H_U Q_U - Y~ P_U/mu,    L_U = H_U + (L_c + Y~/mu) Q_U',
        and L = [L_c, L_U] in coordinates; L X = W B still.  While U is
        empty, W = (P B' - Y~) K^-1 and L_c = W.  No product is d x d: the
        widest are the two d x |U| x r ones."""
        B, mu, r = basis[1], state.mu, self.r
        if not self.U.size:
            W = ((P @ B.T - state.Y3) @ T.T) @ T
            return W, W
        Yc = state.Y3[:, :r]
        Hu = _add_div(state.F[:, r:], state.Y3[:, r:], -mu)
        HuQu, YP = Hu @ self.Qu, Yc @ self.Pu
        W = ((P @ B.T + mu * HuQu - Yc + YP) @ T.T) @ T
        L = np.empty_like(state.Y3, order="F")
        Lc = L[:, :r]
        np.subtract(W, HuQu, out=Lc)
        Lc -= YP / mu
        np.matmul(_add_div(Lc, Yc, mu), self.Qu.T, out=L[:, r:])
        L[:, r:] += Hu
        return L, W

    def update_F(self, state):
        """F stays zero on the columns that `_l21_zero_columns` rules out.  The
        others join U: L and Y3 take them as the dense columns L_c q_j and
        Y~ q_j, and the dense step runs on the columns U only, into a
        column-major F whose d x r factor is zero."""
        r, mu = self.r, state.mu
        zero = _l21_zero_columns(self.Qc, state.L[:, :r], state.Y3[:, :r], mu)
        if not zero.all():
            QJ = self.Q[self.C[~zero]].T
            for name in ("L", "Y3"):
                M = getattr(state, name)
                out = np.empty_like(M, shape=(M.shape[0], M.shape[1] + QJ.shape[1]), order="F")
                out[:, :M.shape[1]] = M
                np.matmul(M[:, :r], QJ, out=out[:, M.shape[1]:])
                setattr(state, name, out)
            # The same L in new coordinates: L @ X, which `_solve_L` left, still holds.
            state._lx = (state.L, *state._lx[1:])
            state._split = _ColumnSplit(self.Q, np.concatenate([self.U, self.C[~zero]]))
        elif not self.U.size:
            return state.F
        F = np.zeros(state.Y3.shape, order="F")
        Fu = np.divide(state.Y3[:, r:], mu, out=F[:, r:])
        Fu += state.L[:, r:]
        Fu *= _l21_scale(Fu, 1.0 / mu)
        return F

    def max_abs(self, blocks):
        """The Y3 block is [L_c, r_U]; entry (i, j) of its part on C, L_c Q_C',
        is at most ||l_i|| ||q_j|| (rows of L_c and Q_C).  Only the rows and
        columns where that bound, with twice the first-order rounding of the
        product and of both norms as a margin, reaches the max of every other
        block are formed.  Each squared norm is at least 1e-300, so no
        underflow lowers the bound; NaN is never ruled out."""
        r = self.r
        Lc = blocks["Y3"][:, :r]
        top = _DENSE.max_abs({**blocks, "Y3": blocks["Y3"][:, r:]})
        ln = (np.sqrt(np.maximum(np.einsum("ij,ij->i", Lc, Lc), 1e-300))
              * (1.0 + 4 * (r + 2) * np.finfo(float).eps))
        rows = ~(ln * self.qn.max(initial=0.0) < top)
        cols = ~(ln.max() * self.qn < top)
        if rows.any() and cols.any():
            top = float(np.max([top, _max_abs({"Y3": Lc[rows] @ self.Qc[cols].T})]))
        return top

    def F_norms(self, F):
        """F is zero on C; the norms of its columns U take no d x |U| temporary."""
        Fu = F[:, self.r:]
        return np.sqrt(np.einsum("ij,ij->j", Fu, Fu))

    def penalized(self, value, state, blocks):
        """On C, <Y~ Q_C', L_c Q_C'> and ||L_c Q_C'||^2 are Gram forms with
        Q_C'Q_C; while U is empty, Q'Q = I reads them off the coordinates."""
        if self.U.size:
            Yc, rc = state.Y3[:, :self.r], blocks["Y3"][:, :self.r]
            Yu, ru = state.Y3[:, self.r:], blocks["Y3"][:, self.r:]
            G = self.Qc.T @ self.Qc
            value += (np.sum((Yc.T @ rc) * G) + np.einsum("ij,ij->", Yu, ru)
                      + 0.5 * state.mu * (np.sum((rc.T @ rc) * G) + np.einsum("ij,ij->", ru, ru)))
            blocks = {name: b for name, b in blocks.items() if name != "Y3"}
        return _DENSE.penalized(value, state, blocks)

    def dense_L(self, L):
        """L_c Q' with the columns U replaced."""
        out = L[:, :self.r] @ self.Q.T
        out[:, self.U] = L[:, self.r:]
        return out


def _geometry(state):
    """How `state` holds L, F and Y3: its `_ColumnSplit`, or `_DENSE`."""
    return getattr(state, "_split", _DENSE)


def _solve_L(state, X, basis, extra=0.0):
    """The L step of both models: minimize the Lagrangian over L by solving
    L M = P X' + mu H in the range of X.  Returns L, and leaves
    (L, X, L @ X) in the state's `_lx` for `_salient`.

    P = Y1 + mu (X - XZ - E) and H = F - Y3/mu come from the state;
    M = mu (XX' + I) + Q extra Q', where (Q, B) = `basis` is the reduced QR
    of X (Q is d x r orthonormal, r = min(d, N)) and `extra` is an r x r
    term the model adds (ASLRC: 2 beta CC'; LatLRR: none, its L system
    multiplied by mu being ASLRC's at beta = 0).  XX' maps into range(X), so
    M = mu (I - QQ') + Q K Q' with K = mu (I + BB') + extra, and an r x r
    solve with K (K >= mu I) replaces the d x d one:
        L = H + (W - HQ) Q',    W = (P B' + mu HQ) K^-1,
    which is W Q' when r = d.  Since X = QB and Q'Q = I,
        L X = HQB + (W - HQ) Q'QB = W B,
    so L @ X costs a d x r by r x N product instead of a d x d by d x N one.
    On dense blocks at d > N it makes two d x d x r products: HQ and (W - HQ) Q'.
    """
    B, mu = basis[1], state.mu
    P = state.Y1 + mu * (X - X @ state.Z - state.E)
    K = mu * (np.eye(B.shape[0]) + B @ B.T) + extra
    # W K = P B' + mu HQ, so W = (P B' + mu HQ) K^-1 = (P B' + mu HQ) T'T
    # with T = `_spd_factor(K)`: two d x r by r x r products, no transpose.
    L, W = _geometry(state).solve_L(state, P, basis, _spd_factor(K))
    state._lx = (L, X, W @ B)
    return L


def update_L(state, X, cfg, basis=None):
    """Minimize the Lagrangian over the projection L: `_solve_L` with
    extra = 2 beta CC', C = B - BR, since ASLRC's term 2 beta DD'
    (D = X - XR) is Q extra Q'.  `basis`, the reduced QR X = QB, is built
    here when not passed.
    """
    basis = basis if basis is not None else np.linalg.qr(X)
    C = basis[1] - basis[1] @ state.R
    return _solve_L(state, X, basis, 2.0 * cfg.beta * (C @ C.T))


def _salient(state, X):
    """L @ X for the state's current L and X.

    `_solve_L` leaves (L, X, W B) in the state's `_lx` (absent until the
    first L step) for the later steps; a promotion to U, which rewrites the
    same L in wider coordinates, keys it to the new array.  Only a state
    whose L was set by other means (one built or copied by hand), or a new
    X, misses it: no solve does.  A miss forms L's d x d form times X.
    """
    cached = getattr(state, "_lx", None)
    if cached is not None and cached[0] is state.L and cached[1] is X:
        return cached[2]
    return _geometry(state).dense_L(state.L) @ X


def update_Z(state, X, zfactor=None):
    """Minimize the Lagrangian over Z; uses the freshly updated L.

    (2I + X'X) Z = (X'Y1 - Y2 - Y4)/mu + X'(X - LX - E) + J + Q
    """
    rhs = ((X.T @ state.Y1 - state.Y2 - state.Y4) / state.mu
           + X.T @ (X - _salient(state, X) - state.E) + state.J + state.Q)
    if zfactor is None:
        zfactor = _spd_factor(2.0 * np.eye(X.shape[1]) + X.T @ X)
    return cho_solve(zfactor, rhs)


def update_R(state, X, cfg):
    """Minimize the Lagrangian over the adaptive weights R.

    With A = [(LX)' ; ones']' so that A'A = (LX)'(LX) + ones*ones':
    (2 beta A'A + 2 mu I) R = 2 beta A'A - Y5 + Y6 + mu S + mu (ones - W)
    """
    N = X.shape[1]
    LX = _salient(state, X)
    AtA = LX.T @ LX + 1.0
    M = 2.0 * cfg.beta * AtA + 2.0 * state.mu * np.eye(N)
    rhs = (2.0 * cfg.beta * AtA - state.Y5 + state.Y6
           + state.mu * state.S + state.mu * (1.0 - state.W))
    return cho_solve(_spd_factor(M), rhs)


def update_Q(state, cfg):
    """Weighted entrywise shrink of Z + Y4/mu; thresholds (alpha/mu) W.

    Negative W entries would make the threshold ill-posed, so they are
    clamped to zero (pass-through).
    """
    T = np.maximum((cfg.alpha / state.mu) * state.W, 0.0)
    return weighted_shrink(state.Z + state.Y4 / state.mu, T)


def update_W(state, cfg):
    """Weighted entrywise shrink of ones - R + Y6/mu; thresholds (alpha/mu)|Q|."""
    target = 1.0 - state.R + state.Y6 / state.mu
    return weighted_shrink(target, (cfg.alpha / state.mu) * np.abs(state.Q))


def update_J(state):
    """Nuclear-norm prox: singular value thresholding of Z + Y2/mu at 1/mu."""
    return svt(state.Z + state.Y2 / state.mu, 1.0 / state.mu)


def update_F(state):
    """L2,1 prox: column shrink of L + Y3/mu at 1/mu, scaling that fresh sum in place."""
    return _geometry(state).update_F(state)


def update_S(state, cfg):
    """L2,1 prox: column shrink of R + Y5/mu at beta/mu."""
    return column_l21_shrink(state.R + state.Y5 / state.mu, cfg.beta / state.mu)


def update_E(state, X, cfg):
    """L1 prox: uniform shrink of X - XZ - LX + Y1/mu at lambda/mu."""
    target = X - X @ state.Z - _salient(state, X) + state.Y1 / state.mu
    return weighted_shrink(target, cfg.lam / state.mu)


def _lrr_residual_blocks(state, X):
    """The residuals of X = XZ + LX + E, J = Z and F = L that both models
    share, keyed by the multiplier that prices each."""
    return {"Y1": X - X @ state.Z - _salient(state, X) - state.E,
            "Y2": state.Z - state.J,
            "Y3": state.L - state.F}


def _residual_blocks(state, X):
    """The six constraint residuals, keyed by the multiplier that prices each."""
    return {**_lrr_residual_blocks(state, X),
            "Y4": state.Z - state.Q,
            "Y5": state.R - state.S,
            "Y6": 1.0 - state.W - state.R}


def _max_abs(blocks, state=None):
    """Max entrywise-infinity norm over residual blocks (0 for empty ones); a
    NaN propagates, as max |b| is taken as max(b.max(), -b.min()), which
    writes no |b|.  A column split of `state` bounds the Y3 block on C."""
    return _geometry(state).max_abs(blocks)


def _ascend(state, blocks, cfg):
    """Multiplier ascent Y <- Y + mu r for each residual block r, then mu growth.

    The new Y is written into r's buffer: the blocks are built for this one
    ascent and nothing else holds them.  No Y array a caller may hold is
    written.
    """
    for name, r in blocks.items():
        r *= state.mu
        r += getattr(state, name)
        setattr(state, name, r)
    state.mu = min(cfg.eta * state.mu, cfg.mu_max)
    state.iter += 1


def update_multipliers_and_mu(state, X, cfg):
    """Gradient-ascent multiplier step, then geometric mu growth."""
    _ascend(state, _residual_blocks(state, X), cfg)
    return state


def check_convergence(state, X, cfg):
    """Max entrywise-infinity norm over the six constraint residuals."""
    residual = _max_abs(_residual_blocks(state, X), state)
    return residual < cfg.tol, residual


def augmented_lagrangian(state, X, cfg, blocks=None):
    """Evaluate the full augmented Lagrangian at the current state.

    `blocks` are the state's residual blocks, when the caller already has them.
    """
    if blocks is None:
        blocks = _residual_blocks(state, X)
    N = X.shape[1]
    A = np.vstack([_salient(state, X), np.ones((1, N))])
    geometry = _geometry(state)
    value = (
        # svt returns an all-zero J below its threshold; its nuclear norm is 0.
        (thin_svd(state.J)[1].sum() if state.J.any() else 0.0)
        + geometry.F_norms(state.F).sum()
        + cfg.alpha * np.abs(state.W * state.Q).sum()
        + cfg.beta * (np.linalg.norm(A - A @ state.R, "fro") ** 2
                      + np.linalg.norm(state.S, axis=0).sum())
        + cfg.lam * np.abs(state.E).sum()
    )
    return geometry.penalized(value, state, blocks)


def primal_sweep(state, X, cfg, zfactor=None, basis=None):
    """One pass of block-coordinate updates at fixed multipliers and mu.

    The sweep constants, when the caller already has them: `zfactor`, the
    inverse Cholesky factor of 2I + X'X (`_spd_factor`), and `basis`, the reduced QR (Q, B) of X
    that `update_L` works in.  `update_L` leaves L @ X in the state's `_lx`.
    """
    state.L = update_L(state, X, cfg, basis)
    state.Z = update_Z(state, X, zfactor)
    state.E = update_E(state, X, cfg)
    state.R = update_R(state, X, cfg)
    state.J = update_J(state)
    state.F = update_F(state)
    state.Q = update_Q(state, cfg)
    state.W = update_W(state, cfg)
    state.S = update_S(state, cfg)
    return state


def _run_alm(state, cfg, sweep, residual_blocks, lagrangian=None):
    """Inexact-ALM loop shared by ASLRC, LatLRR and the classifier.

    `sweep(state)` updates the primal blocks at fixed multipliers and mu;
    `residual_blocks(state)` maps each multiplier name to its constraint
    residual, a new array that no one else holds: the multiplier ascent
    takes its buffer over.  The blocks are built once per sweep and feed the
    convergence check, `lagrangian(state, blocks)`, the trace and the
    ascent (`_ascend`).  Returns (trace, converged).
    Every primal block enters a residual block, so a non-finite residual is
    the one check of the state: that sweep raises NumericalError.  A
    NumericalError raised inside a sweep carries that sweep's iteration.
    """
    trace, converged = [], False
    for _ in range(cfg.max_iter):
        try:
            sweep(state)
        except NumericalError as exc:
            if exc.iteration is None:
                exc.iteration = state.iter
            raise
        blocks = residual_blocks(state)
        residual = _max_abs(blocks, state)
        if not np.isfinite(residual):
            raise NumericalError("non-finite solver state", iteration=state.iter)
        converged = residual < cfg.tol
        lag = lagrangian(state, blocks) if lagrangian is not None else float("nan")
        trace.append(TracePoint(iteration=state.iter, residual=residual, mu=state.mu,
                                lagrangian=lag))
        _ascend(state, blocks, cfg)
        if converged:
            break
    return trace, converged


def _data_matrix(X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or not np.all(np.isfinite(X)):
        raise NumericalError("X must be a finite 2-D matrix")
    if X.shape[0] == 0:
        raise DimensionError("X has no rows (features)")
    return X


def _decomposition(X, state, trace, converged):
    """The Decomposition of a finished state, L in its d x d form."""
    return Decomposition(Z_star=state.Z, L_star=_geometry(state).dense_L(state.L),
                         E_star=state.E, principal=X @ state.Z, salient=_salient(state, X),
                         trace=trace, converged=converged, iterations=state.iter)


@one_blas_thread()
def solve(X, cfg=None, record_lagrangian=True):
    """Run the full inexact-ALM loop and return the converged decomposition.

    Stops when the max constraint residual drops below cfg.tol or after
    cfg.max_iter sweeps (returned with converged=False, not an error); a
    sweep that leaves the state non-finite raises NumericalError.
    Everything from the set-up to the output products runs on one BLAS
    thread (see `blas.one_blas_thread`), so the result does not depend on
    the caller's BLAS thread count.  At d > N the sweeps run on the column
    split (module docstring), from L, F and Y3 d x r zeros and U empty.
    """
    cfg = cfg or SolverConfig()
    X = _data_matrix(X)
    zfactor = _spd_factor(2.0 * np.eye(X.shape[1]) + X.T @ X)
    basis = np.linalg.qr(X)

    lagrangian = ((lambda state, blocks: augmented_lagrangian(state, X, cfg, blocks))
                  if record_lagrangian else None)
    state = _aslrc_state(cfg, *X.shape, min(X.shape))  # d x r blocks: dense at r = d
    if X.shape[0] > X.shape[1]:
        state._split = _ColumnSplit(basis[0], np.zeros(0, dtype=np.intp))
    trace, converged = _run_alm(state, cfg,
                                lambda state: primal_sweep(state, X, cfg, zfactor, basis),
                                lambda state: _residual_blocks(state, X), lagrangian)
    return _decomposition(X, state, trace, converged)
