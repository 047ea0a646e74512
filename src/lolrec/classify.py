"""Out-of-sample classification on salient features.

Training solves min ||Ec||_1 s.t. H' = F' C + Ec (F = projected training
features, H = one-hot labels) by inexact ALM with a ridge-stabilized
least-squares C step.  Prediction double-projects: soft = C' L x, hard
label = argmax of the soft vector, ties to the lowest class index.
"""

from dataclasses import dataclass

import numpy as np

from .blas import one_blas_thread
from .errors import DegenerateFeatures, DimensionError
from .prox import weighted_shrink
from .solver import SolverConfig, _data_matrix, _run_alm, _spd_factor, _zero_state, cho_solve


def validate_labels(H):
    """Check the one-hot invariant: each column has a single entry equal to 1."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2:
        raise DimensionError("label matrix must be 2-D (classes x samples)")
    nonzero = H != 0
    if not np.all(nonzero.sum(axis=0) == 1) or not np.all(H[nonzero] == 1):
        raise DimensionError("each label column must have exactly one entry equal to 1")
    return H


def one_hot(labels, n_classes=None):
    """Build a one-hot label matrix from 0-based integer labels."""
    labels = np.asarray(labels, dtype=int)
    c = n_classes if n_classes is not None else labels.max() + 1
    H = np.zeros((c, labels.size))
    H[labels, np.arange(labels.size)] = 1.0
    return H


@dataclass
class ClassifierModel:
    C_star: np.ndarray        # d x c
    L_star: np.ndarray        # d x d projection applied before C
    training_error: np.ndarray  # N x c
    converged: bool
    residual: float
    iterations: int           # ALM sweeps run: max_iter when not converged


@one_blas_thread()
def train_classifier(features, H, cfg=None, L_star=None):
    """Fit the sparse-error linear classifier on projected features.

    `features` is d x N (already projected, i.e. L_star @ X_train);
    `L_star` is stored in the model so prediction can project raw test
    samples the same way (identity when omitted).  Runs on one BLAS thread,
    as `solve` does.  A sweep that leaves the state non-finite raises
    NumericalError.
    """
    cfg = cfg or SolverConfig()
    F = _data_matrix(features)
    H = validate_labels(H)
    d, N = F.shape
    c = H.shape[0]
    if H.shape[1] != N:
        raise DimensionError(f"{N} feature columns vs {H.shape[1]} labels")
    if N < c:
        raise DimensionError("need at least as many samples as classes")
    if not np.any(F):
        raise DegenerateFeatures("all-zero feature matrix")
    if L_star is None:
        L_star = np.eye(d)

    Ht = H.T  # N x c
    G = F @ F.T
    delta = 1e-8 * np.trace(G) / d
    gfac = _spd_factor(G + delta * np.eye(d))

    def sweep(s):
        s.C = cho_solve(gfac, F @ (Ht - s.Ec + s.Y / s.mu))
        s.Ec = weighted_shrink(Ht - F.T @ s.C + s.Y / s.mu, 1.0 / s.mu)

    state = _zero_state(cfg, C=(d, c), Ec=(N, c), Y=(N, c))
    trace, converged = _run_alm(state, cfg, sweep, lambda s: {"Y": Ht - F.T @ s.C - s.Ec})
    return ClassifierModel(C_star=state.C, L_star=np.asarray(L_star, dtype=float),
                           training_error=state.Ec, converged=converged,
                           residual=trace[-1].residual, iterations=state.iter)


def predict_labels(model, X_test):
    """Soft labels C' L X_test and argmax hard labels (0-based)."""
    X_test = np.asarray(X_test, dtype=float)
    if X_test.ndim == 1:
        X_test = X_test[:, None]
    if X_test.shape[0] != model.L_star.shape[1]:
        raise DimensionError(
            f"test rows {X_test.shape[0]} vs projection cols {model.L_star.shape[1]}")
    soft = model.C_star.T @ (model.L_star @ X_test)
    labels = np.argmax(soft, axis=0)  # np.argmax ties break to lowest index
    return labels, soft
