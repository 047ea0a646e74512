"""Synthetic data, corruption protocols, and quantitative metrics.

All randomized operations take an explicit seed and build a private
generator, so results are bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSignal, DimensionError, InvalidSpec, RangeError


@dataclass
class SubspaceSpec:
    k: int = 3            # number of subspaces
    sub_dim: int = 3      # dimension of each
    d: int = 50           # ambient dimension
    n_per: int = 20       # samples per subspace
    disjoint: bool = True
    noise_sigma: float = 0.0
    seed: int = 0
    # Expected column norm of the clean samples.  The L1 error weight is
    # not scale-invariant, so the default keeps sample energy well above
    # the sparse-error regime of the default lambda.
    amplitude: float = 4.0


def synth_subspaces(spec):
    """Sample a union of low-rank subspaces; returns (X, labels).

    Each subspace is spanned by `sub_dim` orthonormal directions.  When
    disjoint, bases occupy disjoint coordinate blocks and the whole
    collection is rotated by one random orthogonal matrix, so pairwise
    intersections are trivial by construction.
    """
    if spec.k < 1 or spec.sub_dim < 1 or spec.d < 1 or spec.n_per < spec.sub_dim:
        raise InvalidSpec("need k, sub_dim, d >= 1 and n_per >= sub_dim")
    if spec.disjoint and spec.k * spec.sub_dim > spec.d:
        raise InvalidSpec("disjoint subspaces need k * sub_dim <= d")
    rng = np.random.default_rng(spec.seed)

    bases = []
    if spec.disjoint:
        rot, _ = np.linalg.qr(rng.standard_normal((spec.d, spec.d)))
        for i in range(spec.k):
            block = np.zeros((spec.d, spec.sub_dim))
            rows = slice(i * spec.sub_dim, (i + 1) * spec.sub_dim)
            block[rows, :], _ = np.linalg.qr(rng.standard_normal((spec.sub_dim, spec.sub_dim)))
            bases.append(rot @ block)
    else:
        for _ in range(spec.k):
            U, _ = np.linalg.qr(rng.standard_normal((spec.d, spec.sub_dim)))
            bases.append(U)

    cols = []
    labels = []
    for i, U in enumerate(bases):
        coeffs = (spec.amplitude / np.sqrt(spec.sub_dim)) * rng.standard_normal((spec.sub_dim, spec.n_per))
        cols.append(U @ coeffs)
        labels.extend([i] * spec.n_per)
    X = np.hstack(cols)
    if spec.noise_sigma > 0:
        X = X + spec.noise_sigma * rng.standard_normal(X.shape)
    return X, np.asarray(labels, dtype=int)


def synth_blobs(k=3, d=20, n_per=60, sep=3.0, noise=1.0, seed=0):
    """Gaussian class blobs for classifier experiments; returns (X, labels)."""
    if k < 1 or d < 1 or n_per < 1:
        raise InvalidSpec("need k, d, n_per >= 1")
    rng = np.random.default_rng(seed)
    means = sep * rng.standard_normal((d, k))
    cols = [means[:, [c]] + noise * rng.standard_normal((d, n_per)) for c in range(k)]
    labels = np.repeat(np.arange(k), n_per)
    return np.hstack(cols), labels


def add_gaussian_noise_snr(X, snr_db, seed=0):
    """Add white Gaussian noise at the requested SNR (dB, in expectation).

    Signal power is the global mean squared entry of X.
    """
    X = np.asarray(X, dtype=float)
    signal_power = float(np.mean(X ** 2))
    if signal_power == 0:
        raise DegenerateSignal("cannot set an SNR against an all-zero signal")
    noise_power = signal_power / (10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    return X + np.sqrt(noise_power) * rng.standard_normal(X.shape)


def _corruption_mask(shape, pct, seed):
    if not (0 <= pct <= 100):
        raise RangeError(f"pct={pct} outside [0, 100]")
    d, N = shape
    count = int(round(pct / 100.0 * d * N))
    rng = np.random.default_rng(seed)
    flat = rng.choice(d * N, size=count, replace=False)
    return flat, rng


def corrupt_random_pixels(X, pct, seed=0):
    """Replace round(pct% of entries) with uniform values on [0, 1]."""
    X = np.asarray(X, dtype=float).copy()
    flat, rng = _corruption_mask(X.shape, pct, seed)
    X.flat[flat] = rng.uniform(0.0, 1.0, size=flat.size)
    return X


def invert_pixels(X, pct, seed=0):
    """Replace selected pixels x on the [0, 1] scale by min(256 - 255 x, 255) / 255.

    Expects `image_to_matrix`'s scale; the clamp only fires at x = 0.
    """
    X = np.asarray(X, dtype=float).copy()
    if X.size and (X.min() < 0 or X.max() > 1):
        raise RangeError("pixel values must lie in [0, 1]")
    flat, _ = _corruption_mask(X.shape, pct, seed)
    X.flat[flat] = np.minimum(256.0 - X.flat[flat] * 255.0, 255.0) / 255.0
    return X


def reconstruction_accuracy(X_clean, X_rec):
    """Clamped complement of the relative Frobenius error, in [0, 1]."""
    X_clean = np.asarray(X_clean, dtype=float)
    X_rec = np.asarray(X_rec, dtype=float)
    if X_clean.shape != X_rec.shape:
        raise DimensionError(f"shape mismatch {X_clean.shape} vs {X_rec.shape}")
    ref = np.linalg.norm(X_clean, "fro")
    if ref == 0:
        raise DegenerateSignal("all-zero reference matrix")
    return max(0.0, 1.0 - np.linalg.norm(X_clean - X_rec, "fro") / ref)


def offblock_ratio(Z, labels):
    """Mass of |Z| falling outside same-label blocks, as a fraction of total.

    Zero means perfectly block-diagonal; returns 0 for an all-zero Z.
    """
    Z = np.asarray(Z, dtype=float)
    labels = np.asarray(labels)
    if labels.size != Z.shape[0] or Z.shape[0] != Z.shape[1]:
        raise DimensionError("labels must match the square coding matrix")
    A = np.abs(Z)
    total = A.sum()
    if total == 0:
        return 0.0
    same = labels[:, None] == labels[None, :]
    return float(A[~same].sum() / total)


def classification_accuracy(pred_labels, true_labels):
    """Fraction of exact label matches."""
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape:
        raise DimensionError(f"length mismatch {pred.shape} vs {true.shape}")
    return float(np.mean(pred == true))
