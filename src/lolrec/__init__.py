"""Latent low-rank coding toolkit.

Decomposes a data matrix into a block-diagonal low-rank reconstruction,
group-sparse salient features, and sparse error, with an out-of-sample
classifier and an experiment harness for denoising benchmarks.
"""

__version__ = "0.1.0"

from .classify import ClassifierModel, one_hot, predict_labels, train_classifier
from .latlrr import latlrr_solve
from .matrix_io import load_matrix_csv, load_pgm, save_matrix_csv, save_pgm
from .prox import column_l21_shrink, scalar_shrink, svt, thin_svd, weighted_shrink
from .solver import Decomposition, SolverConfig, solve
from .synth import (SubspaceSpec, add_gaussian_noise_snr, classification_accuracy,
                    corrupt_random_pixels, invert_pixels, offblock_ratio,
                    reconstruction_accuracy, synth_blobs, synth_subspaces)
