from types import SimpleNamespace

import numpy as np
import pytest


def random_state(rng, d, N, mu=1.0, nonneg_W=True):
    """A random (finite, well-scaled) solver state for oracle tests."""
    g = lambda *s: rng.standard_normal(s) * 0.5
    W = rng.uniform(0.0, 1.0, (N, N)) if nonneg_W else g(N, N)
    return SimpleNamespace(
        Z=g(N, N), J=g(N, N), Q=g(N, N), R=g(N, N), S=g(N, N), W=W,
        L=g(d, d), F=g(d, d), E=g(d, N),
        Y1=g(d, N), Y2=g(N, N), Y3=g(d, d), Y4=g(N, N), Y5=g(N, N), Y6=g(N, N),
        mu=mu, iter=0,
    )


def fd_gradient(f, M, h=1e-4):
    """Central-difference gradient of scalar f at matrix M.

    The Lagrangian is exactly quadratic in the continuous blocks, so the
    central difference has no truncation error; a moderately large step
    keeps cancellation roundoff small.
    """
    g = np.zeros_like(M)
    it = np.nditer(M, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        step = h * (1.0 + abs(M[idx]))
        Mp = M.copy(); Mp[idx] += step
        Mm = M.copy(); Mm[idx] -= step
        g[idx] = (f(Mp) - f(Mm)) / (2.0 * step)
    return g


def prox_objective(P, M, penalty, tau):
    return tau * penalty(P) + 0.5 * np.linalg.norm(P - M, "fro") ** 2


def assert_beats_perturbations(out, M, penalty, tau, rng, n=200, radius=0.1, tol=1e-10):
    """The prox output must beat random perturbations on its subproblem objective."""
    base = prox_objective(out, M, penalty, tau)
    for _ in range(n):
        P = rng.standard_normal(out.shape)
        P *= rng.uniform(0, radius) / max(np.linalg.norm(P, "fro"), 1e-30)
        assert base <= prox_objective(out + P, M, penalty, tau) + tol


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
