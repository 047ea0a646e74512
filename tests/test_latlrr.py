from types import SimpleNamespace

import numpy as np
import pytest

from lolrec import latlrr, solver
from lolrec.errors import DimensionError, NumericalError
from lolrec.latlrr import latlrr_lagrangian, latlrr_solve
from lolrec.solver import SolverConfig, solve
from lolrec.synth import SubspaceSpec, reconstruction_accuracy, synth_subspaces


def test_zero_data():
    dec = latlrr_solve(np.zeros((4, 6)), 0.1)
    assert dec.converged
    np.testing.assert_allclose(dec.Z_star, 0.0, atol=1e-6)
    np.testing.assert_allclose(dec.L_star, 0.0, atol=1e-6)
    np.testing.assert_allclose(dec.E_star, 0.0, atol=1e-6)


def test_rank_one_noiseless(rng):
    u = rng.standard_normal(20)
    v = rng.standard_normal(30)
    X = 20.0 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
    dec = latlrr_solve(X, 0.015)
    assert dec.converged
    assert dec.trace[-1].residual < 1e-6
    assert np.abs(dec.E_star).sum() / np.abs(X).sum() < 0.01


def test_paired_with_aslrc():
    X, _ = synth_subspaces(SubspaceSpec(seed=1))
    cfg = SolverConfig(alpha=0.01, beta=0.01, lam=0.015)
    da = solve(X, cfg, record_lagrangian=False)
    dl = latlrr_solve(X, 0.015, cfg, record_lagrangian=False)
    assert da.trace[-1].residual < 1e-6
    assert dl.trace[-1].residual < 1e-6
    # both recover most of the clean matrix; the paired accuracies are
    # the quantities compared by the denoising benchmarks
    za = reconstruction_accuracy(X, da.principal + da.salient)
    zl = reconstruction_accuracy(X, dl.principal + dl.salient)
    assert za > 0.9 and zl > 0.9


def test_sweep_monotone(rng, monkeypatch):
    # compare the Lagrangian before vs after each primal sweep at the
    # multipliers/mu that sweep saw
    X = rng.standard_normal((6, 8))
    lam = 0.1
    prev = {}
    checked = []

    real = solver._ascend

    def watch(state, blocks, cfg):  # after each sweep, before its ascent
        after = latlrr_lagrangian(state, X, lam)
        if prev:
            before = latlrr_lagrangian(SimpleNamespace(**{**vars(state), **prev}), X, lam)
            checked.append(after <= before + 1e-8 * (1 + abs(before)))
        prev.update((k, getattr(state, k).copy()) for k in "ZLEJF")
        real(state, blocks, cfg)

    monkeypatch.setattr(solver, "_ascend", watch)
    latlrr_solve(X, lam, SolverConfig(max_iter=30), record_lagrangian=False)
    assert len(checked) == 29 and all(checked)


@pytest.mark.parametrize("lam", [-0.1, np.nan, np.inf])
def test_invalid_lambda_rejected_before_any_sweep(monkeypatch, lam):
    monkeypatch.setattr(latlrr, "_run_alm", lambda *a, **k: pytest.fail("a sweep ran"))
    with pytest.raises(ValueError, match="lam"):
        latlrr_solve(np.ones((4, 6)), lam)


def test_feasibility_residual_definition(rng):
    X = rng.standard_normal((5, 7))
    dec = latlrr_solve(X, 0.2, SolverConfig(max_iter=50), record_lagrangian=False)
    p = dec.trace[-1]
    res = X - X @ dec.Z_star - dec.L_star @ X - dec.E_star
    assert np.max(np.abs(res)) <= p.residual + 1e-12


PAIRED = {"aslrc": lambda X, cfg: solve(X, cfg),
          "latlrr": lambda X, cfg: latlrr_solve(X, None, cfg)}


@pytest.mark.parametrize("method", sorted(PAIRED))
def test_no_samples_converges_empty(method):
    dec = PAIRED[method](np.zeros((4, 0)), SolverConfig())
    assert dec.converged and dec.Z_star.shape == (0, 0)


@pytest.mark.parametrize("method", sorted(PAIRED))
def test_no_features_rejected(monkeypatch, method):
    for module in (solver, latlrr):
        monkeypatch.setattr(module, "_run_alm", lambda *a, **k: pytest.fail("a sweep ran"))
    with pytest.raises(DimensionError, match="no rows"):
        PAIRED[method](np.zeros((0, 5)), SolverConfig())


@pytest.mark.parametrize("scale", [1e8, 1e200])
@pytest.mark.parametrize("method", sorted(PAIRED))
def test_extreme_scale_result_or_numerical_error(method, scale):
    X, _ = synth_subspaces(SubspaceSpec(k=2, sub_dim=2, d=12, n_per=8, seed=1))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            dec = PAIRED[method](scale * X, SolverConfig(max_iter=50))
        except NumericalError:
            return
    assert np.all(np.isfinite(dec.Z_star)) and np.all(np.isfinite(dec.E_star))
