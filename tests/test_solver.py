import copy
import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import assert_beats_perturbations, fd_gradient, random_state
from reference import cholesky_latlrr_L, cholesky_update_L, l_system, reference_svt
from lolrec import classify, latlrr, prox, solver
from lolrec.errors import NumericalError, ToolkitError
from lolrec.latlrr import latlrr_solve
from lolrec.solver import (SolverConfig, augmented_lagrangian, check_convergence,
                           init_state, primal_sweep, solve, update_E, update_F,
                           update_J, update_L, update_multipliers_and_mu,
                           update_Q, update_R, update_S, update_W, update_Z)
from lolrec.synth import SubspaceSpec, synth_subspaces

CFG = SolverConfig(alpha=0.3, beta=0.2, lam=0.4)


def lagrangian_as_function_of(block, state, X, cfg):
    def f(value):
        s = copy.deepcopy(state)
        setattr(s, block, value)
        return augmented_lagrangian(s, X, cfg)
    return f


class TestSolverConfig:
    @pytest.mark.parametrize("bad", [
        {"eta": 1.0}, {"mu0": 0.0}, {"mu0": 1e11}, {"tol": 0.0},
        {"alpha": -1.0}, {"beta": np.inf}, {"lam": np.nan}, {"max_iter": 0},
        {"max_iter": 2.7}, {"max_iter": 5.0}, {"max_iter": True},
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


class TestInitState:
    def test_all_zero(self, rng):
        X = rng.standard_normal((4, 6))
        s = init_state(X)
        blocks = [b for b in vars(s).values() if isinstance(b, np.ndarray)]
        assert len(blocks) == 15
        for b in blocks:
            np.testing.assert_array_equal(b, 0.0)
        assert s.mu == 1e-6 and s.iter == 0

    def test_init_residual(self, rng):
        X = rng.standard_normal((4, 6)) * 3
        _, res = check_convergence(init_state(X), X, CFG)
        assert res == pytest.approx(max(np.max(np.abs(X)), 1.0))

    def test_zero_data_residual(self):
        X = np.zeros((3, 5))
        _, res = check_convergence(init_state(X), X, CFG)
        assert res == 1.0


# The shapes, models and mu values on which both models' L step is checked.
L_MUS = [1e-6, 1.0, 1e4]
L_CASES = [
    pytest.param(shape, model, id=shape if model == "aslrc" else f"{model}-{shape}")
    for model in ("aslrc", "latlrr") for shape in (
        "tall", "square", "wide", "tall-repeated-columns", "wide-repeated-columns",
        "no-rows", "no-samples")
]


class TestUpdateL:
    def test_zero_state_reduction(self, rng):
        X = rng.standard_normal((4, 6))
        s = init_state(X)
        s.mu = 1.0
        cfg = SolverConfig(alpha=0.1, beta=0.0, lam=0.1)
        expected = X @ X.T @ np.linalg.inv(X @ X.T + np.eye(4))
        np.testing.assert_allclose(update_L(s, X, cfg), expected, atol=1e-10)

    def test_scalar_case(self):
        X = np.array([[2.0]])
        s = init_state(X)
        s.mu = 1.0
        cfg = SolverConfig(alpha=0.1, beta=0.0, lam=0.1)
        assert update_L(s, X, cfg)[0, 0] == pytest.approx(4.0 / 5.0)

    def test_gradient_vanishes(self, rng):
        for d, N in [(5, 7), (9, 4)]:
            X = rng.standard_normal((d, N))
            s = random_state(rng, d, N)
            s.L = update_L(s, X, CFG)
            g = fd_gradient(lagrangian_as_function_of("L", s, X, CFG), s.L)
            assert np.linalg.norm(g) < 1e-8 * (1 + np.linalg.norm(s.L)), (d, N)

    @staticmethod
    def solve_case(rng, shape, model, mu):
        """(state, X, cfg, L, L @ X from the solve) for one model's L step."""
        X = {
            "tall": lambda: rng.standard_normal((40, 8)),
            "square": lambda: rng.standard_normal((8, 8)),
            "wide": lambda: rng.standard_normal((6, 9)),
            "tall-repeated-columns": lambda: np.repeat(rng.standard_normal((30, 4)), 3, axis=1),
            "wide-repeated-columns": lambda: np.repeat(rng.standard_normal((6, 3)), 4, axis=1),
            "no-rows": lambda: np.zeros((0, 5)),
            "no-samples": lambda: np.zeros((5, 0)),
        }[shape]()
        s = random_state(rng, *X.shape, mu=mu)
        if model == "aslrc":
            L, cfg = update_L(s, X, CFG), CFG
        else:
            # LatLRR's L system is ASLRC's at beta = 0: no extra K term.
            L, cfg = solver._solve_L(s, X, np.linalg.qr(X)), dataclasses.replace(CFG, beta=0.0)
        assert s._lx[0] is L and s._lx[1] is X
        return s, X, cfg, L, s._lx[2]

    @pytest.mark.parametrize("mu", L_MUS)
    @pytest.mark.parametrize("shape,model", L_CASES)
    def test_matches_dense_solve(self, rng, shape, model, mu):
        s, X, cfg, L, _ = self.solve_case(rng, shape, model, mu)
        d = X.shape[0]
        assert L.shape == (d, d)
        M, rhs = l_system(s, X, cfg)
        if d == 0:
            return
        norm = np.linalg.norm
        backward = norm(L @ M - rhs) / (norm(L) * norm(M) + norm(rhs))
        assert backward <= 1e-13
        reference = np.linalg.solve(M, rhs.T).T
        assert norm(L - reference) <= 1e-13 * np.linalg.cond(M) * norm(reference)

    @pytest.mark.parametrize("mu", L_MUS)
    @pytest.mark.parametrize("shape,model", L_CASES)
    def test_solve_returns_LX(self, rng, shape, model, mu):
        """L @ X from the solve (W B) is the product of the L it returns."""
        _, X, _, L, LX = self.solve_case(rng, shape, model, mu)
        assert LX.shape == X.shape
        norm = np.linalg.norm
        assert norm(LX - L @ X) <= 1e-13 * norm(L) * norm(X)


class TestUpdateZ:
    def test_zero_state_reduction(self, rng):
        X = rng.standard_normal((4, 6))
        s = init_state(X)
        s.mu = 1.0
        expected = np.linalg.solve(2 * np.eye(6) + X.T @ X, X.T @ X)
        np.testing.assert_allclose(update_Z(s, X), expected, atol=1e-10)

    def test_scalar_case(self):
        X = np.array([[1.0]])
        s = init_state(X)
        s.mu = 1.0
        assert update_Z(s, X)[0, 0] == pytest.approx(1.0 / 3.0)

    def test_gradient_vanishes(self, rng):
        X = rng.standard_normal((5, 7))
        s = random_state(rng, 5, 7)
        s.Z = update_Z(s, X)
        g = fd_gradient(lagrangian_as_function_of("Z", s, X, CFG), s.Z)
        assert np.linalg.norm(g) < 1e-8 * (1 + np.linalg.norm(s.Z))


class TestUpdateR:
    def test_beta_zero_reduction(self, rng):
        X = rng.standard_normal((4, 6))
        s = random_state(rng, 4, 6)
        s.Y5 = np.zeros((6, 6))
        s.Y6 = np.zeros((6, 6))
        cfg = SolverConfig(alpha=0.1, beta=0.0, lam=0.1)
        expected = (s.S + np.ones((6, 6)) - s.W) / 2.0
        np.testing.assert_allclose(update_R(s, X, cfg), expected, atol=1e-10)

    def test_zero_state(self, rng):
        X = rng.standard_normal((4, 6))
        s = init_state(X)
        s.mu = 1.0
        cfg = SolverConfig(alpha=0.1, beta=0.0, lam=0.1)
        np.testing.assert_allclose(update_R(s, X, cfg), np.ones((6, 6)) / 2.0, atol=1e-12)

    def test_gradient_vanishes(self, rng):
        # certifies the re-derived linear system for the adaptive weights
        X = rng.standard_normal((5, 7))
        s = random_state(rng, 5, 7)
        s.R = update_R(s, X, CFG)
        g = fd_gradient(lagrangian_as_function_of("R", s, X, CFG), s.R)
        assert np.linalg.norm(g) < 1e-8 * (1 + np.linalg.norm(s.R))


class TestProxUpdates:
    def test_Q_zero_weight_identity(self, rng):
        s = random_state(rng, 4, 5)
        s.W = np.zeros((5, 5))
        np.testing.assert_allclose(update_Q(s, CFG), s.Z + s.Y4 / s.mu)

    def test_Q_scalar(self):
        X = np.zeros((1, 1))
        s = init_state(X)
        s.mu = 1.0
        s.Z = np.array([[1.0]])
        s.W = np.array([[0.4 / CFG.alpha]])
        assert update_Q(s, CFG)[0, 0] == pytest.approx(0.6)

    def test_Q_negative_weight_passthrough(self, rng):
        s = random_state(rng, 3, 4)
        s.W = -np.ones((4, 4))
        np.testing.assert_allclose(update_Q(s, CFG), s.Z + s.Y4 / s.mu)

    def test_W_zero_Q_identity(self, rng):
        s = random_state(rng, 4, 5)
        s.Q = np.zeros((5, 5))
        expected = np.ones((5, 5)) - s.R + s.Y6 / s.mu
        np.testing.assert_allclose(update_W(s, CFG), expected)

    def test_Q_W_shared_kernel(self, rng):
        # both updates are the same weighted shrink applied to their targets
        s = random_state(rng, 3, 4)
        a = rng.standard_normal((4, 4))
        s.W = np.abs(a)
        s.Z = rng.standard_normal((4, 4))
        s.Y4 = np.zeros((4, 4))
        q_out = update_Q(s, CFG)
        s2 = copy.deepcopy(s)
        s2.Q = a
        s2.R = np.ones((4, 4)) - s.Z
        s2.Y6 = np.zeros((4, 4))
        np.testing.assert_allclose(q_out, update_W(s2, CFG), atol=1e-12)

    def test_J_diagonal(self, rng):
        s = init_state(np.zeros((2, 2)))
        s.mu = 1.0
        s.Z = np.diag([3.0, 0.4])
        np.testing.assert_allclose(update_J(s), np.diag([2.0, 0.0]), atol=1e-12)

    def test_J_zero(self):
        s = init_state(np.zeros((3, 3)))
        s.mu = 1.0
        np.testing.assert_array_equal(update_J(s), 0.0)

    def test_F_column_formula(self):
        s = init_state(np.zeros((2, 1)))
        s.mu = 1.0
        s.L = np.array([[3.0, 0.1], [4.0, 0.2]])
        out = update_F(s)
        np.testing.assert_allclose(out[:, 0], [2.4, 3.2])
        np.testing.assert_array_equal(out[:, 1], 0.0)  # norm < 1/mu

    def test_S_beta_zero(self, rng):
        s = random_state(rng, 3, 4)
        cfg = SolverConfig(alpha=0.1, beta=0.0, lam=0.1)
        np.testing.assert_allclose(update_S(s, cfg), s.R + s.Y5 / s.mu)

    def test_E_lambda_zero(self, rng):
        X = rng.standard_normal((3, 4))
        s = random_state(rng, 3, 4)
        cfg = SolverConfig(alpha=0.1, beta=0.1, lam=0.0)
        expected = X - X @ s.Z - s.L @ X + s.Y1 / s.mu
        np.testing.assert_allclose(update_E(s, X, cfg), expected)

    def test_E_scalar(self):
        X = np.array([[0.25]])
        s = init_state(X)
        s.mu = 1.0
        cfg = SolverConfig(alpha=0.1, beta=0.1, lam=0.1)
        assert update_E(s, X, cfg)[0, 0] == pytest.approx(0.15)

    def test_prox_updates_beat_perturbations(self, rng):
        X = rng.standard_normal((4, 5))
        s = random_state(rng, 4, 5)
        cfg = CFG
        mu = s.mu
        cases = [
            (update_J(s), s.Z + s.Y2 / mu,
             lambda M: np.linalg.svd(M, compute_uv=False).sum(), 1.0 / mu),
            (update_F(s), s.L + s.Y3 / mu,
             lambda M: np.linalg.norm(M, axis=0).sum(), 1.0 / mu),
            (update_S(s, cfg), s.R + s.Y5 / mu,
             lambda M: np.linalg.norm(M, axis=0).sum(), cfg.beta / mu),
            (update_E(s, X, cfg), X - X @ s.Z - s.L @ X + s.Y1 / mu,
             lambda M: np.abs(M).sum(), cfg.lam / mu),
            (update_Q(s, cfg), s.Z + s.Y4 / mu,
             lambda M: np.abs(s.W * M).sum(), cfg.alpha / mu),
            (update_W(s, cfg), np.ones(s.W.shape) - s.R + s.Y6 / mu,
             lambda M: np.abs(M * s.Q).sum(), cfg.alpha / mu),
        ]
        for out, target, penalty, tau in cases:
            assert_beats_perturbations(out, target, penalty, tau, rng, n=60)


class TestScheduleAndConvergence:
    def test_feasible_state_keeps_multipliers(self, rng):
        X = rng.standard_normal((3, 4))
        s = init_state(X)
        s.mu = 1.0
        # make every constraint hold exactly
        s.Z = rng.standard_normal((4, 4)); s.J = s.Z.copy(); s.Q = s.Z.copy()
        s.L = rng.standard_normal((3, 3)); s.F = s.L.copy()
        s.R = rng.standard_normal((4, 4)); s.S = s.R.copy()
        s.W = np.ones((4, 4)) - s.R
        s.E = X - X @ s.Z - s.L @ X
        before = [b.copy() for b in (s.Y1, s.Y2, s.Y3, s.Y4, s.Y5, s.Y6)]
        update_multipliers_and_mu(s, X, CFG)
        for b, a in zip(before, (s.Y1, s.Y2, s.Y3, s.Y4, s.Y5, s.Y6)):
            np.testing.assert_allclose(a, b, atol=1e-12)
        assert s.mu == pytest.approx(CFG.eta)
        ok, res = check_convergence(s, X, CFG)
        assert ok and res == pytest.approx(0.0, abs=1e-12)

    def test_mu_cap(self):
        s = init_state(np.zeros((2, 2)))
        s.mu = CFG.mu_max
        update_multipliers_and_mu(s, np.zeros((2, 2)), CFG)
        assert s.mu == CFG.mu_max

    def test_mu_geometric(self):
        X = np.zeros((2, 2))
        cfg = SolverConfig()
        s = init_state(X, cfg)
        for _ in range(10):
            update_multipliers_and_mu(s, X, cfg)
        assert s.mu == pytest.approx(1e-6 * 1.12 ** 10, rel=1e-12)
        assert s.mu == pytest.approx(3.1058e-6, rel=1e-4)

    def test_single_violation_residual(self):
        X = np.zeros((2, 3))
        s = init_state(X)
        s.R = np.ones((3, 3)) - s.W  # zero the ones-block residual
        s.S = s.R.copy()
        s.Z[0, 1] = 2e-6  # J and Q stay zero, so Z - J is the violation
        ok, res = check_convergence(s, X, SolverConfig(tol=1e-6))
        assert not ok and res == pytest.approx(2e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 1, 5])
    def test_max_abs_not_finite_when_any_block_is(self, bad, position):
        blocks = {f"Y{k + 1}": np.full((2, 2), 0.5) for k in range(6)}
        blocks[f"Y{position + 1}"][1, 0] = bad
        assert not np.isfinite(solver._max_abs(blocks))


class TestAugmentedLagrangian:
    def test_zero_state_zero_data(self):
        X = np.zeros((3, 5))
        cfg = SolverConfig(alpha=0.2, beta=0.0, lam=0.3)
        s = init_state(X, cfg)
        s.mu = 2.0
        assert augmented_lagrangian(s, X, cfg) == pytest.approx(0.5 * 2.0 * 25)

    def test_feasible_state_nuclear_only(self, rng):
        X = rng.standard_normal((3, 4))
        cfg = SolverConfig(alpha=0.0, beta=0.0, lam=0.0)
        s = init_state(X, cfg)
        s.mu = 1.0
        s.Z = rng.standard_normal((4, 4)); s.J = s.Z.copy(); s.Q = s.Z.copy()
        s.L = rng.standard_normal((3, 3)); s.F = s.L.copy()
        s.R = rng.standard_normal((4, 4)); s.S = s.R.copy()
        s.W = np.ones((4, 4)) - s.R
        s.E = X - X @ s.Z - s.L @ X
        expected = (np.linalg.svd(s.J, compute_uv=False).sum()
                    + np.linalg.norm(s.F, axis=0).sum())
        assert augmented_lagrangian(s, X, cfg) == pytest.approx(expected)

    def test_single_update_monotone(self, rng):
        X = rng.standard_normal((5, 6))
        for _ in range(5):
            s = random_state(rng, 5, 6)
            before = augmented_lagrangian(s, X, CFG)
            order = [
                ("L", lambda st: update_L(st, X, CFG)),
                ("Z", lambda st: update_Z(st, X)),
                ("E", lambda st: update_E(st, X, CFG)),
                ("R", lambda st: update_R(st, X, CFG)),
                ("J", lambda st: update_J(st)),
                ("F", lambda st: update_F(st)),
                ("Q", lambda st: update_Q(st, CFG)),
                ("W", lambda st: update_W(st, CFG)),
                ("S", lambda st: update_S(st, CFG)),
            ]
            for name, fn in order:
                setattr(s, name, fn(s))
                after = augmented_lagrangian(s, X, CFG)
                assert after <= before + 1e-8 * (1 + abs(before)), name
                before = after


class TestSolve:
    def test_zero_data(self):
        dec = solve(np.zeros((4, 6)), SolverConfig())
        assert dec.converged
        np.testing.assert_allclose(dec.Z_star, 0.0, atol=1e-6)
        np.testing.assert_allclose(dec.L_star, 0.0, atol=1e-6)
        np.testing.assert_allclose(dec.E_star, 0.0, atol=1e-6)

    def test_synthetic_instance(self):
        spec = SubspaceSpec(k=3, sub_dim=3, d=50, n_per=20, seed=1)
        X, _ = synth_subspaces(spec)
        dec = solve(X, SolverConfig(alpha=0.01, beta=0.01, lam=0.015),
                    record_lagrangian=False)
        assert dec.converged
        assert dec.trace[-1].residual < 1e-6
        assert 50 <= dec.iterations <= 200
        assert np.abs(dec.E_star).sum() / np.abs(X).sum() < 0.01

    def test_sweep_monotone_during_run(self, rng):
        X = rng.standard_normal((8, 10))
        cfg = SolverConfig(alpha=0.05, beta=0.05, lam=0.1, max_iter=40)
        s = init_state(X, cfg)
        for _ in range(40):
            before = augmented_lagrangian(s, X, cfg)
            primal_sweep(s, X, cfg)
            after = augmented_lagrangian(s, X, cfg)
            assert after <= before + 1e-8 * (1 + abs(before))
            update_multipliers_and_mu(s, X, cfg)

    def test_decomposition_identity(self):
        X, _ = synth_subspaces(SubspaceSpec(seed=2))
        dec = solve(X, SolverConfig(alpha=0.01, beta=0.01, lam=0.015),
                    record_lagrangian=False)
        res = X - dec.principal - dec.salient - dec.E_star
        assert np.max(np.abs(res)) <= dec.trace[-1].residual + 1e-12

    def test_trace_mu_schedule(self):
        X, _ = synth_subspaces(SubspaceSpec(seed=2))
        cfg = SolverConfig(alpha=0.01, beta=0.01, lam=0.015)
        dec = solve(X, cfg, record_lagrangian=False)
        mus = [p.mu for p in dec.trace]
        for k, mu in enumerate(mus):
            assert mu == pytest.approx(min(cfg.mu0 * cfg.eta ** k, cfg.mu_max), rel=1e-12)

    def test_non_finite_input(self):
        with pytest.raises(NumericalError):
            solve(np.array([[np.inf, 0.0]]), SolverConfig())

    def test_max_iter_returns_unconverged(self, rng):
        X = rng.standard_normal((6, 8))
        dec = solve(X, SolverConfig(max_iter=3), record_lagrangian=False)
        assert not dec.converged and dec.iterations == 3


def reference_instance(name):
    """(X, residual atol) for the range-basis vs Cholesky-reference comparisons."""
    if name == "canonical":
        X, _ = synth_subspaces(SubspaceSpec(k=3, sub_dim=3, d=50, n_per=20, disjoint=True,
                                            noise_sigma=0.0, seed=1))
        return X, 0.0
    r = np.random.default_rng(3)
    X = r.standard_normal((120, 6)) @ r.standard_normal((6, 20))
    # The last residuals (~1e-6) are differences of O(|X|) entries: the
    # Cholesky path itself moves them by ~1e-13 absolute (1e-7 relative)
    # when X changes by 1e-15 relative.
    return X, 1e-12 * np.max(np.abs(X))


# Each solver, the modules it looks its helpers up in, and its factorizations per sweep.
SOLVERS = {
    "aslrc": (lambda X, cfg: solve(X, cfg, record_lagrangian=False), (solver,), 2),
    "latlrr": (lambda X, cfg: latlrr_solve(X, cfg=cfg, record_lagrangian=False),
               (solver, latlrr), 1),
}


class TestRangeBasis:
    """Both models' L update in the range of X against the d x d Cholesky reference."""

    @pytest.mark.parametrize("instance", ["canonical", "tall-low-rank"])
    def test_solve_matches_cholesky_reference(self, monkeypatch, instance):
        X, atol = reference_instance(instance)
        cfg = SolverConfig(alpha=0.01, beta=0.01, lam=0.015)
        new = solve(X, cfg, record_lagrangian=False)
        # The reference runs on the dense blocks from the first sweep: the
        # d x d Cholesky step reads F and Y3, which the column split holds in coordinates.
        monkeypatch.setattr(solver, "update_L", cholesky_update_L)
        monkeypatch.setattr(solver, "_start_range_phase", lambda state, basis: None)
        ref = solve(X, cfg, record_lagrangian=False)
        assert new.converged and new.iterations == ref.iterations
        assert np.linalg.norm(new.Z_star - ref.Z_star) <= 1e-10 * np.linalg.norm(ref.Z_star)
        np.testing.assert_allclose([p.residual for p in new.trace],
                                   [p.residual for p in ref.trace], rtol=1e-8, atol=atol)

    @pytest.mark.parametrize("instance", ["canonical", "tall-low-rank"])
    def test_latlrr_matches_cholesky_reference(self, monkeypatch, instance):
        X, _ = reference_instance(instance)
        cfg = SolverConfig(lam=0.015)
        new = latlrr_solve(X, cfg=cfg, record_lagrangian=False)
        calls = []
        monkeypatch.setattr(latlrr, "_solve_L", cholesky_latlrr_L(X, calls))
        ref = latlrr_solve(X, cfg=cfg, record_lagrangian=False)
        assert len(calls) == ref.iterations
        assert new.converged and new.iterations == ref.iterations
        assert np.linalg.norm(new.Z_star - ref.Z_star) <= 1e-10 * np.linalg.norm(ref.Z_star)

    @pytest.mark.parametrize("method", sorted(SOLVERS))
    def test_no_factorization_wider_than_N(self, monkeypatch, method):
        """With d > N every factorization is r x r (L) or N x N (R and Z)."""
        run, modules, per_sweep = SOLVERS[method]
        shapes = []
        factor = solver._spd_factor
        for module in modules:
            monkeypatch.setattr(module, "_spd_factor",
                                lambda M: shapes.append(M.shape) or factor(M))
        X = np.random.default_rng(0).standard_normal((60, 8))
        dec = run(X, SolverConfig(max_iter=30))
        assert len(shapes) >= per_sweep * dec.iterations
        assert max(max(shape) for shape in shapes) <= 8

    @pytest.mark.parametrize("method", sorted(SOLVERS))
    def test_one_LX_product_per_sweep(self, monkeypatch, rng, method):
        """L @ X comes from the L solve as W B: no sweep and no output multiplies
        a d x d block by X, and the output's L @ X is L_star @ X."""
        products = []

        class CountingX(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and inputs[1] is X and inputs[0].shape == (len(X),) * 2:
                    products.append(inputs[0])
                inputs = [x.view(np.ndarray) if isinstance(x, CountingX) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        run, modules, _ = SOLVERS[method]
        # The input check would return a plain array, so it is skipped.
        monkeypatch.setattr(modules[-1], "_data_matrix", lambda X: X)
        X = rng.standard_normal((12, 5)).view(CountingX)
        dec = run(X, SolverConfig(max_iter=3))
        assert dec.iterations == 3 and products == []
        salient = dec.L_star @ X.view(np.ndarray)
        assert np.linalg.norm(dec.salient - salient) <= 1e-12 * np.linalg.norm(salient)


def tiny_faces(seed=7, identities=2, per_identity=4, side=8):
    """Image-shaped columns (d = side^2 pixels > N images): each identity is a
    smooth albedo under random affine lighting, and a tenth of each image's
    pixels is replaced by uniform noise."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[-1:1:side * 1j, -1:1:side * 1j]
    columns = []
    for _ in range(identities):
        fx, fy = rng.uniform(0.5, 3.0, 2)
        albedo = 0.6 + 0.1 * np.cos(np.pi * (fx * x + fy * y))
        for _ in range(per_identity):
            c0, c1, c2 = rng.uniform(0.7, 1.0), *rng.uniform(-0.3, 0.3, 2)
            image = np.clip(albedo * (c0 + c1 * x + c2 * y), 0.0, 1.0).ravel()
            hit = rng.choice(image.size, size=image.size // 10, replace=False)
            image[hit] = rng.uniform(0.0, 1.0, hit.size)
            columns.append(image)
    return np.column_stack(columns)


def solve_watching_F(monkeypatch, X, cfg, dense=False, record_lagrangian=False):
    """(decomposition or the ToolkitError raised, per sweep: whether F kept a
    column, and how many columns the F step left in range coordinates, or
    None without a column split).  `dense` runs on the dense blocks from the
    first sweep."""
    kept, held = [], []
    real = solver.update_F

    def spy(state):
        F = real(state)
        kept.append(bool(F.any()))
        split = getattr(state, "_split", None)
        held.append(None if split is None else split.C.size)
        return F

    with monkeypatch.context() as m:
        m.setattr(solver, "update_F", spy)
        if dense:
            m.setattr(solver, "_start_range_phase", lambda state, basis: None)
        try:
            result = solve(X, cfg, record_lagrangian=record_lagrangian)
        except ToolkitError as exc:
            result = exc
    return result, kept, held


# Relative rounding of an r-term dot product (r <= 10 here) that two BLAS
# kernels may compute apart: `_max_abs` forms only a few rows and columns of
# L_c Q_C', where `dense_blocks` forms all of them.
DOT_ROUNDING = 4 * 12 * np.finfo(float).eps


def dense_blocks(state, blocks):
    """The residual blocks of a column-split state with its Y3 block d x d:
    L_c Q_C' on the columns C and r_U on the columns U."""
    split = state._split
    r = split.Q.shape[1]
    Y3 = np.empty((len(split.Q),) * 2)
    Y3[:, split.C] = blocks["Y3"][:, :r] @ split.Qc.T
    Y3[:, split.U] = blocks["Y3"][:, r:]
    return {**blocks, "Y3": Y3}


class TestRangePhase:
    """At d > N, `solve` holds F = 0, L and Y3 in range coordinates on every
    column that F has not kept (the column split) for the whole solve; a run
    on the dense blocks from the first sweep is the reference."""

    @pytest.mark.parametrize("instance", ["tall-low-rank", "random-60x8", "tiny-faces"])
    def test_matches_dense_start(self, monkeypatch, instance):
        X = {"tall-low-rank": lambda: reference_instance("tall-low-rank")[0],
             "random-60x8": lambda: np.random.default_rng(0).standard_normal((60, 8)),
             "tiny-faces": tiny_faces}[instance]()
        cfg = SolverConfig(alpha=0.01, beta=0.01, lam=0.015)
        new, kept, held = solve_watching_F(monkeypatch, X, cfg, record_lagrangian=True)
        ref, ref_kept, ref_held = solve_watching_F(monkeypatch, X, cfg, dense=True,
                                                   record_lagrangian=True)
        assert ref_held == [None] * len(ref_kept)
        # The split holds to the last sweep, and F keeps what the dense run keeps.
        assert None not in held and held[-1] < len(X)
        assert kept.index(True) > 50 and kept == ref_kept
        assert new.converged and new.iterations == ref.iterations
        if instance == "tall-low-rank":
            assert np.linalg.norm(new.Z_star - ref.Z_star) <= 1e-10 * np.linalg.norm(ref.Z_star)
            # The Lagrangian's Y3 terms on C come from coordinates.
            np.testing.assert_allclose([p.lagrangian for p in new.trace],
                                       [p.lagrangian for p in ref.trace], rtol=1e-10)

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    @pytest.mark.parametrize("cfg", [
        pytest.param(SolverConfig(), id="default"),
        pytest.param(SolverConfig(mu0=1.0, eta=10.0, mu_max=1e300), id="mu_max-1e300"),
        pytest.param(SolverConfig(mu0=1e-300, eta=2.0, mu_max=1e300, max_iter=40),
                     id="mu0-1e-300")])
    def test_switch_is_conservative(self, monkeypatch, scale, cfg):
        """No sweep keeps every column of F in range coordinates where the
        dense step keeps a column, and both runs end alike."""
        X = np.random.default_rng(0).standard_normal((60, 8)) * scale
        with np.errstate(all="ignore"):
            new, kept, held = solve_watching_F(monkeypatch, X, cfg)
            ref, ref_kept, _ = solve_watching_F(monkeypatch, X, cfg, dense=True)
        in_range = [c == len(X) for c in held]
        assert kept == ref_kept
        assert not any(k for k, phase in zip(ref_kept, in_range) if phase)
        if isinstance(ref, ToolkitError):
            assert type(new) is type(ref)
        else:
            assert (new.iterations, new.converged) == (ref.iterations, ref.converged)

    def test_no_sweep_forms_a_dxd_array_but_the_exact_max(self, monkeypatch):
        """Every ufunc, matmul or numpy-function result of a sweep, its
        residual blocks, Lagrangian and ascent is recorded.  No split sweep
        makes a d x d array, nor any wider than its d x (r + |U|) blocks, but
        the product L_c Q_C' that `_max_abs` forms where its bound cannot
        settle the max; the bound settles it in most sweeps.  Every sweep on
        the dense blocks makes several d x d arrays."""
        d, N = 60, 8
        made, sweeps, exact = [], [], []

        class Recording(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                plain = [x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs]
                kwargs = {k: v.view(np.ndarray) if isinstance(v, np.ndarray) else v
                          for k, v in kwargs.items()}
                if out is not None:
                    getattr(ufunc, method)(*plain, out=tuple(o.view(np.ndarray) for o in out),
                                           **kwargs)
                    return out[0] if len(out) == 1 else out
                return record(getattr(ufunc, method)(*plain, **kwargs))

            def __array_function__(self, func, types, args, kwargs):
                return record(super().__array_function__(func, (np.ndarray,), args, kwargs))

        def record(result):
            results = result if isinstance(result, tuple) else (result,)
            results = tuple(r.view(Recording) if isinstance(r, np.ndarray) else r
                            for r in results)
            made.extend(r for r in results if np.ndim(r) == 2 and len(r) == d)
            return results if isinstance(result, tuple) else results[0]

        real_init, real_ascend, real_max = solver.init_state, solver._ascend, solver._max_abs

        def init_state(X, cfg):
            state = real_init(X, cfg)
            for name, block in vars(state).items():
                if isinstance(block, np.ndarray):
                    setattr(state, name, block.view(Recording))
            return state

        def max_abs(blocks, state=None):
            if state is None and set(blocks) == {"Y3"}:  # the exact-max product
                exact.append(blocks["Y3"])
            return real_max(blocks, state)

        def ascend(state, blocks, cfg):
            real_ascend(state, blocks, cfg)
            split = getattr(state, "_split", None)
            width = None if split is None else split.Q.shape[1] + split.U.size
            sweeps.append((width, [a for a in made if not any(a is e for e in exact)],
                           len(exact)))
            made.clear()
            exact.clear()

        monkeypatch.setattr(solver, "_data_matrix", lambda X: X)
        monkeypatch.setattr(solver, "init_state", init_state)
        monkeypatch.setattr(solver, "_ascend", ascend)
        monkeypatch.setattr(solver, "_max_abs", max_abs)
        X = np.random.default_rng(0).standard_normal((d, N)).view(Recording)
        dec = solve(X, SolverConfig())
        assert dec.converged and len(sweeps) == dec.iterations
        for width, new, products in sweeps:
            assert width is not None and products <= 1
            assert all(a.shape[1] <= width for a in new), [a.shape for a in new]
            # The recorder sees the split's blocks: L - F, at least.
            assert any(a.shape == (d, width) for a in new)
        assert max(width for width, _, _ in sweeps) > N + 8  # U grew
        forming = sum(products for _, _, products in sweeps)
        assert 0 < forming < len(sweeps)

        sweeps.clear()
        monkeypatch.setattr(solver, "_start_range_phase", lambda state, basis: None)
        solve(X, SolverConfig(max_iter=20))
        assert all(len([a for a in new if a.shape == (d, d)]) >= 4 for _, new, _ in sweeps)

    def test_every_sweep_holds_under_1_5_dxd_in_new_memory(self, monkeypatch):
        """tracemalloc sees every allocation, inside numpy's functions too:
        each split sweep with its residual blocks, Lagrangian and ascent
        peaks below 1.5 d x d arrays of new memory, to the last sweep, with
        U grown to a fifth of the columns; a sweep on the dense blocks takes
        three d x d arrays or more."""
        d, N = 300, 10
        X = np.random.default_rng(0).standard_normal((d, N))
        peaks = {}
        real = solver._ascend

        for dense in (False, True):
            peaks[dense] = []

            def ascend(state, blocks, cfg):
                if tracemalloc.is_tracing():
                    split = getattr(state, "_split", None)
                    peaks[dense].append((tracemalloc.get_traced_memory()[1],
                                         None if split is None else split.U.size))
                    tracemalloc.stop()
                real(state, blocks, cfg)
                tracemalloc.start()

            with monkeypatch.context() as m:
                m.setattr(solver, "_ascend", ascend)
                if dense:
                    m.setattr(solver, "_start_range_phase", lambda state, basis: None)
                try:
                    dec = solve(X, SolverConfig(max_iter=300 if not dense else 8))
                finally:
                    tracemalloc.stop()
            if not dense:
                assert dec.converged and len(peaks[dense]) == dec.iterations - 1
        dd = d * d * 8
        assert max(p for p, _ in peaks[False]) <= 1.5 * dd
        assert None not in [u for _, u in peaks[False]] and peaks[False][-1][1] > d / 5
        assert all(u is None and p >= 3 * dd for p, u in peaks[True])

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150])
    @pytest.mark.parametrize("instance", ["random-60x8", "tiny-faces"])
    def test_trace_residual_is_the_max_over_the_dense_blocks(self, monkeypatch, instance,
                                                             scale):
        """Each sweep's residual, with the Y3 block's part on C bounded or
        formed (`_max_abs`), equals the max over the residual blocks with
        that block assembled d x d from the split, up to the rounding of an
        r-term dot product."""
        X = {"random-60x8": lambda: np.random.default_rng(0).standard_normal((60, 8)),
             "tiny-faces": tiny_faces}[instance]() * scale
        dense_max = []
        real = solver._ascend

        def ascend(state, blocks, cfg):
            dense_max.append(solver._max_abs(dense_blocks(state, blocks)))
            real(state, blocks, cfg)

        monkeypatch.setattr(solver, "_ascend", ascend)
        dec = solve(X, SolverConfig(), record_lagrangian=False)
        assert dec.converged
        np.testing.assert_allclose([p.residual for p in dec.trace], dense_max,
                                   rtol=DOT_ROUNDING, atol=0.0)

    def test_salient_of_a_split_state_without_its_product(self, monkeypatch):
        """A copy of a split state holds no L @ X for its own L, so `_salient`
        forms it from the coordinates; it matches the W B of the L step and
        the output's L_star @ X."""
        X = np.random.default_rng(0).standard_normal((60, 8))
        real, seen = solver._ascend, []

        def ascend(state, blocks, cfg):
            if state.iter == 150:
                seen.append((copy.deepcopy(state), state._lx[2]))
            real(state, blocks, cfg)

        monkeypatch.setattr(solver, "_ascend", ascend)
        solve(X)
        state, LX = seen[0]
        assert state._split.U.size and state._lx[1] is not X
        salient = solver._salient(state, X)
        np.testing.assert_allclose(salient, LX, rtol=1e-12, atol=1e-12 * np.abs(LX).max())
        L = solver._decomposition(X, state, [], False).L_star
        np.testing.assert_allclose(salient, L @ X, rtol=1e-12, atol=1e-12 * np.abs(LX).max())

    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e150])
    def test_max_abs_where_the_bound_is_tight(self, rng, scale):
        """A row of L_c parallel to a row of Q_C makes the Cauchy-Schwarz
        bound tight.  With the other blocks' max just below the max over the
        blocks assembled d x d, or at 0.9 of it, or with squares that
        underflow, `_max_abs` still finds that max, up to the rounding of an
        r-term dot product (BLAS may round a product of a few rows apart
        from the whole product)."""
        d, r = 30, 4
        for _ in range(50):
            Q, _ = np.linalg.qr(rng.standard_normal((d, r)))
            split = solver._column_split(Q, np.array([1, 3]))
            Lc = 0.01 * rng.standard_normal((d, r))
            Lc[5] = 3.0 * split.Qc[7]
            Lc *= scale
            blocks = {"Y3": np.hstack([Lc, 1e-3 * scale * rng.standard_normal((d, 2))])}
            state = SimpleNamespace(_split=split)
            top = solver._max_abs(dense_blocks(state, blocks))
            for other in (np.nextafter(top, 0.0), 0.9 * top):
                blocks["Y1"] = np.full((2, 2), other)
                found = solver._max_abs(blocks, state)
                assert found == pytest.approx(top, rel=DOT_ROUNDING, abs=0.0)

    @pytest.mark.parametrize("over", [-1e-9, 1e-12])
    def test_zero_test_at_the_threshold(self, rng, over):
        """With the largest column norm of L + Y3/mu at (1 + over)/mu, the
        range test agrees with the dense L2,1 prox."""
        d, r, mu = 50, 6, 2.0
        Q, _ = np.linalg.qr(rng.standard_normal((d, r)))
        W, Yr = rng.standard_normal((d, r)), rng.standard_normal((d, r))
        c = (1.0 + over) / mu / np.linalg.norm((W + Yr / mu) @ Q.T, axis=0).max()
        W, Yr = W * c, Yr * c
        dense = prox.column_l21_shrink(W @ Q.T + (Yr @ Q.T) / mu, 1.0 / mu)
        assert solver._l21_zero_columns(Q, W, Yr, mu).all() == (over < 0) == (not dense.any())

    def test_promotes_each_column_the_dense_prox_may_keep(self, rng):
        """Column norms of L + Y3/mu set one by one at (1 - 1e-9)/mu,
        (1 + 1e-12)/mu, 0.5/mu and 2/mu: the F step rules out exactly the
        columns that the dense prox zeroes, promotes the others, and its F
        assembled d x d is that prox."""
        d, r, mu = 40, 5, 2.0
        Q, _ = np.linalg.qr(rng.standard_normal((d, r)))
        W, Yr = rng.standard_normal((d, r)), rng.standard_normal((d, r))
        norms = np.linalg.norm((W + Yr / mu) @ Q.T, axis=0)
        factor = np.array([1 - 1e-9, 1 + 1e-12, 0.5, 2.0])[np.arange(d) % 4]
        W, Yr = W * (2.0 / mu / norms.min()), Yr * (2.0 / mu / norms.min())
        norms = np.linalg.norm((W + Yr / mu) @ Q.T, axis=0)
        Q = Q * (factor / mu / norms)[:, None]  # rows of norm below 1
        dense = prox.column_l21_shrink(W @ Q.T + (Yr @ Q.T) / mu, 1.0 / mu)
        keeps = dense.any(axis=0)
        assert keeps.tolist() == (factor > 1).tolist()
        assert solver._l21_zero_columns(Q, W, Yr, mu).tolist() == (~keeps).tolist()

        state = SimpleNamespace(L=W.copy(), Y3=Yr.copy(), F=np.zeros((d, r)), mu=mu,
                                _lx=(W, None, None),
                                _split=solver._column_split(Q, np.zeros(0, dtype=np.intp)))
        F = solver.update_F(state)
        split = state._split
        assert sorted(split.U) == np.flatnonzero(keeps).tolist()
        assert not F[:, :r].any() and F.shape == (d, r + split.U.size)
        assembled = np.zeros((d, d))
        assembled[:, split.U] = F[:, r:]
        np.testing.assert_allclose(assembled, dense, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("scale,entry", [(1.0, np.nan), (1.0, np.inf), (1e-157, None),
                                             (0.0, None)])
    def test_zero_test_answers_false_where_norms_are_unreliable(self, rng, scale, entry):
        """Every column norm is below tau = 1, but a non-finite entry, or a
        norm that may have underflowed, leaves no column ruled out."""
        d, r = 20, 4
        Q, _ = np.linalg.qr(rng.standard_normal((d, r)))
        W = 1e-3 * rng.random((d, r))
        assert solver._l21_zero_columns(Q, W, np.zeros((d, r)), 1.0).all()
        W *= scale
        if entry is not None:
            W[0, 0] = entry
        with np.errstate(invalid="ignore"):
            assert not solver._l21_zero_columns(Q, W, np.zeros((d, r)), 1.0).any()

    @pytest.mark.parametrize("column", [0, -1], ids=["coordinates", "dense-column"])
    def test_nan_in_split_raises_in_its_sweep(self, monkeypatch, column):
        """A NaN written into L's coordinates or into one of its dense columns
        after U has grown raises NumericalError in that sweep."""
        X = np.random.default_rng(0).standard_normal((60, 8))
        real, sweeps = solver.update_L, []

        def poisoned(state, *args, **kwargs):
            L = real(state, *args, **kwargs)
            sweeps.append(state._split.U.size)
            if len(sweeps) == 150:
                L[0, column] = np.nan
            return L

        monkeypatch.setattr(solver, "update_L", poisoned)
        with pytest.raises(NumericalError) as raised:
            solve(X)
        assert sweeps[-1] > 0 and len(sweeps) == 150 and raised.value.iteration == 149


class TestSvtSkip:
    """`svt` returns zeros without an SVD when a bound shows sigma_max <= tau."""

    @pytest.mark.parametrize("method", sorted(SOLVERS))
    def test_solve_equals_full_svd_reference(self, monkeypatch, method):
        X, _ = reference_instance("canonical")
        cfg = SolverConfig(alpha=0.01, beta=0.01, lam=0.015)
        run = {"aslrc": lambda: solve(X, cfg),
               "latlrr": lambda: latlrr_solve(X, cfg=cfg)}[method]
        new = run()
        for module in SOLVERS[method][1]:
            monkeypatch.setattr(module, "svt", reference_svt)
        ref = run()
        assert new.converged and new.iterations == ref.iterations
        for block in ("Z_star", "L_star", "E_star"):
            assert np.array_equal(getattr(new, block), getattr(ref, block)), block
        assert new.trace == ref.trace

    def test_fewer_svds_than_sweeps(self, monkeypatch):
        X, _ = reference_instance("canonical")
        calls = []
        real = prox.thin_svd
        monkeypatch.setattr(prox, "thin_svd", lambda M: calls.append(M.shape) or real(M))
        dec = solve(X, SolverConfig(alpha=0.01, beta=0.01, lam=0.015), record_lagrangian=False)
        assert dec.converged and 0 < len(calls) < dec.iterations


# (model, module, step, calls per sweep) for every step of every model's sweep.
SWEEP_STEPS = (
    [("aslrc", solver, f"update_{b}", 1) for b in "LZERJFQWS"]
    + [("latlrr", latlrr, "_solve_L", 1), ("latlrr", latlrr, "cho_solve", 1),
       ("latlrr", latlrr, "weighted_shrink", 1), ("latlrr", latlrr, "svt", 2)]
    + [("classifier", classify, "cho_solve", 1), ("classifier", classify, "weighted_shrink", 1)]
)
MODELS = {"aslrc": lambda X, labels: solve(X, CFG, record_lagrangian=False),
          "latlrr": lambda X, labels: latlrr_solve(X, cfg=CFG, record_lagrangian=False),
          "classifier": lambda X, labels: classify.train_classifier(X, classify.one_hot(labels))}


@pytest.mark.parametrize("model,module,step,per_sweep", [
    pytest.param(*case, id=f"{case[0]}-{case[2]}") for case in SWEEP_STEPS])
def test_nan_in_any_step_raises_in_its_sweep(monkeypatch, model, module, step, per_sweep):
    """A NaN in one entry of any step's output raises NumericalError in that sweep."""
    real, calls = getattr(module, step), []

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(step)
        if len(calls) == 3:
            out = copy.deepcopy(out)
            out[0, -1] = np.nan
        return out

    monkeypatch.setattr(module, step, poisoned)
    X, labels = synth_subspaces(SubspaceSpec(k=2, sub_dim=2, d=12, n_per=8, seed=1))
    with pytest.raises(NumericalError) as raised:
        MODELS[model](X, labels)
    assert len(calls) < 3 + per_sweep  # the step ran in no later sweep
    assert raised.value.iteration == 2 // per_sweep  # the sweep of the 3rd call


# model -> the shape of the error block its L1 prox shrinks, on the 12 x 16
# instance of `test_nan_in_any_step_raises_in_its_sweep` (2 classes).
ERROR_SHAPES = {"aslrc": (12, 16), "latlrr": (12, 16), "classifier": (16, 2)}


@pytest.mark.parametrize("model", sorted(MODELS))
def test_error_step_thresholds_at_a_scalar(monkeypatch, model):
    """Each model's E (or Ec) step passes `weighted_shrink` one 0-d threshold:
    no sweep builds a threshold matrix."""
    module = {"aslrc": solver, "latlrr": latlrr, "classifier": classify}[model]
    real, ndims = module.weighted_shrink, []

    def spy(M, T):
        if np.shape(M) == ERROR_SHAPES[model]:
            ndims.append(np.ndim(T))
        return real(M, T)

    monkeypatch.setattr(module, "weighted_shrink", spy)
    X, labels = synth_subspaces(SubspaceSpec(k=2, sub_dim=2, d=12, n_per=8, seed=1))
    MODELS[model](X, labels)
    assert len(ndims) > 2 and set(ndims) == {0}


@pytest.mark.parametrize("model", sorted(MODELS))
def test_every_factored_matrix_is_exactly_symmetric(monkeypatch, model):
    """`_spd_factor` gets no symmetrized copy and `np.linalg.cholesky` reads
    one triangle, so every matrix a model factors must equal its transpose."""
    real, seen = solver._spd_factor, []

    def spy(M):
        seen.append(np.array_equal(M, M.T))
        return real(M)

    for module in (solver, latlrr, classify):
        monkeypatch.setattr(module, "_spd_factor", spy)
    X, labels = synth_subspaces(SubspaceSpec(k=2, sub_dim=2, d=12, n_per=8, seed=1))
    MODELS[model](X, labels)
    assert seen and all(seen)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spd_factor_rejects_non_finite_without_retry(monkeypatch, bad):
    """No jitter can repair a non-finite matrix, so no factorization is tried."""
    real, calls = np.linalg.cholesky, []
    monkeypatch.setattr(np.linalg, "cholesky", lambda *a, **k: calls.append(a) or real(*a, **k))
    M = np.eye(3)
    M[1, 2] = M[2, 1] = bad
    with pytest.raises(NumericalError, match="non-finite") as raised:
        solver._spd_factor(M)
    assert calls == [] and raised.value.iteration is None


def random_spd(rng, n, cond):
    """A random SPD n x n matrix with condition number `cond`."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = (Q * np.geomspace(1.0, 1.0 / cond, n)) @ Q.T
    return np.triu(M) + np.triu(M, 1).T  # exactly symmetric


def ill_conditioned_K(rng, d=400, N=40, mu=1e-6, beta=0.01):
    """ASLRC's L-step matrix K = mu (I + BB') + 2 beta CC' (C = B - BR) at
    the paper's mu0, with the d x r right-hand side (P B' + mu HQ)' that
    `_solve_L` applies K^-1 to."""
    X = rng.standard_normal((d, 12)) @ rng.standard_normal((12, N))
    _, B = np.linalg.qr(X)
    C = B - B @ (0.1 * rng.standard_normal((N, N)))
    K = mu * (np.eye(B.shape[0]) + B @ B.T) + 2.0 * beta * (C @ C.T)
    return K, rng.standard_normal((B.shape[0], d))


def spd_cases(rng):
    """Random SPD matrices around the 32-row split of `_lower_inverse`, then
    the K solve's shape, well and ill conditioned."""
    for n, cond in ((1, 1.0), (7, 1e3), (32, 1e6), (33, 1e6), (60, 1e8), (130, 1e4)):
        yield pytest.param(random_spd(rng, n, cond), rng.standard_normal((n, 9)),
                           id=f"random-{n}")
    yield pytest.param(*ill_conditioned_K(rng, mu=1.0), id="K-mu1")
    yield pytest.param(*ill_conditioned_K(rng), id="K-mu1e-6")


class TestSpdKernel:
    """`cho_solve` with the factor of `_spd_factor`, under each module's
    name for it, against LAPACK's Cholesky solve, within cond(M) 1e-15
    relative."""

    @pytest.mark.parametrize("M,B", spd_cases(np.random.default_rng(3)))
    def test_matches_lapack_cholesky_solve(self, M, B):
        from scipy.linalg import cho_factor, cho_solve
        reference = cho_solve(cho_factor(M), B)
        bound = np.linalg.cond(M) * 1e-15 * np.linalg.norm(reference)
        factor = solver._spd_factor(M)
        for x in (solver.cho_solve(factor, B), latlrr.cho_solve(factor, B),
                  classify.cho_solve(factor, B)):
            assert np.linalg.norm(x - reference) <= bound

    def test_ill_conditioned_K_is_ill_conditioned(self):
        K, _ = ill_conditioned_K(np.random.default_rng(3))
        assert np.linalg.cond(K) > 1e4

    def test_singular_matrix_gets_one_jitter_retry(self, monkeypatch):
        real, calls = np.linalg.cholesky, []
        monkeypatch.setattr(np.linalg, "cholesky", lambda M: calls.append(M) or real(M))
        A = np.random.default_rng(0).standard_normal((6, 2))
        M = A @ A.T
        X = solver.cho_solve(solver._spd_factor(M), M)
        assert len(calls) == 2
        assert np.linalg.norm(M @ X - M) <= 1e-6 * np.linalg.norm(M)

    def test_indefinite_matrix_raises(self):
        with pytest.raises(NumericalError, match="Cholesky factorization failed"):
            solver._spd_factor(np.diag([1.0, -1.0]))


def test_sweep_temporaries_stay_below_a_bound():
    """A sweep, its residual blocks and the ascent hold at most 3.2 d x d
    arrays of new memory at once (d >> N: L, F, the Y3 residual, and d x N
    work)."""
    d, N = 300, 10
    rng = np.random.default_rng(0)
    X = rng.standard_normal((d, 4)) @ rng.standard_normal((4, N))
    state = init_state(X, CFG)
    zfactor = solver._spd_factor(2.0 * np.eye(N) + X.T @ X)
    basis = np.linalg.qr(X)

    def step():
        primal_sweep(state, X, CFG, zfactor, basis)
        solver._ascend(state, solver._residual_blocks(state, X), CFG)

    step(); step()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / (d * d * 8) <= 3.2


@pytest.mark.parametrize("method", ["aslrc", "latlrr"])
def test_ascent_mutates_no_array_a_caller_holds(monkeypatch, method):
    """Blocks kept at sweep k's ascent are unchanged after sweep k + 1."""
    names = {"aslrc": ("Y1", "Y2", "Y3", "Y4", "Y5", "Y6", "L", "F"),
             "latlrr": ("Y1", "Y2", "Y3", "L", "F")}[method]
    kept = []
    real = solver._ascend

    def ascend(state, blocks, cfg):
        kept.append({n: (getattr(state, n), getattr(state, n).copy()) for n in names})
        real(state, blocks, cfg)

    monkeypatch.setattr(solver, "_ascend", ascend)
    X, _ = synth_subspaces(SubspaceSpec(k=2, sub_dim=2, d=12, n_per=8, seed=1))
    run = {"aslrc": lambda: solve(X, CFG, record_lagrangian=False),
           "latlrr": lambda: latlrr_solve(X, cfg=CFG, record_lagrangian=False)}[method]
    dec = run()
    assert len(kept) == dec.iterations > 2
    for sweep in kept:
        for name, (held, copy_) in sweep.items():
            assert np.array_equal(held, copy_), name
