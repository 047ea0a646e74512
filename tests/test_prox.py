import numpy as np
import pytest

from conftest import assert_beats_perturbations
from reference import reference_svt
from lolrec.errors import DimensionError, InvalidThreshold, NumericalError
from lolrec.prox import (column_l21_shrink, scalar_shrink, svt, thin_svd,
                         weighted_shrink)


def nuclear(M):
    return np.linalg.svd(M, compute_uv=False).sum()


def l21(M):
    return np.linalg.norm(M, axis=0).sum()


class TestScalarShrink:
    def test_basic(self):
        assert scalar_shrink(1.2, 0.5) == pytest.approx(0.7)

    def test_dead_zone(self):
        assert scalar_shrink(-0.3, 0.5) == 0.0

    def test_zero_threshold_identity(self, rng):
        for x in rng.standard_normal(100):
            assert scalar_shrink(x, 0.0) == x

    def test_negative_threshold(self):
        with pytest.raises(InvalidThreshold):
            scalar_shrink(1.0, -0.1)

    def test_grid_search_oracle(self, rng):
        # each shrink output must match a 1e-4 scan of t|q| + (q-x)^2/2
        for _ in range(20):
            x = rng.uniform(-2, 2)
            t = rng.uniform(0, 1.5)
            grid = np.arange(-3.0, 3.0, 1e-4)
            best = grid[np.argmin(t * np.abs(grid) + 0.5 * (grid - x) ** 2)]
            assert abs(scalar_shrink(x, t) - best) <= 1e-4


class TestWeightedShrink:
    def test_scalar_case(self):
        np.testing.assert_allclose(weighted_shrink([[1.2]], [[0.5]]), [[0.7]])

    def test_zero_threshold(self, rng):
        M = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(weighted_shrink(M, np.zeros((4, 4))), M)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            weighted_shrink(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_entrywise_grid_oracle(self, rng):
        M = rng.standard_normal((6, 6))
        T = rng.uniform(0, 1, (6, 6))
        out = weighted_shrink(M, T)
        grid = np.arange(-3.0, 3.0, 1e-4)
        for i in range(6):
            for j in range(6):
                obj = T[i, j] * np.abs(grid) + 0.5 * (grid - M[i, j]) ** 2
                assert abs(out[i, j] - grid[np.argmin(obj)]) <= 1e-4


class TestShrinkThresholdShapes:
    """`weighted_shrink` takes a scalar threshold or one with M's shape."""

    @pytest.mark.parametrize("M", [
        pytest.param(np.random.default_rng(3).standard_normal((5, 7)), id="random"),
        pytest.param(np.array([[0.0, -0.0], [-0.0, 0.0]]), id="signed-zeros"),
        pytest.param(np.zeros((0, 5)), id="empty")])
    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_scalar_equals_full_matrix(self, M, t):
        out = weighted_shrink(M, t)
        full = weighted_shrink(M, np.full(M.shape, t))
        assert np.array_equal(out, full)
        assert np.array_equal(np.signbit(out), np.signbit(full))

    def test_negative_scalar(self):
        with pytest.raises(InvalidThreshold):
            weighted_shrink(np.ones((2, 3)), -1e-12)

    def test_row_threshold_is_not_broadcast(self):
        with pytest.raises(DimensionError):
            weighted_shrink(np.ones((4, 3)), np.ones((1, 3)))


class TestSvt:
    def test_diagonal(self):
        out = svt(np.diag([3.0, 0.4]), 1.0)
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_zero_threshold(self, rng):
        M = rng.standard_normal((5, 4))
        np.testing.assert_allclose(svt(M, 0.0), M, atol=1e-12)

    def test_perturbation_optimality(self, rng):
        M = rng.standard_normal((5, 5))
        assert_beats_perturbations(svt(M, 0.3), M, nuclear, 0.3, rng)

    def test_nonexpansive(self, rng):
        for _ in range(10):
            A, B = rng.standard_normal((6, 6)), rng.standard_normal((6, 6))
            lhs = np.linalg.norm(svt(A, 0.4) - svt(B, 0.4), "fro")
            assert lhs <= np.linalg.norm(A - B, "fro") + 1e-12

    def test_never_increases_rank_or_singular_values(self, rng):
        M = rng.standard_normal((7, 5))
        s_in = np.linalg.svd(M, compute_uv=False)
        s_out = np.linalg.svd(svt(M, 0.2), compute_uv=False)
        assert np.all(s_out <= s_in + 1e-12)
        assert np.linalg.matrix_rank(svt(M, 0.2)) <= np.linalg.matrix_rank(M)

    def test_non_finite(self):
        with pytest.raises(NumericalError):
            svt(np.array([[np.nan, 0.0], [0.0, 1.0]]), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_above_any_bound(self, bad):
        """The zero shortcut never hides a non-finite input."""
        with pytest.raises(NumericalError):
            svt(np.array([[bad, 0.0], [0.0, 1.0]]), 1e300)

    @pytest.mark.parametrize("tau", [0.0, 1e-200, np.inf])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_where_no_bound_is_taken(self, bad, tau):
        """Below tau = 1e-150 and at tau = inf the zero shortcut is not
        taken: `thin_svd`'s check raises."""
        with pytest.raises(NumericalError):
            svt(np.array([[bad, 0.0], [0.0, 1.0]]), tau)

    @pytest.mark.parametrize("scale", [1 + 1e-13, 1 - 1e-13, 0.0, 10.0])
    @pytest.mark.parametrize("kind", ["random", "rank-one", "no-rows", "no-columns"])
    def test_equals_full_svd_reference(self, rng, kind, scale):
        """Around tau = sigma_max the shortcut and the SVD path must agree; a
        rank-one M is where ||M||_F = sigma_max, so the bound is tight."""
        M = {"random": lambda: rng.standard_normal((7, 5)),
             "rank-one": lambda: np.outer(rng.standard_normal(6), rng.standard_normal(4)),
             "no-rows": lambda: np.zeros((0, 5)),
             "no-columns": lambda: np.zeros((5, 0))}[kind]()
        sigma_max = np.linalg.svd(M, compute_uv=False).max(initial=0.0)
        tau = scale * sigma_max
        out = svt(M, tau)
        assert out.shape == M.shape
        assert np.array_equal(out, reference_svt(M, tau))


class TestColumnL21Shrink:
    def test_direct(self):
        out = column_l21_shrink(np.array([[3.0], [4.0]]), 1.0)
        np.testing.assert_allclose(out.ravel(), [2.4, 3.2])

    def test_dead_zone(self):
        out = column_l21_shrink(np.array([[0.3], [0.4]]), 1.0)
        np.testing.assert_array_equal(out.ravel(), [0.0, 0.0])

    def test_perturbation_optimality(self, rng):
        M = rng.standard_normal((8, 8))
        assert_beats_perturbations(column_l21_shrink(M, 0.7), M, l21, 0.7, rng)

    def test_nonexpansive(self, rng):
        for _ in range(10):
            A, B = rng.standard_normal((6, 6)), rng.standard_normal((6, 6))
            lhs = np.linalg.norm(column_l21_shrink(A, 0.4) - column_l21_shrink(B, 0.4), "fro")
            assert lhs <= np.linalg.norm(A - B, "fro") + 1e-12

    @pytest.mark.parametrize("M,tau,expected", [
        # the first column's sum of squares overflows; its norm, 2.24e200, does not
        ([[1e200, 1.0], [2e200, 0.5]], 1.0,
         [[1e200, 1.0 - 1.0 / np.sqrt(1.25)], [2e200, 0.5 - 0.5 / np.sqrt(1.25)]]),
        ([[1e200], [2e200]], 1e200,
         [[1e200 - 1e200 / np.sqrt(5.0)], [2e200 - 2e200 / np.sqrt(5.0)]]),
    ], ids=["two-columns", "one-column"])
    def test_overflowing_sum_of_squares(self, M, tau, expected):
        out = column_l21_shrink(np.array(M), tau)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_underflowing_sum_of_squares_at_zero_tau(self):
        # squares of 1e-200 underflow to 0; the prox at tau = 0 is the identity
        M = np.array([[1e-200], [2e-200]])
        np.testing.assert_array_equal(column_l21_shrink(M, 0.0), M)

    @pytest.mark.parametrize("tau,expected", [
        (0.0, [[1e-200, 3.0, 0.0], [2e-200, 4.0, 0.0]]),
        # below the tiny column's norm, sqrt(5) 1e-200
        (1e-200, [[1e-200 - 1e-200 / np.sqrt(5.0), 3.0, 0.0],
                  [2e-200 - 2e-200 / np.sqrt(5.0), 4.0, 0.0]]),
        # between the tiny column's norm and the normal column's, 5
        (1.0, [[0.0, 2.4, 0.0], [0.0, 3.2, 0.0]]),
    ], ids=["zero", "below-tiny-norm", "between-norms"])
    def test_underflowing_normal_and_zero_columns(self, tau, expected):
        M = np.array([[1e-200, 3.0, 0.0], [2e-200, 4.0, 0.0]])
        with np.errstate(all="raise"):
            out = column_l21_shrink(M, tau)
        np.testing.assert_allclose(out, expected, rtol=1e-14, atol=0.0)
        assert np.all(out[:, 2] == 0.0)

    @pytest.mark.parametrize("tau", [0.0, 1.0, 1e300, np.inf])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_at_any_tau(self, bad, tau):
        with pytest.raises(NumericalError):
            column_l21_shrink(np.array([[1.0, 2.0], [bad, 0.5]]), tau)


class TestThinSvd:
    def test_identity(self):
        _, s, _ = thin_svd(np.eye(3))
        np.testing.assert_allclose(s, [1.0, 1.0, 1.0])

    def test_rank_one(self, rng):
        u = rng.standard_normal(6)
        u *= 2.0 / np.linalg.norm(u)
        v = rng.standard_normal(4)
        v *= 3.0 / np.linalg.norm(v)
        _, s, _ = thin_svd(np.outer(u, v))
        assert s[0] == pytest.approx(6.0)
        assert np.linalg.matrix_rank(np.diag(s)) == 1

    def test_reconstruction(self, rng):
        M = rng.standard_normal((10, 7))
        U, s, Vt = thin_svd(M)
        err = np.linalg.norm((U * s) @ Vt - M, "fro")
        assert err < 1e-10 * np.linalg.norm(M, "fro")

    def test_ordering(self, rng):
        _, s, _ = thin_svd(rng.standard_normal((9, 9)))
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    @staticmethod
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    def test_falls_back_to_gesvd(self, rng, monkeypatch):
        from scipy.linalg import svd
        M = rng.standard_normal((7, 5))
        U, s, Vt = svd(M, full_matrices=False, lapack_driver="gesvd")
        monkeypatch.setattr(np.linalg, "svd", self.failing_svd)
        got = thin_svd(M)
        assert len(got) == 3 and all(map(np.array_equal, got, (U, s, Vt)))

    def test_failed_fallback_raises(self, rng, monkeypatch):
        import scipy.linalg
        monkeypatch.setattr(np.linalg, "svd", self.failing_svd)
        monkeypatch.setattr(scipy.linalg, "svd", self.failing_svd)
        with pytest.raises(NumericalError, match="SVD failed"):
            thin_svd(rng.standard_normal((3, 3)))


@pytest.mark.parametrize("prox", [svt, column_l21_shrink])
def test_negative_threshold_is_invalid(prox):
    with pytest.raises(InvalidThreshold):
        prox(np.ones((2, 3)), -0.1)
