import numpy as np
import pytest

from lolrec.errors import (DegenerateSignal, DimensionError, InvalidSpec,
                           RangeError)
from lolrec.synth import (SubspaceSpec, add_gaussian_noise_snr,
                          classification_accuracy, corrupt_random_pixels,
                          invert_pixels, offblock_ratio,
                          reconstruction_accuracy, synth_blobs, synth_subspaces)


class TestSynthSubspaces:
    def test_single_subspace_rank(self):
        X, _ = synth_subspaces(SubspaceSpec(k=1, sub_dim=4, d=20, n_per=10, seed=0))
        assert np.linalg.matrix_rank(X) == 4

    def test_union_rank(self):
        X, labels = synth_subspaces(SubspaceSpec(k=3, sub_dim=3, d=50, n_per=20, seed=0))
        assert np.linalg.matrix_rank(X) == 9
        assert labels.shape == (60,)
        np.testing.assert_array_equal(np.bincount(labels), [20, 20, 20])

    def test_deterministic(self):
        spec = SubspaceSpec(seed=7)
        X1, l1 = synth_subspaces(spec)
        X2, l2 = synth_subspaces(spec)
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(l1, l2)

    def test_infeasible_spec(self):
        for spec in (SubspaceSpec(k=10, sub_dim=10, d=50), SubspaceSpec(n_per=1, sub_dim=3),
                     SubspaceSpec(noise_sigma=-1.0), SubspaceSpec(noise_sigma=np.nan),
                     SubspaceSpec(noise_sigma=np.inf), SubspaceSpec(amplitude=np.nan),
                     SubspaceSpec(amplitude=-np.inf)):
            with pytest.raises(InvalidSpec):
                synth_subspaces(spec)

    def test_overlapping_subspaces(self):
        """Without `disjoint`, each of the k subspaces still has rank sub_dim."""
        spec = SubspaceSpec(k=3, sub_dim=2, d=10, n_per=6, disjoint=False, seed=4)
        X, labels = synth_subspaces(spec)
        assert X.shape == (10, 18)
        for i in range(3):
            assert np.linalg.matrix_rank(X[:, labels == i]) == 2
        assert np.linalg.matrix_rank(X) == 6

    def test_amplitude(self):
        X, _ = synth_subspaces(SubspaceSpec(seed=0, amplitude=4.0))
        norms = np.linalg.norm(X, axis=0)
        assert 2.0 < norms.mean() < 6.0


class TestSynthBlobs:
    @pytest.mark.parametrize("kwargs", [
        {"k": 0}, {"d": 0}, {"n_per": 0}, {"sep": np.nan}, {"sep": np.inf}],
        ids=["k-0", "d-0", "n_per-0", "sep-nan", "sep-inf"])
    def test_invalid_spec(self, kwargs):
        with pytest.raises(InvalidSpec):
            synth_blobs(**kwargs)


class TestGaussianSnr:
    def test_measured_snr(self, rng):
        X = rng.standard_normal((64, 96))
        noisy = add_gaussian_noise_snr(X, 10.0, seed=5)
        noise_power = np.mean((noisy - X) ** 2)
        measured = 10 * np.log10(np.mean(X ** 2) / noise_power)
        assert abs(measured - 10.0) < 0.5

    def test_high_snr_limit(self, rng):
        X = rng.standard_normal((20, 20))
        noisy = add_gaussian_noise_snr(X, 100.0, seed=1)
        assert np.linalg.norm(noisy - X, "fro") / np.linalg.norm(X, "fro") < 1e-4

    def test_deterministic(self, rng):
        X = rng.standard_normal((10, 10))
        np.testing.assert_array_equal(add_gaussian_noise_snr(X, 10, seed=3),
                                      add_gaussian_noise_snr(X, 10, seed=3))

    def test_zero_signal(self):
        with pytest.raises(DegenerateSignal):
            add_gaussian_noise_snr(np.zeros((3, 3)), 10.0)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, -3200.0, np.nan, np.inf, -np.inf])
    def test_snr_without_a_finite_noise_power(self, snr_db):
        """The power ratio overflows, underflows to 0, or makes the noise power
        infinite; or the SNR itself is not finite."""
        with pytest.raises(RangeError):
            add_gaussian_noise_snr(np.ones((3, 3)), snr_db)


class TestPixelCorruption:
    def test_identity_at_zero(self, rng):
        X = rng.uniform(0, 1, (8, 8))
        np.testing.assert_array_equal(corrupt_random_pixels(X, 0, seed=1), X)

    def test_full_replacement(self, rng):
        X = rng.uniform(2, 3, (8, 8))  # outside [0,1] so replacements always differ
        out = corrupt_random_pixels(X, 100, seed=1)
        assert np.all(out != X)

    def test_exact_count(self, rng):
        X = rng.uniform(2, 3, (64, 96))
        out = corrupt_random_pixels(X, 30, seed=2)
        assert np.count_nonzero(out != X) == round(0.3 * 64 * 96)

    def test_deterministic(self, rng):
        X = rng.uniform(0, 1, (10, 10))
        np.testing.assert_array_equal(corrupt_random_pixels(X, 40, seed=9),
                                      corrupt_random_pixels(X, 40, seed=9))

    def test_pct_out_of_range(self, rng):
        with pytest.raises(RangeError):
            corrupt_random_pixels(np.ones((2, 2)), 101)


class TestInvertPixels:
    def test_inversion_value(self):
        X = np.full((4, 4), 100 / 255)
        out = invert_pixels(X, 100, seed=0)
        np.testing.assert_array_equal(out, 156 / 255)

    def test_zero_clamps_to_255(self):
        out = invert_pixels(np.zeros((3, 3)), 100, seed=0)
        np.testing.assert_array_equal(out, 1.0)

    def test_identity_at_zero_pct(self, rng):
        X = rng.uniform(0, 1, (5, 5))
        np.testing.assert_array_equal(invert_pixels(X, 0, seed=0), X)

    def test_range_check(self):
        """[0, 255] pixel values are not on the [0, 1] scale."""
        with pytest.raises(RangeError):
            invert_pixels(np.full((2, 2), 100.0), 10)


class TestMetrics:
    def test_exact_recovery(self, rng):
        X = rng.standard_normal((6, 6))
        assert reconstruction_accuracy(X, X) == 1.0

    def test_zero_recovery(self, rng):
        X = rng.standard_normal((6, 6))
        assert reconstruction_accuracy(X, np.zeros((6, 6))) == 0.0

    def test_quarter_error(self, rng):
        X = rng.standard_normal((10, 10))
        P = rng.standard_normal((10, 10))
        P *= 0.25 * np.linalg.norm(X, "fro") / np.linalg.norm(P, "fro")
        assert reconstruction_accuracy(X, X + P) == pytest.approx(0.75)

    def test_monotone_in_distance(self, rng):
        X = rng.standard_normal((8, 8))
        P = rng.standard_normal((8, 8))
        P /= np.linalg.norm(P, "fro")
        zetas = [reconstruction_accuracy(X, X + t * P) for t in (0.1, 0.5, 1.0, 2.0)]
        assert all(a >= b for a, b in zip(zetas, zetas[1:]))

    def test_zero_reference(self):
        with pytest.raises(DegenerateSignal):
            reconstruction_accuracy(np.zeros((2, 2)), np.ones((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            reconstruction_accuracy(np.ones((2, 2)), np.ones((2, 3)))


class TestOffblockRatio:
    def test_block_diagonal_is_zero(self):
        Z = np.kron(np.eye(3), np.ones((2, 2)))
        assert offblock_ratio(Z, [0, 0, 1, 1, 2, 2]) == 0.0
        assert offblock_ratio(np.zeros((6, 6)), [0, 0, 1, 1, 2, 2]) == 0.0

    def test_all_ones_three_classes(self):
        n = 4
        Z = np.ones((3 * n, 3 * n))
        labels = np.repeat([0, 1, 2], n)
        assert offblock_ratio(Z, labels) == pytest.approx(2.0 / 3.0)

    def test_brute_force(self, rng):
        Z = rng.standard_normal((9, 9))
        labels = rng.integers(0, 3, 9)
        off = sum(abs(Z[i, j]) for i in range(9) for j in range(9)
                  if labels[i] != labels[j])
        assert offblock_ratio(Z, labels) == pytest.approx(off / np.abs(Z).sum())

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            offblock_ratio(np.ones((3, 3)), [0, 1])


class TestClassificationAccuracy:
    def test_identical(self):
        assert classification_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert classification_accuracy([1, 1], [2, 2]) == 0.0

    def test_half(self):
        assert classification_accuracy([1, 2, 1, 2], [1, 2, 2, 1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            classification_accuracy([1], [1, 2])
