import numpy as np
import pytest

from lolrec.classify import (one_hot, predict_labels, train_classifier,
                             validate_labels)
from lolrec import classify
from lolrec.errors import DegenerateFeatures, DimensionError, NumericalError
from lolrec.solver import SolverConfig
from lolrec.synth import classification_accuracy, synth_blobs


def blob_split(seed, d=20, k=3, n_train=30, n_test=30):
    X, labels = synth_blobs(k=k, d=d, n_per=n_train + n_test, sep=3.0, seed=seed)
    rng = np.random.default_rng(seed)
    tr, te = [], []
    for c in range(k):
        idx = rng.permutation(np.flatnonzero(labels == c))
        tr.extend(idx[:n_train])
        te.extend(idx[n_train:])
    return X[:, tr], labels[tr], X[:, te], labels[te]


class TestLabels:
    def test_one_hot_round_trip(self):
        H = one_hot([0, 2, 1, 0])
        assert H.shape == (3, 4)
        np.testing.assert_array_equal(np.argmax(H, axis=0), [0, 2, 1, 0])

    def test_two_nonzeros_rejected(self):
        H = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DimensionError):
            validate_labels(H)

    def test_wrong_value_rejected(self):
        with pytest.raises(DimensionError):
            validate_labels(np.array([[2.0], [0.0]]))

    def test_one_dimensional_rejected(self):
        with pytest.raises(DimensionError, match="2-D"):
            validate_labels(np.array([1.0, 0.0]))


class TestTrain:
    def test_exactly_solvable(self):
        # one indicator column per class: C reproduces H, error vanishes
        F = np.eye(3)
        H = np.eye(3)
        model = train_classifier(F, H)
        assert model.converged
        np.testing.assert_allclose(F.T @ model.C_star, H.T, atol=1e-5)
        np.testing.assert_allclose(model.training_error, 0.0, atol=1e-5)

    def test_training_accuracy_on_blobs(self):
        Xtr, ytr, _, _ = blob_split(0)
        model = train_classifier(Xtr, one_hot(ytr))
        pred, _ = predict_labels(model, Xtr)
        assert classification_accuracy(pred, ytr) == 1.0

    def test_training_feasibility(self):
        Xtr, ytr, _, _ = blob_split(1)
        cfg = SolverConfig()
        model = train_classifier(Xtr, one_hot(ytr), cfg)
        lhs = one_hot(ytr).T - Xtr.T @ model.C_star - model.training_error
        assert np.max(np.abs(lhs)) <= cfg.tol

    def test_degenerate_features(self):
        with pytest.raises(DegenerateFeatures):
            train_classifier(np.zeros((4, 6)), one_hot([0, 1, 2, 0, 1, 2]))

    @pytest.mark.parametrize("features,H,message", [
        (np.eye(3, 4), np.eye(3), "feature columns"),
        (np.eye(3, 2), one_hot([0, 1], 3), "at least as many samples as classes")],
        ids=["count-mismatch", "fewer-samples-than-classes"])
    def test_label_counts(self, features, H, message):
        with pytest.raises(DimensionError, match=message):
            train_classifier(features, H)

    def test_no_feature_rows(self):
        with pytest.raises(DimensionError):
            train_classifier(np.zeros((0, 6)), one_hot([0, 1, 2, 0, 1, 2]))

    @pytest.mark.parametrize("features,error", [
        ("nan", "finite"), ("inf", "finite"), ("1e200", "Cholesky")])
    def test_unusable_features_raise(self, monkeypatch, features, error):
        # NaN and inf fail the input check; at 1e200 FF' overflows and the
        # guarded factorization of the ridge system fails.
        monkeypatch.setattr(classify, "_run_alm", lambda *a, **k: pytest.fail("a sweep ran"))
        Xtr, ytr, _, _ = blob_split(0)
        if features == "1e200":
            Xtr = 1e200 * Xtr
        else:
            Xtr[0, 0] = float(features)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=error):
                train_classifier(Xtr, one_hot(ytr))


class TestPredict:
    def test_identity_soft_labels(self):
        model = train_classifier(np.eye(3), np.eye(3))
        X = one_hot([2, 0, 1])
        labels, soft = predict_labels(model, X)
        np.testing.assert_array_equal(labels, [2, 0, 1])

    def test_batch_matches_single(self):
        Xtr, ytr, Xte, _ = blob_split(2)
        model = train_classifier(Xtr, one_hot(ytr))
        batch_labels, batch_soft = predict_labels(model, Xte)
        for j in range(Xte.shape[1]):
            lab, soft = predict_labels(model, Xte[:, j])
            assert lab[0] == batch_labels[j]
            # gemm vs gemv rounding differs in the last ulp
            np.testing.assert_allclose(soft[:, 0], batch_soft[:, j],
                                       rtol=1e-12, atol=1e-14)

    def test_held_out_accuracy(self):
        accs = []
        for seed in range(10):
            Xtr, ytr, Xte, yte = blob_split(seed)
            model = train_classifier(Xtr, one_hot(ytr))
            pred, _ = predict_labels(model, Xte)
            accs.append(classification_accuracy(pred, yte))
        assert np.mean(accs) >= 0.95

    def test_argmax_scale_invariance(self):
        Xtr, ytr, Xte, _ = blob_split(3)
        model = train_classifier(Xtr, one_hot(ytr))
        base_labels, base_soft = predict_labels(model, Xte)
        for c in (0.5, 4.0):
            labels, soft = predict_labels(model, c * Xte)
            np.testing.assert_array_equal(labels, base_labels)
            np.testing.assert_allclose(soft, c * base_soft, rtol=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        model = train_classifier(np.eye(3), np.eye(3))
        model.C_star = np.eye(3)
        model.L_star = np.eye(3)
        labels, _ = predict_labels(model, np.ones((3, 1)))
        assert labels[0] == 0

    def test_dimension_error(self):
        model = train_classifier(np.eye(3), np.eye(3))
        with pytest.raises(DimensionError):
            predict_labels(model, np.ones((4, 2)))
