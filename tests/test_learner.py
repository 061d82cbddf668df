"""Logistic-regression training, tuning, prediction, and explanation."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize

from stylauth.errors import LearnerError
from stylauth.metrics import ContingencyTable, f1, macro_f1
from stylauth.features import FeatureBlock, FeatureConfig, SparseVector, fit_feature_space, vectorize
from stylauth.corpus import build_document
from stylauth import learner
from stylauth.learner import (
    TrainConfig,
    _stratified_fold_ids,
    TrainedModel,
    binary_objective,
    explain,
    inner_cv_scores,
    multiclass_objective,
    predict_proba,
    predict_proba_matrix,
    train_binary,
    train_multiclass,
    tune_C,
)


def central_differences(fun, params: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.empty_like(params)
    for i in range(params.shape[0]):
        step = np.zeros_like(params)
        step[i] = h
        f_plus, _ = fun(params + step)
        f_minus, _ = fun(params - step)
        grad[i] = (f_plus - f_minus) / (2 * h)
    return grad


def max_scaled_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / scale))


class TestObjectives:
    def test_binary_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(5, 8))
        y = rng.integers(0, 2, size=5).astype(float)
        params = rng.normal(scale=0.5, size=9)
        _, grad = binary_objective(params, X, y, C=2.0)
        numeric = central_differences(lambda p: binary_objective(p, X, y, 2.0), params)
        assert max_scaled_error(grad, numeric) <= 1e-5

    def test_multiclass_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        X = rng.normal(size=(6, 5))
        y_idx = rng.integers(0, 3, size=6)
        params = rng.normal(scale=0.5, size=3 * 6)
        _, grad = multiclass_objective(params, X, y_idx, 3, C=0.7)
        numeric = central_differences(
            lambda p: multiclass_objective(p, X, y_idx, 3, 0.7), params
        )
        assert max_scaled_error(grad, numeric) <= 1e-5

    def test_sparse_and_dense_agree(self):
        rng = np.random.default_rng(44)
        X = rng.normal(size=(7, 4)) * (rng.random(size=(7, 4)) > 0.5)
        y = rng.integers(0, 2, size=7).astype(float)
        params = rng.normal(size=5)
        loss_d, grad_d = binary_objective(params, X, y, 1.0)
        loss_s, grad_s = binary_objective(params, sp.csr_matrix(X), y, 1.0)
        assert loss_s == pytest.approx(loss_d)
        assert grad_s == pytest.approx(grad_d)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_precomputed_transpose_is_bitwise_equal(self, sparse):
        rng = np.random.default_rng(46)
        X = rng.normal(size=(9, 6)) * (rng.random(size=(9, 6)) > 0.4)
        X = sp.csr_matrix(X) if sparse else X
        y = rng.integers(0, 2, size=9).astype(float)
        y_idx = rng.integers(0, 3, size=9)
        cases = [
            (binary_objective, rng.normal(size=7), (X, y, 0.8)),
            (multiclass_objective, rng.normal(size=3 * 7), (X, y_idx, 3, 0.8)),
        ]
        for objective, params, args in cases:
            loss, grad = objective(params, *args)
            loss_t, grad_t = objective(params, *args, X.T)
            assert loss_t == loss
            assert grad_t.tobytes() == grad.tobytes()

    def test_objective_non_increasing_over_iterations(self):
        rng = np.random.default_rng(45)
        X = rng.normal(size=(40, 6))
        y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(float)
        values = []

        def record(xk):
            values.append(binary_objective(xk, X, y, 1.0)[0])

        x0 = np.zeros(7)
        minimize(
            binary_objective,
            x0,
            args=(X, y, 1.0),
            jac=True,
            method="L-BFGS-B",
            callback=record,
        )
        values = [binary_objective(x0, X, y, 1.0)[0]] + values
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-10)


class TestTrainBinary:
    def test_separable_points(self):
        X = np.array([[-1.0], [1.0]])
        model = train_binary(X, [0, 1], TrainConfig())
        assert model.weights[0] > 0
        pos = predict_proba(model, np.array([1.0]))
        neg = predict_proba(model, np.array([-1.0]))
        assert pos.positive_posterior > 0.5 > neg.positive_posterior

    def test_extreme_regularization_flattens_posteriors(self):
        rng = np.random.default_rng(46)
        X = rng.normal(size=(20, 3))
        y = [0, 1] * 10
        model = train_binary(X, y, TrainConfig(), C=1e-9)
        assert np.max(np.abs(model.weights)) < 1e-6
        p = predict_proba(model, X[0]).positive_posterior
        assert p == pytest.approx(0.5, abs=1e-3)

    def test_single_class_rejected(self):
        X = np.ones((3, 2))
        with pytest.raises(LearnerError):
            train_binary(X, [1, 1, 1], TrainConfig())

    def test_non_finite_features_rejected(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(LearnerError):
            train_binary(X, [0, 1], TrainConfig())

    def test_row_permutation_leaves_posteriors_unchanged(self):
        rng = np.random.default_rng(47)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        perm = rng.permutation(30)
        m1 = train_binary(X, y, TrainConfig())
        m2 = train_binary(X[perm], y[perm], TrainConfig())
        probe = rng.normal(size=4)
        p1 = predict_proba(m1, probe).positive_posterior
        p2 = predict_proba(m2, probe).positive_posterior
        assert p1 == pytest.approx(p2, abs=1e-8)

    def test_column_permutation_consistency(self):
        rng = np.random.default_rng(48)
        X = rng.normal(size=(30, 5))
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        perm = rng.permutation(5)
        m1 = train_binary(X, y, TrainConfig())
        m2 = train_binary(X[:, perm], y, TrainConfig())
        probe = rng.normal(size=5)
        p1 = predict_proba(m1, probe).positive_posterior
        p2 = predict_proba(m2, probe[perm]).positive_posterior
        assert p1 == pytest.approx(p2, abs=1e-8)

    def test_convergence_reported(self):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        model = train_binary(X, [0, 1, 0, 1], TrainConfig(tolerance=1e-8))
        assert model.converged
        assert model.n_iter >= 1


class TestTrainMulticlass:
    def test_three_separated_classes(self):
        X = np.array([[5.0, 0.0], [0.0, 5.0], [-5.0, -5.0]])
        model = train_multiclass(X, ["a", "b", "c"], TrainConfig(), C=100.0)
        for row, expected in zip(X, ["a", "b", "c"]):
            assert predict_proba(model, row).predicted_class == expected

    def test_posterior_length_is_class_count(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        model = train_multiclass(X, ["a", "b", "a", "c"], TrainConfig())
        prediction = predict_proba(model, np.array([2.5]))
        assert len(prediction.posteriors) == 3
        assert prediction.posteriors.sum() == pytest.approx(1.0)

    def test_single_class_rejected(self):
        with pytest.raises(LearnerError):
            train_multiclass(np.ones((2, 1)), ["a", "a"], TrainConfig())

    def test_argmax_equals_largest_linear_score(self):
        rng = np.random.default_rng(49)
        X = rng.normal(size=(25, 4))
        labels = [str(i % 3) for i in range(25)]
        model = train_multiclass(X, labels, TrainConfig())
        probe = rng.normal(size=4)
        scores = model.weights @ probe + model.bias
        prediction = predict_proba(model, probe)
        assert prediction.predicted_class == model.classes[int(np.argmax(scores))]


class TestPredict:
    def test_zero_score_gives_half(self):
        model = TrainedModel(
            classes=("neg", "pos"),
            weights=np.zeros(3),
            bias=np.array([0.0]),
            C=1.0,
            space_fingerprint="",
            converged=True,
            n_iter=0,
        )
        assert predict_proba(model, np.ones(3)).positive_posterior == pytest.approx(0.5)

    def test_log_three_score_gives_three_quarters(self):
        model = TrainedModel(
            classes=("neg", "pos"),
            weights=np.array([math.log(3.0)]),
            bias=np.array([0.0]),
            C=1.0,
            space_fingerprint="",
            converged=True,
            n_iter=0,
        )
        assert predict_proba(model, np.array([1.0])).positive_posterior == pytest.approx(0.75)

    def test_posteriors_sum_to_one(self):
        rng = np.random.default_rng(50)
        X = rng.normal(size=(12, 3))
        model = train_multiclass(X, [str(i % 4) for i in range(12)], TrainConfig())
        prediction = predict_proba(model, rng.normal(size=3))
        assert prediction.posteriors.sum() == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        model = train_binary(np.array([[-1.0], [1.0]]), [0, 1], TrainConfig())
        with pytest.raises(LearnerError):
            predict_proba(model, np.ones(3))

    def test_fingerprint_mismatch_rejected(self):
        model = train_binary(
            np.array([[-1.0], [1.0]]), [0, 1], TrainConfig(), space_fingerprint="abc"
        )
        vector = SparseVector(
            instance_id="x",
            indices=np.array([0]),
            values=np.array([1.0]),
            dim=1,
            space_fingerprint="different",
            occurrence_count=1,
        )
        with pytest.raises(LearnerError):
            predict_proba(model, vector)

    def test_matrix_predictions_match_single(self):
        rng = np.random.default_rng(51)
        X = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, size=10)
        y[:2] = [0, 1]
        model = train_binary(X, y, TrainConfig())
        probs = predict_proba_matrix(model, X)
        for i in range(10):
            single = predict_proba(model, X[i]).posteriors
            assert probs[i] == pytest.approx(single)


class TestTuneC:
    def test_single_grid_value_returned(self):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        config = TrainConfig(C_grid=(0.5,))
        rng = np.random.default_rng(0)
        assert tune_C(X, [0, 1, 0, 1], config, rng) == 0.5

    def test_ties_break_toward_smaller_c(self):
        # a constant-features problem scores identically for every C
        X = np.zeros((8, 2))
        y = [0, 1] * 4
        config = TrainConfig(C_grid=(0.1, 1.0, 10.0), inner_folds=2)
        rng = np.random.default_rng(1)
        assert tune_C(X, y, config, rng) == 0.1

    def test_chosen_c_attains_best_inner_score(self):
        rng = np.random.default_rng(52)
        X = rng.normal(size=(60, 5))
        y = ((X[:, 0] + 0.8 * rng.normal(size=60)) > 0).astype(int)
        y[:2] = [0, 1]
        config = TrainConfig(C_grid=(0.01, 0.1, 1.0, 10.0), inner_folds=3)
        chosen = tune_C(X, y, config, np.random.default_rng(9))
        scores = inner_cv_scores(X, y, 2, config, np.random.default_rng(9))
        assert scores is not None
        assert scores[chosen] == max(scores.values())
        tied = [c for c, s in scores.items() if s == scores[chosen]]
        assert chosen == min(tied)

    def test_fold_reduction_when_class_tiny(self, caplog):
        X = np.vstack([np.full((3, 1), -1.0), np.full((12, 1), 1.0)])
        y = [1] * 3 + [0] * 12
        config = TrainConfig(C_grid=(0.1, 1.0), inner_folds=5)
        with caplog.at_level("WARNING"):
            c = tune_C(X, y, config, np.random.default_rng(2))
        assert c in (0.1, 1.0)
        assert any("reducing inner folds" in r.message for r in caplog.records)

    @staticmethod
    def _cold_start_scores(X, y_idx, n_classes, config, rng):
        """Inner-CV scores with every fit started from zeros, and the total n_iter."""
        folds = _stratified_fold_ids(y_idx, config.inner_folds, rng)
        scores, n_iter = {}, 0
        for c in config.C_grid:
            predicted = np.zeros(y_idx.shape[0], dtype=np.int64)
            for j in range(config.inner_folds):
                train, valid = folds != j, folds == j
                if n_classes == 2:
                    model = train_binary(X[train], y_idx[train], config, C=c)
                    probs = predict_proba_matrix(model, X[valid])
                    predicted[valid] = (probs[:, 1] > 0.5).astype(np.int64)
                else:
                    labels = [str(v) for v in y_idx[train]]
                    model = train_multiclass(X[train], labels, config, C=c)
                    probs = predict_proba_matrix(model, X[valid])
                    class_ids = np.array([int(v) for v in model.classes])
                    predicted[valid] = class_ids[np.argmax(probs, axis=1)]
                n_iter += model.n_iter
            tables = [
                ContingencyTable.from_predictions(
                    (y_idx == cls).astype(int).tolist(), (predicted == cls).astype(int).tolist()
                )
                for cls in range(n_classes)
            ]
            scores[c] = f1(tables[1]) if n_classes == 2 else macro_f1(tables)
        return scores, n_iter

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_warm_start_matches_cold_start_in_fewer_iterations(self, n_classes, monkeypatch):
        rng = np.random.default_rng(53 + n_classes)
        centers = rng.normal(scale=1.5, size=(n_classes, 40))
        y_idx = np.repeat(np.arange(n_classes), 60 // n_classes)
        X = np.abs(centers[y_idx] + 2.0 * rng.normal(size=(y_idx.shape[0], 40)))
        X = sp.csr_matrix(X * (rng.random(size=X.shape) > 0.6))
        config = TrainConfig(inner_folds=4)
        want, cold_iters = self._cold_start_scores(
            X, y_idx, n_classes, config, np.random.default_rng(5)
        )

        warm_iters = []
        for name in ("train_binary", "train_multiclass"):
            fit = getattr(learner, name)

            def counted(*args, _fit=fit, **kwargs):
                model = _fit(*args, **kwargs)
                warm_iters.append(model.n_iter)
                return model

            monkeypatch.setattr(learner, name, counted)
        got = inner_cv_scores(X, y_idx, n_classes, config, np.random.default_rng(5))
        assert got == want
        assert len(warm_iters) == len(config.C_grid) * config.inner_folds
        assert sum(warm_iters) < cold_iters

    def test_train_binary_starts_from_zeros_by_default(self):
        rng = np.random.default_rng(54)
        X = sp.csr_matrix(np.abs(rng.normal(size=(30, 8))) * (rng.random(size=(30, 8)) > 0.5))
        y = (rng.random(30) > 0.5).astype(float)
        config = TrainConfig()
        model = train_binary(X, y, config, C=3.0)
        result = minimize(
            binary_objective,
            np.zeros(9),
            args=(X, y, 3.0),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": config.max_iterations, "gtol": config.tolerance, "ftol": 1e-14},
        )
        assert model.weights.tobytes() == result.x[:-1].tobytes()
        assert model.bias.tobytes() == result.x[-1:].tobytes()

    def test_fallback_when_cv_impossible(self, caplog):
        X = np.array([[1.0], [-1.0], [-2.0]])
        y = [1, 0, 0]
        config = TrainConfig(C=7.0, C_grid=(0.1, 1.0))
        with caplog.at_level("WARNING"):
            c = tune_C(X, y, config, np.random.default_rng(3))
        assert c == 7.0


class TestExplain:
    def _fitted(self):
        docs = [
            build_document("d1", "a", "T", "aaaa bb"),
            build_document("d2", "b", "T", "cc dd"),
        ]
        config = FeatureConfig(
            enabled_blocks={FeatureBlock.CHAR_NGRAMS},
            ngram_orders={FeatureBlock.CHAR_NGRAMS: {1}},
        )
        space = fit_feature_space(docs, config)
        X = np.vstack([vectorize(d, space).to_dense() for d in docs])
        model = train_binary(
            X, [1, 0], TrainConfig(), space_fingerprint=space.fingerprint()
        )
        return space, model

    def test_zero_vector_has_no_contributions(self):
        space, model = self._fitted()
        zero = SparseVector(
            instance_id="z",
            indices=np.empty(0, dtype=np.int64),
            values=np.empty(0),
            dim=space.dim,
            space_fingerprint=space.fingerprint(),
            occurrence_count=0,
        )
        assert explain(model, zero, space.column_names()) == []

    def test_single_active_feature_ranked_first(self):
        space, model = self._fitted()
        doc = build_document("probe", "x", "T", "aaa")
        vector = vectorize(doc, space)
        ranked = explain(model, vector, space.column_names(), top_k=5)
        assert ranked[0][0] == "char_ngrams:a"

    def test_contributions_sum_to_decision_score(self):
        space, model = self._fitted()
        doc = build_document("probe", "x", "T", "aa cc dd bb")
        vector = vectorize(doc, space)
        ranked = explain(model, vector, space.column_names(), top_k=space.dim)
        total = sum(c for _, c in ranked) + float(model.bias[0])
        p = predict_proba(model, vector).positive_posterior
        assert 1.0 / (1.0 + math.exp(-total)) == pytest.approx(p)

    def test_multiclass_rejected(self):
        X = np.array([[1.0], [2.0], [3.0]])
        model = train_multiclass(X, ["a", "b", "c"], TrainConfig())
        vector = SparseVector(
            instance_id="x",
            indices=np.array([0]),
            values=np.array([1.0]),
            dim=1,
            space_fingerprint="",
            occurrence_count=1,
        )
        with pytest.raises(LearnerError):
            explain(model, vector, ["f0"])

