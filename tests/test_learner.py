"""Logistic-regression training, tuning, prediction, and explanation."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.special import expit

from stylauth.errors import LearnerError
from stylauth.metrics import ContingencyTable, f1, macro_f1
from stylauth.features import FeatureBlock, FeatureConfig, fit_feature_space, vectorize
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


def row(values) -> sp.csr_matrix:
    """One instance as a one-row CSR matrix."""
    return sp.csr_matrix(np.asarray(values, dtype=np.float64).reshape(1, -1))


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
        pos = predict_proba(model, row([1.0]))
        neg = predict_proba(model, row([-1.0]))
        assert pos.positive_posterior > 0.5 > neg.positive_posterior

    def test_extreme_regularization_flattens_posteriors(self):
        rng = np.random.default_rng(46)
        X = rng.normal(size=(20, 3))
        y = [0, 1] * 10
        model = train_binary(X, y, TrainConfig(), C=1e-9)
        assert np.max(np.abs(model.weights)) < 1e-6
        p = predict_proba(model, row(X[0])).positive_posterior
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
        p1 = predict_proba(m1, row(probe)).positive_posterior
        p2 = predict_proba(m2, row(probe)).positive_posterior
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
        p1 = predict_proba(m1, row(probe)).positive_posterior
        p2 = predict_proba(m2, row(probe[perm])).positive_posterior
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
        for x, expected in zip(X, ["a", "b", "c"]):
            assert predict_proba(model, row(x)).predicted_class == expected

    def test_posterior_length_is_class_count(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        model = train_multiclass(X, ["a", "b", "a", "c"], TrainConfig())
        prediction = predict_proba(model, row([2.5]))
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
        prediction = predict_proba(model, row(probe))
        assert prediction.predicted_class == model.classes[int(np.argmax(scores))]


class TestPredict:
    def test_zero_score_gives_half(self):
        model = TrainedModel(
            classes=("neg", "pos"),
            weights=np.zeros(3),
            bias=np.array([0.0]),
            converged=True,
            n_iter=0,
        )
        assert predict_proba(model, row(np.ones(3))).positive_posterior == pytest.approx(0.5)

    def test_log_three_score_gives_three_quarters(self):
        model = TrainedModel(
            classes=("neg", "pos"),
            weights=np.array([math.log(3.0)]),
            bias=np.array([0.0]),
            converged=True,
            n_iter=0,
        )
        assert predict_proba(model, row([1.0])).positive_posterior == pytest.approx(0.75)

    def test_posteriors_sum_to_one(self):
        rng = np.random.default_rng(50)
        X = rng.normal(size=(12, 3))
        model = train_multiclass(X, [str(i % 4) for i in range(12)], TrainConfig())
        prediction = predict_proba(model, row(rng.normal(size=3)))
        assert prediction.posteriors.sum() == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        model = train_binary(np.array([[-1.0], [1.0]]), [0, 1], TrainConfig())
        with pytest.raises(LearnerError):
            predict_proba(model, row(np.ones(3)))

    @pytest.mark.parametrize(
        "x", [np.array([1.0]), np.array([[1.0]]), sp.csc_matrix([[1.0]]), row([[1.0], [2.0]])]
    )
    def test_non_row_input_rejected(self, x):
        model = train_binary(np.array([[-1.0], [1.0]]), [0, 1], TrainConfig())
        with pytest.raises(LearnerError):
            predict_proba(model, x)

    def test_matrix_predictions_match_single(self):
        rng = np.random.default_rng(51)
        X = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, size=10)
        y[:2] = [0, 1]
        model = train_binary(X, y, TrainConfig())
        probs = predict_proba_matrix(model, X)
        for i in range(10):
            single = predict_proba(model, row(X[i])).posteriors
            assert probs[i] == pytest.approx(single)


class TestTuneC:
    def test_single_grid_value_returned(self):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        config = TrainConfig(C_grid=(0.5,))
        rng = np.random.default_rng(0)
        assert tune_C(X, [0, 1, 0, 1], config, rng) == (0.5, {})

    def test_ties_break_toward_smaller_c(self):
        # a constant-features problem scores identically for every C
        X = np.zeros((8, 2))
        y = [0, 1] * 4
        config = TrainConfig(C_grid=(0.1, 1.0, 10.0), inner_folds=2)
        rng = np.random.default_rng(1)
        assert tune_C(X, y, config, rng)[0] == 0.1

    def test_chosen_c_attains_best_inner_score(self):
        rng = np.random.default_rng(52)
        X = rng.normal(size=(60, 5))
        y = ((X[:, 0] + 0.8 * rng.normal(size=60)) > 0).astype(int)
        y[:2] = [0, 1]
        config = TrainConfig(C_grid=(0.01, 0.1, 1.0, 10.0), inner_folds=3)
        chosen, tuned_scores = tune_C(X, y, config, np.random.default_rng(9))
        scores = inner_cv_scores(X, y, 2, config, np.random.default_rng(9))
        assert scores is not None
        assert list(tuned_scores.items()) == [(c, scores[c]) for c in config.C_grid]
        assert scores[chosen] == max(scores.values())
        tied = [c for c, s in scores.items() if s == scores[chosen]]
        assert chosen == min(tied)

    def test_fold_reduction_when_class_tiny(self, caplog):
        X = np.vstack([np.full((3, 1), -1.0), np.full((12, 1), 1.0)])
        y = [1] * 3 + [0] * 12
        config = TrainConfig(C_grid=(0.1, 1.0), inner_folds=5)
        with caplog.at_level("WARNING"):
            c, _ = tune_C(X, y, config, np.random.default_rng(2))
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
        if n_classes == 2:
            # binary inner CV at this size fits in Gram space, not through
            # train_binary; the warm-started L-BFGS path runs above the bound
            assert warm_iters == []
            monkeypatch.setattr(learner, "_GRAM_MAX_ROWS", X.shape[0] - 1)
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
            c, scores = tune_C(X, y, config, np.random.default_rng(3))
        assert (c, scores) == (7.0, {})


def _gram_fixture(name: str) -> tuple[object, np.ndarray]:
    rng = np.random.default_rng(60)
    if name == "separable":
        X = rng.normal(size=(24, 6))
        return X, (X[:, 0] > 0).astype(np.int64)
    X = np.abs(rng.normal(size=(30, 50))) * (rng.random(size=(30, 50)) > 0.7)
    y = (X[:, :5].sum(axis=1) + rng.normal(size=30) > 1.0).astype(np.int64)
    if name == "duplicated-rows":  # like synthetic positives sharing their natural block
        X = np.vstack([X, X[y == 1][:6]])
        y = np.concatenate([y, np.ones(6, dtype=np.int64)])
    return sp.csr_matrix(X), y


class TestGramPath:
    @pytest.mark.parametrize("name", ["sparse", "duplicated-rows", "separable"])
    def test_primal_gradient_within_tolerance_along_the_grid(self, name):
        X, y = _gram_fixture(name)
        config = TrainConfig()
        K = X @ X.T
        K = K.toarray() if sp.issparse(K) else K
        alpha, b = np.zeros(X.shape[0]), 0.0
        for c in config.C_grid:
            alpha, b = learner._gram_newton(K, y.astype(float), c, config, alpha, b)
            w = X.T @ alpha
            _, grad = binary_objective(np.append(w, b), X, y.astype(float), c)
            assert np.max(np.abs(grad)) <= config.tolerance, c

    # Each grid has a C at which one fold converges in fewer steps than
    # another, so the stack divides for the bias step while a fold is
    # frozen; a division warning there fails the suite.
    @pytest.mark.parametrize("name, grid", [
        ("sparse", learner.DEFAULT_C_GRID),
        ("duplicated-rows", learner.DEFAULT_C_GRID),
        ("separable", (0.01, 1.0, 100.0)),
    ])
    def test_stacked_solve_equals_per_fold_solves(self, name, grid, monkeypatch):
        X, y = _gram_fixture(name)
        config = TrainConfig(C_grid=grid)
        K = learner._gram_matrix(X)
        folds = _stratified_fold_ids(y, 4, np.random.default_rng(3))
        train_masks = [folds != j for j in range(4)]
        tr = [np.flatnonzero(mask) for mask in train_masks]
        va = [np.flatnonzero(~mask) for mask in train_masks]
        sizes = np.array([rows.shape[0] for rows in tr])
        assert len(set(sizes.tolist())) > 1  # the shorter folds are padded
        m = int(sizes.max())
        K_stack, y_stack = np.zeros((4, m, m)), np.zeros((4, m))
        for f, rows in enumerate(tr):
            K_stack[f, : rows.shape[0], : rows.shape[0]] = K[np.ix_(rows, rows)]
            y_stack[f, : rows.shape[0]] = y[rows]

        factorizations = []
        dpotrf = learner.dpotrf
        monkeypatch.setattr(
            learner, "dpotrf", lambda *a, **k: factorizations.append(1) or dpotrf(*a, **k)
        )
        predicted = {c: np.zeros(y.shape[0], dtype=np.int64) for c in config.C_grid}
        learner._gram_cv_predictions(K, y, train_masks, config, predicted)
        alpha, b = np.zeros((4, m)), np.zeros(4)
        single = [(np.zeros(rows.shape[0]), 0.0) for rows in tr]
        uneven = False
        for c in config.C_grid:
            alpha, b = learner._gram_newton_stack(K_stack, y_stack, sizes, c, config, alpha, b)
            steps = []
            for f, rows in enumerate(tr):
                del factorizations[:]
                a_f, b_f = learner._gram_newton(
                    K[np.ix_(rows, rows)], y[rows].astype(float), c, config, *single[f]
                )
                single[f] = (a_f, b_f)
                steps.append(len(factorizations))
                np.testing.assert_allclose(alpha[f, : rows.shape[0]], a_f, rtol=0, atol=1e-8)
                assert not alpha[f, rows.shape[0] :].any()
                assert b[f] == pytest.approx(b_f, rel=0, abs=1e-8)
                want = (expit(K[np.ix_(va[f], rows)] @ a_f + b_f) > 0.5).astype(np.int64)
                assert predicted[c][va[f]].tolist() == want.tolist(), (c, f)
            uneven |= len(set(steps)) > 1
        assert uneven  # at some C, a fold converges while others still step

    def test_sparse_gram_matrix_built_in_column_blocks(self, monkeypatch):
        X, _ = _gram_fixture("sparse")
        monkeypatch.setattr(learner, "_GRAM_CHUNK_COLUMNS", 7)  # 50 columns: a partial last block
        dense = X.toarray()
        np.testing.assert_allclose(learner._gram_matrix(X), dense @ dense.T, rtol=1e-12)

    @pytest.mark.parametrize("name", ["sparse", "duplicated-rows", "separable"])
    def test_scores_equal_cold_start_lbfgs(self, name, monkeypatch):
        X, y = _gram_fixture(name)
        config = TrainConfig(inner_folds=3)
        want, _ = TestTuneC._cold_start_scores(X, y, 2, config, np.random.default_rng(6))
        fits = []
        monkeypatch.setattr(learner, "train_binary", lambda *a, **k: fits.append(1))
        assert inner_cv_scores(X, y, 2, config, np.random.default_rng(6)) == want
        assert fits == []

    @pytest.mark.parametrize("extra_rows, fits", [(0, 0), (1, 4)])
    def test_lbfgs_above_the_row_bound(self, extra_rows, fits, monkeypatch):
        rng = np.random.default_rng(61)
        n = learner._GRAM_MAX_ROWS + extra_rows
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] + rng.normal(size=n) > 0).astype(np.int64)
        calls = []
        train = learner.train_binary

        def counted(*args, **kwargs):
            calls.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(learner, "train_binary", counted)
        config = TrainConfig(C_grid=(0.1, 1.0), inner_folds=2)
        inner_cv_scores(X, y, 2, config, np.random.default_rng(7))
        assert len(calls) == fits

    def test_all_zero_matrix_ties_toward_smallest_c(self):
        X = sp.csr_matrix((10, 4))
        y = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        chosen, scores = tune_C(X, y, TrainConfig(inner_folds=3), np.random.default_rng(8))
        assert len(set(scores.values())) == 1
        assert chosen == min(scores)

    def test_non_finite_matrix_rejected(self):
        X = np.array([[1.0], [np.inf], [0.5], [-1.0]])
        with pytest.raises(LearnerError):
            inner_cv_scores(X, np.array([0, 1, 0, 1]), 2, TrainConfig(inner_folds=2),
                            np.random.default_rng(9))

    def test_iteration_cap_logs_the_lbfgs_warning(self, caplog):
        X, y = _gram_fixture("sparse")
        config = TrainConfig(max_iterations=1, inner_folds=3)
        with caplog.at_level("WARNING"):
            inner_cv_scores(X, y, 2, config, np.random.default_rng(10))
        stopped = [r.getMessage() for r in caplog.records if "optimizer stopped" in r.message]
        assert stopped
        assert all(m.startswith("optimizer stopped after 1 iterations with gradient norm")
                   for m in stopped)


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
        X, _ = vectorize(docs, space)
        model = train_binary(X, [1, 0], TrainConfig())
        return space, model

    def test_zero_vector_has_no_contributions(self):
        space, model = self._fitted()
        zero = sp.csr_matrix((1, space.dim))
        assert explain(model, zero, space.column_names()) == []

    def test_single_active_feature_ranked_first(self):
        space, model = self._fitted()
        doc = build_document("probe", "x", "T", "aaa")
        x, _ = vectorize([doc], space)
        ranked = explain(model, x, space.column_names(), top_k=5)
        assert ranked[0][0] == "char_ngrams:a"

    def test_contributions_sum_to_decision_score(self):
        space, model = self._fitted()
        doc = build_document("probe", "x", "T", "aa cc dd bb")
        x, _ = vectorize([doc], space)
        ranked = explain(model, x, space.column_names(), top_k=space.dim)
        total = sum(c for _, c in ranked) + float(model.bias[0])
        p = predict_proba(model, x).positive_posterior
        assert 1.0 / (1.0 + math.exp(-total)) == pytest.approx(p)

    def test_multiclass_rejected(self):
        X = np.array([[1.0], [2.0], [3.0]])
        model = train_multiclass(X, ["a", "b", "c"], TrainConfig())
        with pytest.raises(LearnerError):
            explain(model, row([1.0]), ["f0"])

    def test_every_contribution_returned_up_to_top_k(self):
        model = TrainedModel(("neg", "pos"), np.array([1.0, -3.0, 2.0]), np.array([0.0]),
                             True, 0)
        names = ["f0", "f1", "f2"]
        ranked = explain(model, row([1.0, 1.0, 1.0]), names, top_k=3)
        assert ranked == [("f1", -3.0), ("f2", 2.0), ("f0", 1.0)]
        assert explain(model, row([1.0, 1.0, 1.0]), names, top_k=1) == [("f1", -3.0)]

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, top_k):
        space, model = self._fitted()
        x, _ = vectorize([build_document("probe", "x", "T", "aa cc")], space)
        with pytest.raises(LearnerError):
            explain(model, x, space.column_names(), top_k=top_k)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_feature_names_must_name_every_column(self, extra):
        space, model = self._fitted()
        x, _ = vectorize([build_document("probe", "x", "T", "aa cc")], space)
        names = space.column_names()
        names = names[:extra] if extra < 0 else names + ["spare"] * extra
        with pytest.raises(LearnerError):
            explain(model, x, names)

