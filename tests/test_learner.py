"""Logistic-regression training, tuning, prediction, and explanation."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from stylauth.errors import LearnerError
from stylauth.metrics import ContingencyTable, f1, macro_f1
from stylauth.features import FeatureBlock, FeatureConfig, fit_feature_space, vectorize
from stylauth.corpus import build_document, load_corpus
from stylauth.dro import DroConfig, extended_to_csr, fit_profiles, oversample
from stylauth import learner
from stylauth.learner import (
    TrainConfig,
    _inner_cv,
    _stratified_fold_ids,
    TrainedModel,
    binary_objective,
    explain,
    multiclass_objective,
    predict_proba,
    predict_proba_matrix,
    train_binary,
    train_multiclass,
    tune_C,
)
from stylauth.pipeline import (
    CountsCache, PipelineConfig, SegmentationConfig, fit_attributor, fit_verifier,
    fold_vectors, training_documents,
)
from stylauth.rng import stable_seed

from conftest import make_styled_corpus


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


def _full_space_fit(fun, x0: np.ndarray, args: tuple, config: TrainConfig):
    """L-BFGS-B over every column: (params, converged, n_iter)."""
    result = minimize(
        fun, x0, args=args, jac=True, method="L-BFGS-B",
        options={"maxiter": config.max_iterations, "gtol": config.tolerance, "ftol": 1e-14},
    )
    converged = bool(np.max(np.abs(result.jac)) <= config.tolerance) or bool(result.success)
    return result.x, converged, result.nit


# Small sparse problems with fewer rows than columns; ``degenerate`` adds a
# duplicate row and an all-zero row, so K = X Xᵀ is singular.
row_space_problems = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(4, 40),
    "extra_columns": st.integers(1, 60),
    "degenerate": st.booleans(),
    "started": st.booleans(),
    "C": st.sampled_from([0.01, 1.0, 100.0]),
    "n_classes": st.sampled_from([2, 3]),
})


def _row_space_problem(seed, n, extra_columns, degenerate, started, C, n_classes):
    """(X, y, fun, args, x0 or None, parameter rows k) of a generated problem."""
    rng = np.random.default_rng(seed)
    d = n + extra_columns
    X = np.abs(rng.normal(size=(n, d))) * (rng.random(size=(n, d)) > 0.7)
    if degenerate:
        X[1], X[2] = X[0], 0.0
    X = sp.csr_matrix(X)
    y = rng.integers(0, n_classes, size=n)
    y[:n_classes] = np.arange(n_classes)
    k = 1 if n_classes == 2 else n_classes
    x0 = None
    if started:  # a start in the row space, as a warm start from another C is
        alpha = 0.1 * rng.normal(size=(k, n))
        x0 = np.column_stack([(X.T @ alpha.T).T, rng.normal(size=k)]).ravel()
    if n_classes == 2:
        return X, y, binary_objective, (X, y.astype(np.float64), C), x0, k
    return X, y, multiclass_objective, (X, y, n_classes, C), x0, k


def _spied_fit(X, y, C, config, x0, k):
    """The model, and each ``minimize`` call's start width, iterates and result."""
    calls = []

    def spied(fun, params, callback=None, **kwargs):
        iterates = []

        def recording(intermediate_result):
            iterates.append(intermediate_result.x.copy())
            if callback is not None:
                callback(intermediate_result)

        result = minimize(fun, params, callback=recording, **kwargs)
        calls.append((params.shape[0], iterates, result))
        return result

    with pytest.MonkeyPatch.context() as m:
        m.setattr(learner, "minimize", spied)
        if k == 1:
            model = train_binary(X, y, config, C=C, x0=x0)
        else:
            model = train_multiclass(X, [str(v) for v in y], config, C=C, x0=x0)
    return model, calls


def _params(model) -> np.ndarray:
    return np.column_stack([np.atleast_2d(model.weights), model.bias]).ravel()


class TestRowSpaceFits:
    """Fits of fewer rows than columns run in a basis of X's row space."""

    @settings(max_examples=25, deadline=None)
    @given(row_space_problems)
    def test_short_fit_equals_a_full_space_fit(self, problem):
        # Three iterations: most fits stop unconverged, with a warning. Over
        # long fits, rounding that differs between the bases can grow along
        # an ill-conditioned path (C = 100) as it does between two column
        # orders in full space, so the oracle compares short paths and the
        # next test checks where a long one stops.
        X, y, fun, args, x0, k = _row_space_problem(**problem)
        n, d = X.shape
        config = TrainConfig(max_iterations=3)
        model, calls = _spied_fit(X, y, problem["C"], config, x0, k)
        assert all(width <= k * (n + 1) for width, _, _ in calls)  # never all d columns
        assert calls or model.n_iter == 0

        start = np.zeros(k * (d + 1)) if x0 is None else x0
        want, converged, n_iter = _full_space_fit(fun, start, args, config)
        assert (model.n_iter, model.converged) == (n_iter, converged)
        np.testing.assert_allclose(_params(model), want, rtol=0, atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(row_space_problems)
    def test_fit_stops_where_the_full_space_gradient_first_passes(self, problem):
        X, y, fun, args, x0, k = _row_space_problem(**problem)
        n, d = X.shape
        config = TrainConfig()
        model, calls = _spied_fit(X, y, problem["C"], config, x0, k)
        if not calls:  # the start passed: returned as given
            start = np.zeros(k * (d + 1)) if x0 is None else x0
            assert (model.n_iter, model.converged) == (0, True)
            assert _params(model).tobytes() == start.tobytes()
            assert np.max(np.abs(fun(start, *args)[1])) <= config.tolerance
            return
        ((width, iterates, result),) = calls
        assert width <= k * (n + 1)
        full = learner._RowBasis(X).params
        norms = [np.max(np.abs(fun(full(a), *args)[1])) for a in iterates]
        assert len(norms) == model.n_iter
        assert all(norm > config.tolerance for norm in norms[:-1])
        assert model.converged == (norms[-1] <= config.tolerance or result.success)
        assert model.converged
        np.testing.assert_allclose(_params(model), full(iterates[-1]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "columns, bound, in_basis", [(12, 250, False), (13, 11, False), (13, 12, True)]
    )
    def test_full_space_at_as_many_rows_as_columns_or_above_the_bound(
        self, columns, bound, in_basis, monkeypatch
    ):
        rng = np.random.default_rng(70)
        X = sp.csr_matrix(np.abs(rng.normal(size=(12, columns))))
        y = np.arange(12) % 2
        monkeypatch.setattr(learner, "_BASIS_MAX_ROWS", bound)
        model, calls = _spied_fit(X, y, 1.0, TrainConfig(), None, 1)
        # the basis of 12 rows of full rank, or every column; and the bias
        assert [width for width, _, _ in calls] == [(12 if in_basis else columns) + 1]
        assert model.converged and model.weights.shape == (columns,)

    def test_iteration_cap_warns_with_the_full_space_gradient_norm(self, caplog):
        rng = np.random.default_rng(71)
        X = sp.csr_matrix(np.abs(rng.normal(size=(10, 30))))
        y = np.arange(10) % 2
        config = TrainConfig(max_iterations=2)
        with caplog.at_level("WARNING"):
            model = train_binary(X, y, config, C=100.0)
        _, grad = binary_objective(np.append(model.weights, model.bias), X, y.astype(float), 100.0)
        (message,) = [r.getMessage() for r in caplog.records if "optimizer stopped" in r.message]
        assert not model.converged and model.n_iter == 2
        assert message.startswith(f"optimizer stopped after 2 iterations with gradient norm "
                                  f"{np.max(np.abs(grad)):.3e}")


full_space_problems = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(4, 40),
    "columns": st.integers(1, 40),
    "started": st.booleans(),
    "C": st.sampled_from([0.01, 1.0, 100.0]),
    "n_classes": st.sampled_from([2, 3]),
    "max_iterations": st.sampled_from([3, 1000]),
})


def _jac_true_minimize(fun, x0, args, config, to_full, size):
    """``_minimize`` as it ran on ``minimize(..., jac=True)``: (result, converged)."""
    tolerance = config.tolerance
    longest = tolerance * tolerance * size
    last = {}

    def objective(x, *args):
        value, grad = fun(x, *args)
        last["x"], last["grad"] = x.tobytes(), grad
        return value, grad

    def callback(intermediate_result):
        x = intermediate_result.x
        grad = last["grad"] if x.tobytes() == last["x"] else fun(x, *args)[1]
        if grad @ grad <= longest and np.max(np.abs(to_full(grad))) <= tolerance:
            raise StopIteration

    options = {"maxiter": config.max_iterations, "gtol": 0.0, "ftol": 1e-14}
    result = minimize(
        objective, x0, args=args, jac=True, method="L-BFGS-B", options=options, callback=callback
    )
    norm = float(np.max(np.abs(to_full(result.jac))))
    converged = norm <= tolerance or bool(result.success) or (
        result.nit == 0
        and result.message.startswith("ABNORMAL")
        and norm <= math.sqrt(learner._EPS * max(1.0, abs(float(result.fun))))
    )
    return result, converged


# Every fit that reaches ``_minimize``: binary or multinomial, over all
# columns or in a row basis, and a binary fit on a ``Gram``.
minimize_problems = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(4, 30),
    "extra_columns": st.integers(1, 40),
    "case": st.sampled_from([
        "binary-full", "multiclass-full", "binary-basis", "multiclass-basis", "binary-gram",
    ]),
    "C": st.sampled_from([0.01, 1.0, 100.0]),
    "max_iterations": st.sampled_from([3, 1000]),
})


class TestStopTest:
    """``_fit`` tests a start once, in full space; ``_minimize`` tests each iterate."""

    @settings(max_examples=40, deadline=None)
    @given(minimize_problems)
    def test_minimize_equals_its_jac_true_form(self, problem):
        rng = np.random.default_rng(problem["seed"])
        kind, space = problem["case"].split("-")
        n, C = problem["n"], problem["C"]
        d = n + problem["extra_columns"]  # a row-basis fit unless the bound is 0
        n_classes = 2 if kind == "binary" else 3
        wide = sp.csr_matrix(np.abs(rng.normal(size=(n, 2 * d))) * (rng.random((n, 2 * d)) > 0.6))
        columns = np.sort(rng.choice(2 * d, size=d, replace=False))
        X = wide[:, columns]
        y = rng.integers(0, n_classes, size=n)
        y[:n_classes] = np.arange(n_classes)
        config = TrainConfig(max_iterations=problem["max_iterations"])
        runs = []
        real = learner._minimize

        def both(*call):
            got, want = real(*call), _jac_true_minimize(*call)
            runs.append((got, want))
            return got

        with pytest.MonkeyPatch.context() as m:
            m.setattr(learner, "_minimize", both)
            if space == "full":
                m.setattr(learner, "_BASIS_MAX_ROWS", 0)
            if space == "gram":
                gram = learner.Gram(learner._gram_matrix(X), wide.T, columns)
                train_binary(gram, y, config, C=C)
            elif kind == "binary":
                train_binary(X, y, config, C=C)
            else:
                train_multiclass(X, [str(v) for v in y], config, C=C)
        assert len(runs) <= 1
        for (got, got_converged), (want, want_converged) in runs:
            assert got.x.tobytes() == want.x.tobytes()
            assert (got.nit, got.nfev, got_converged) == (want.nit, want.nfev, want_converged)

    @pytest.mark.parametrize("max_iterations, stopped", [(1000, True), (3, False)])
    def test_to_full_runs_once_per_callback_past_the_prefilter(self, max_iterations, stopped):
        X, y, fun, args, _, _ = _row_space_problem(
            seed=73, n=12, extra_columns=20, degenerate=False, started=False, C=1.0, n_classes=2
        )
        basis = learner._RowBasis(X)
        args = (basis.M, *args[1:], basis.M.T)
        config = TrainConfig(max_iterations=max_iterations)
        size = X.shape[1] + 1
        events = []

        def to_full(grad):
            events.append("to_full")
            return basis.params(grad)

        def spied(objective, x0, callback, **kwargs):
            def recording(intermediate_result):
                grad = fun(intermediate_result.x, *args)[1]
                passes = grad @ grad <= config.tolerance ** 2 * size
                events.append("callback, past the prefilter" if passes else "callback")
                callback(intermediate_result)

            return minimize(objective, x0, callback=recording, **kwargs)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(learner, "minimize", spied)
            result, converged = learner._minimize(
                fun, np.zeros(basis.M.shape[1] + 1), args, config, to_full, size
            )
        assert converged is stopped and (result.nit < max_iterations) is stopped
        mapped = [i for i, event in enumerate(events) if event == "to_full"]
        past = [i for i, event in enumerate(events) if event == "callback, past the prefilter"]
        assert events.count("callback") + len(past) == result.nit
        if stopped:  # the stop test's norm decides `converged`: no mapping after it
            assert mapped == [i + 1 for i in past] and mapped[-1] == len(events) - 1
        else:  # capped: the norm at the last iterate is mapped after the run
            assert mapped == [i + 1 for i in past] + [len(events) - 1]

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_passing_start_calls_no_minimize_and_builds_no_basis(self, n_classes, monkeypatch):
        X, y, fun, args, _, k = _row_space_problem(
            seed=72, n=12, extra_columns=20, degenerate=False, started=False, C=1.0,
            n_classes=n_classes,
        )
        tight = TrainConfig(tolerance=1e-10)
        if k == 1:
            x0 = _params(train_binary(X, y, tight))
        else:
            x0 = _params(train_multiclass(X, [str(v) for v in y], tight))
        config = TrainConfig()
        assert np.max(np.abs(fun(x0, *args)[1])) <= config.tolerance
        bases = []
        monkeypatch.setattr(learner, "_RowBasis", lambda X: bases.append(X))
        model, calls = _spied_fit(X, y, 1.0, config, x0, k)
        assert calls == [] and bases == []  # a failing start would run in the basis
        assert _params(model).tobytes() == x0.tobytes()
        assert (model.n_iter, model.converged) == (0, True)

    def test_gram_start_the_prefilter_rejects_takes_no_product(self, monkeypatch):
        # from zeros the start's gradient is too long in 2-norm to pass, so
        # the start test maps nothing to full space before L-BFGS-B runs
        rng = np.random.default_rng(74)
        n, d = 12, 32
        wide = sp.csr_matrix(np.abs(rng.normal(size=(n, 2 * d))) * (rng.random((n, 2 * d)) > 0.6))
        columns = np.sort(rng.choice(2 * d, size=d, replace=False))
        gram = learner.Gram(learner._gram_matrix(wide[:, columns]), wide.T, columns)
        products, starts = [], []
        rmatmul, run = learner.Gram.rmatmul, learner._minimize

        def counted(self, V):
            products.append(V.shape)
            return rmatmul(self, V)

        def reached(*call):
            starts.append(len(products))
            return run(*call)

        monkeypatch.setattr(learner.Gram, "rmatmul", counted)
        monkeypatch.setattr(learner, "_minimize", reached)
        model = train_binary(gram, np.arange(n) % 2, TrainConfig(), C=1.0)
        assert starts == [0] and model.converged

    @pytest.mark.parametrize("gradient, converged", [(1.0, False), (1e-9, True)])
    def test_a_first_line_search_failure_converges_only_at_working_precision(
        self, gradient, converged, caplog
    ):
        # Every step from the start raises f, whatever the gradient says, so
        # L-BFGS-B's first line search fails. That start counts as a
        # minimizer to working precision only when the gradient is within
        # about √(eps·|f|).
        def kink(x):
            return 1.0 + float(np.abs(x).sum()), np.full_like(x, gradient)

        config = TrainConfig(tolerance=1e-10)
        with caplog.at_level("WARNING"):
            result, ok = learner._minimize(kink, np.zeros(4), (), config, lambda g: g, 4)
        assert result.nit == 0 and result.message.startswith("ABNORMAL")
        assert ok is converged
        stopped = [r for r in caplog.records if "stopped after 0 iterations" in r.getMessage()]
        assert len(stopped) == (0 if converged else 1)

    @settings(max_examples=25, deadline=None)
    @given(full_space_problems)
    def test_full_space_fit_equals_lbfgs_with_its_own_stop_test(self, problem):
        rng = np.random.default_rng(problem["seed"])
        n, n_classes, C = problem["n"], problem["n_classes"], problem["C"]
        d = min(problem["columns"], n)
        X = sp.csr_matrix(np.abs(rng.normal(size=(n, d))) * (rng.random(size=(n, d)) > 0.3))
        y = rng.integers(0, n_classes, size=n)
        y[:n_classes] = np.arange(n_classes)
        k = 1 if n_classes == 2 else n_classes
        x0 = rng.normal(size=k * (d + 1)) if problem["started"] else None
        config = TrainConfig(max_iterations=problem["max_iterations"])
        model, calls = _spied_fit(X, y, C, config, x0, k)
        assert [width for width, _, _ in calls] in ([], [k * (d + 1)])

        start = np.zeros(k * (d + 1)) if x0 is None else x0
        if k == 1:
            fun, args = binary_objective, (X, y.astype(np.float64), C)
        else:
            fun, args = multiclass_objective, (X, y, n_classes, C)
        want, converged, n_iter = _full_space_fit(fun, start, args, config)
        assert _params(model).tobytes() == want.tobytes()
        assert (model.n_iter, model.converged) == (n_iter, converged)


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
        assert tune_C(X, [0, 1, 0, 1], config, 0) == (0.5, {}, None)

    def test_ties_break_toward_smaller_c(self):
        # a constant-features problem scores identically for every C
        X = np.zeros((8, 2))
        y = [0, 1] * 4
        config = TrainConfig(C_grid=(0.1, 1.0, 10.0), inner_folds=2)
        assert tune_C(X, y, config, 1)[0] == 0.1

    def test_chosen_c_attains_best_inner_score(self):
        rng = np.random.default_rng(52)
        X = rng.normal(size=(60, 5))
        y = ((X[:, 0] + 0.8 * rng.normal(size=60)) > 0).astype(int)
        y[:2] = [0, 1]
        config = TrainConfig(C_grid=(0.01, 0.1, 1.0, 10.0), inner_folds=3)
        chosen, tuned_scores, _ = tune_C(X, y, config, 9)
        scores = _inner_cv(X, y, 2, config, np.random.default_rng(9))[0]
        assert scores is not None
        assert list(tuned_scores.items()) == [(c, scores[c]) for c in config.C_grid]
        assert scores[chosen] == max(scores.values())
        tied = [c for c, s in scores.items() if s == scores[chosen]]
        assert chosen == min(tied)

    @pytest.mark.parametrize("fit", [fit_verifier, fit_attributor])
    def test_a_one_value_grid_makes_no_generator(self, fit, fold_corpus, monkeypatch):
        seeds = []
        default_rng = np.random.default_rng

        def recording(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        for grid, want in (((1.0,), []), ((0.1, 1.0), [stable_seed(5, "tune")])):
            train, _ = _training_fold(fold_corpus, _pipeline_config(grid))
            seeds.clear()
            fit(train, _pipeline_config(grid), 5)
            assert seeds == want  # inner CV's generator, seeded as it always was

    def test_fold_reduction_when_class_tiny(self, caplog):
        X = np.vstack([np.full((3, 1), -1.0), np.full((12, 1), 1.0)])
        y = [1] * 3 + [0] * 12
        config = TrainConfig(C_grid=(0.1, 1.0), inner_folds=5)
        with caplog.at_level("WARNING"):
            c, _, _ = tune_C(X, y, config, 2)
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
        got = _inner_cv(X, y_idx, n_classes, config, np.random.default_rng(5))[0]
        assert got == want
        if n_classes == 2:
            # binary inner CV at this size fits in Gram space, not through
            # train_binary; the warm-started L-BFGS path runs above the bound
            assert warm_iters == []
            monkeypatch.setattr(learner, "_GRAM_MAX_ROWS", X.shape[0] - 1)
            got = _inner_cv(X, y_idx, n_classes, config, np.random.default_rng(5))[0]
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
            c, scores, start = tune_C(X, y, config, 3)
        assert (c, scores, start) == (7.0, {}, None)


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

    @pytest.mark.parametrize("name", ["sparse", "duplicated-rows", "separable"])
    def test_stops_at_working_precision_below_it(self, name, caplog):
        # Tolerance 1e-12 is below what the line search's f values resolve.
        # Each fold must stop on its Newton decrement, well inside the step
        # cap and with no warning, at a primal gradient of about √(eps·f).
        X, y = _gram_fixture(name)
        K = learner._gram_matrix(X)
        folds = _stratified_fold_ids(y, 4, np.random.default_rng(3))
        tr = [np.flatnonzero(folds != j) for j in range(4)]
        sizes = np.array([rows.shape[0] for rows in tr])
        m = int(sizes.max())
        K_stack, y_stack = np.zeros((4, m, m)), np.zeros((4, m))
        for f, rows in enumerate(tr):
            K_stack[f, : rows.shape[0], : rows.shape[0]] = K[np.ix_(rows, rows)]
            y_stack[f, : rows.shape[0]] = y[rows]
        config = TrainConfig(tolerance=1e-12, max_iterations=50)
        eps = np.finfo(np.float64).eps
        for c in learner.DEFAULT_C_GRID:
            with caplog.at_level("WARNING"):
                alpha, b = learner._gram_newton_stack(
                    K_stack, y_stack, sizes, c, config, np.zeros((4, m)), np.zeros(4)
                )
            assert not caplog.records, c
            for f, rows in enumerate(tr):
                w = X[rows].T @ alpha[f, : rows.shape[0]]
                value, grad = binary_objective(np.append(w, b[f]), X[rows], y[rows].astype(float), c)
                assert np.max(np.abs(grad)) <= 10 * np.sqrt(eps * value), (c, f)

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
        assert _inner_cv(X, y, 2, config, np.random.default_rng(6))[0] == want
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
        _inner_cv(X, y, 2, config, np.random.default_rng(7))[0]
        assert len(calls) == fits

    def test_all_zero_matrix_ties_toward_smallest_c(self):
        X = sp.csr_matrix((10, 4))
        y = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        chosen, scores, _ = tune_C(X, y, TrainConfig(inner_folds=3), 8)
        assert len(set(scores.values())) == 1
        assert chosen == min(scores)

    def test_non_finite_matrix_rejected(self):
        X = np.array([[1.0], [np.inf], [0.5], [-1.0]])
        with pytest.raises(LearnerError):
            _inner_cv(X, np.array([0, 1, 0, 1]), 2, TrainConfig(inner_folds=2),
                      np.random.default_rng(9))[0]

    def test_iteration_cap_logs_the_lbfgs_warning(self, caplog):
        X, y = _gram_fixture("sparse")
        config = TrainConfig(max_iterations=1, inner_folds=3)
        with caplog.at_level("WARNING"):
            _inner_cv(X, y, 2, config, np.random.default_rng(10))[0]
        stopped = [r.getMessage() for r in caplog.records if "optimizer stopped" in r.message]
        assert stopped
        assert all(m.startswith("optimizer stopped after 1 iterations with gradient norm")
                   for m in stopped)


@pytest.fixture(scope="module")
def fold_corpus(tmp_path_factory):
    manifest = make_styled_corpus(
        tmp_path_factory.mktemp("path-start"), {"Aldus": 3, "Benno": 3, "Castor": 3},
        n_tokens=200, seed=62,
    )
    return load_corpus(manifest)


def _pipeline_config(c_grid, dro=False) -> PipelineConfig:
    return PipelineConfig(
        features=FeatureConfig(
            enabled_blocks={FeatureBlock.CHAR_NGRAMS, FeatureBlock.TOKEN_LENGTHS},
            ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 2}},
        ),
        segmentation=SegmentationConfig(min_tokens=60),
        learner=TrainConfig(C_grid=tuple(c_grid), inner_folds=3),
        dro=DroConfig(target_positive_ratio=0.3) if dro else None,
        target_author="Aldus",
    )


def _training_fold(corpus, config):
    """Vectors of one LOO fold (the first text held out) and their target labels."""
    docs = training_documents(corpus)[1:]
    train = fold_vectors(docs, (), config, CountsCache(config.features))[0]
    y = np.asarray([inst.doc.author == "Aldus" for inst in train.instances], dtype=np.int64)
    return train, y


def _dro_fold(corpus) -> tuple[sp.csr_matrix, np.ndarray]:
    """The DRO-extended training matrix of one LOO fold, as ``fit_verifier`` tunes on it."""
    config = _pipeline_config(learner.DEFAULT_C_GRID, dro=True)
    train, y = _training_fold(corpus, config)
    ids = tuple(inst.instance_id for inst in train.instances)
    profiles = fit_profiles(train.X)
    extended = oversample(train.X, y, ids, train.occurrences, profiles, config.dro, 3)
    return extended_to_csr(train.X, extended, profiles.latent_dim)


def _record_gram_newton_starts(monkeypatch) -> list[tuple[np.ndarray, float]]:
    """Make ``learner._gram_newton`` record each (α, b) it starts from."""
    starts = []
    gram_newton = learner._gram_newton

    def recording(K, y, C, config, alpha, b):
        starts.append((alpha.copy(), b))
        return gram_newton(K, y, C, config, alpha, b)

    monkeypatch.setattr(learner, "_gram_newton", recording)
    return starts


class TestPathStart:
    @pytest.mark.parametrize("name", ["sparse", "duplicated-rows", "separable", "dro-fold"])
    def test_started_fit_passes_the_lbfgs_test(self, name, fold_corpus):
        X, y = _dro_fold(fold_corpus) if name == "dro-fold" else _gram_fixture(name)
        config = TrainConfig(inner_folds=3)
        C, _, start = tune_C(X, y, config, 11)
        assert start is not None
        x0 = np.append(X.T @ start[0], start[1])
        _, grad = binary_objective(x0, X, y.astype(float), C)
        assert np.max(np.abs(grad)) <= config.tolerance
        started = train_binary(X, y, config, C=C, x0=x0)
        cold = train_binary(X, y, config, C=C)
        assert started.converged
        assert started.n_iter < cold.n_iter
        np.testing.assert_allclose(
            predict_proba_matrix(started, X), predict_proba_matrix(cold, X), rtol=0, atol=1e-6
        )

    @pytest.mark.parametrize("case", ["one-value-grid", "above-the-row-bound", "multiclass"])
    def test_fit_without_a_gram_path_starts_from_zeros(self, case, fold_corpus, monkeypatch):
        config = _pipeline_config((1.0,) if case == "one-value-grid" else (0.1, 1.0, 10.0))
        train, y = _training_fold(fold_corpus, config)
        if case == "multiclass":
            fitted = fit_attributor(train, config, 5)
            labels = [inst.doc.author for inst in train.instances]
            cold = train_multiclass(train.X, labels, config.learner, C=fitted.chosen_C)
        else:
            if case == "above-the-row-bound":
                monkeypatch.setattr(learner, "_GRAM_MAX_ROWS", train.X.shape[0] - 1)
            fitted = fit_verifier(train, config, 5)
            classes = fitted.model.classes
            cold = train_binary(train.X, y, config.learner, classes, C=fitted.chosen_C)
        assert bool(fitted.inner_cv_f1) == (case != "one-value-grid")  # inner CV ran
        assert fitted.model.weights.tobytes() == cold.weights.tobytes()
        assert fitted.model.bias.tobytes() == cold.bias.tobytes()
        assert fitted.model.n_iter == cold.n_iter > 0

    @pytest.mark.parametrize("name", ["sparse", "duplicated-rows", "separable", "dro-fold"])
    def test_full_data_fit_starts_from_the_inner_fold_means(self, name, fold_corpus, monkeypatch):
        X, y = _dro_fold(fold_corpus) if name == "dro-fold" else _gram_fixture(name)
        config = TrainConfig(inner_folds=3)
        gram_newton = learner._gram_newton
        starts = _record_gram_newton_starts(monkeypatch)
        C, _, (alpha, b) = tune_C(X, y, config, 11)
        ((alpha0, b0),) = starts

        # the same inner folds, fitted along the grid up to C
        folds = _stratified_fold_ids(y, 3, np.random.default_rng(11))
        K = learner._gram_matrix(X)
        sums, counts, biases = np.zeros(y.shape[0]), np.zeros(y.shape[0]), []
        for j in range(3):
            rows = np.flatnonzero(folds != j)
            a_f, b_f = np.zeros(rows.shape[0]), 0.0
            for c in config.C_grid[: config.C_grid.index(C) + 1]:
                a_f, b_f = gram_newton(K[np.ix_(rows, rows)], y[rows].astype(float), c, config,
                                       a_f, b_f)
            sums[rows] += a_f
            counts[rows] += 1
            biases.append(b_f)
        np.testing.assert_allclose(alpha0, sums / counts, rtol=0, atol=1e-8)
        assert b0 == pytest.approx(np.mean(biases), rel=0, abs=1e-8)

        # the warm start reaches the cold start's minimizer
        cold_alpha, cold_b = gram_newton(K, y.astype(float), C, config, np.zeros(y.shape[0]), 0.0)
        np.testing.assert_allclose(expit(K @ alpha + b), expit(K @ cold_alpha + cold_b),
                                   rtol=0, atol=1e-6)

    def test_full_data_fit_starts_from_zeros_when_no_inner_fold_trained(self, monkeypatch):
        X, y = _gram_fixture("sparse")
        # each inner fold holds one class, so each training set holds the other only
        monkeypatch.setattr(learner, "_stratified_fold_ids", lambda y_idx, k, rng: y_idx.copy())
        gram_newton = learner._gram_newton
        starts = _record_gram_newton_starts(monkeypatch)
        config = TrainConfig(inner_folds=2)
        C, scores, (alpha, b) = tune_C(X, y, config, 12)
        assert set(scores.values()) == {0.0}  # every validation row stayed negative
        assert C == config.C_grid[0]
        ((alpha0, b0),) = starts
        assert not alpha0.any() and b0 == 0.0
        K = learner._gram_matrix(X)
        cold_alpha, cold_b = gram_newton(K, y.astype(float), C, config, np.zeros(y.shape[0]), 0.0)
        assert alpha.tobytes() == cold_alpha.tobytes() and b == cold_b

    def test_passing_start_returns_what_lbfgs_returns(self, fold_corpus, monkeypatch):
        X, y = _dro_fold(fold_corpus)
        config = TrainConfig(inner_folds=3)
        C, _, start = tune_C(X, y, config, 11)
        x0 = np.append(X.T @ start[0], start[1])
        forced, converged, n_iter = _full_space_fit(
            binary_objective, x0, (X, y.astype(float), C), config
        )
        assert n_iter == 0
        calls = []
        monkeypatch.setattr(learner, "minimize", lambda *a, **k: calls.append(1))
        model = train_binary(X, y, config, C=C, x0=x0)
        assert calls == []  # the start passed L-BFGS's first test: no L-BFGS-B call
        assert model.weights.tobytes() == forced[:-1].tobytes()
        assert model.bias.tobytes() == forced[-1:].tobytes()
        assert (model.n_iter, model.converged) == (n_iter, converged) == (0, True)

    def test_failing_start_runs_lbfgs(self, fold_corpus, monkeypatch):
        X, y = _dro_fold(fold_corpus)
        config = TrainConfig(inner_folds=3)
        C, _, start = tune_C(X, y, config, 11)
        x0 = np.append(X.T @ start[0], start[1] + 1e-3)  # moved off the minimizer
        _, grad = binary_objective(x0, X, y.astype(float), C)
        assert np.max(np.abs(grad)) > config.tolerance
        calls = []
        lbfgs = learner.minimize

        def counted(*args, **kwargs):
            calls.append(1)
            return lbfgs(*args, **kwargs)

        monkeypatch.setattr(learner, "minimize", counted)
        model = train_binary(X, y, config, C=C, x0=x0)
        assert calls == [1]
        assert model.converged and model.n_iter > 0

    def test_gram_fit_starts_from_the_path(self, fold_corpus):
        config = _pipeline_config((0.1, 1.0, 10.0))
        train, y = _training_fold(fold_corpus, config)
        fitted = fit_verifier(train, config, 5)
        _, _, (alpha, b) = tune_C(train.X, y, config.learner, stable_seed(5, "tune"))
        started = train_binary(
            train.X, y, config.learner, fitted.model.classes, C=fitted.chosen_C,
            x0=np.append(train.X.T @ alpha, b),
        )
        assert fitted.model.weights.tobytes() == started.weights.tobytes()
        assert fitted.model.n_iter == started.n_iter


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

