"""L2-regularized logistic regression (binary and multinomial).

The objective is the sum of per-example negative log-likelihoods plus
||w||^2 / (2C); the bias is never regularized. Every model a caller gets
back (``train_binary``, ``train_multiclass``) is fitted by L-BFGS-B on
analytic gradients, which is deterministic for fixed inputs, so any
randomness in the surrounding pipeline comes only from explicit seeds.
The objective/gradient functions are module-level so they can be checked
against finite differences; a fit makes ``X.T`` once and passes it to
every evaluation.

Inner cross-validation fits each inner fold along the C grid in
ascending order, starting every fit from the previous C's solution (the
regularization-path warm start of glmnet, Friedman, Hastie & Tibshirani,
2010); final fits start from zeros. Binary inner CV on small matrices
(at most ``_GRAM_MAX_ROWS`` rows) runs Newton's method in the Gram space
of the fold instead (``_gram_newton``). Only its validation predictions
are used. Both solvers stop within the same gradient tolerance of the one
minimizer, so the predictions can differ only for a validation score
that close to zero. Final fits stay on L-BFGS, because the two solvers'
weights differ within that tolerance, and reported posteriors and
ablation scores are pinned tighter than that.

``predict_proba`` and ``explain`` read one instance as a one-row CSR
matrix, the row form that ``features.vectorize_counts`` makes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import minimize
from scipy.special import expit, logsumexp

from .errors import LearnerError
from .metrics import ContingencyTable, f1, macro_f1

log = logging.getLogger(__name__)

DEFAULT_C_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


@dataclass
class TrainConfig:
    C: float = 1.0
    C_grid: tuple[float, ...] = DEFAULT_C_GRID
    inner_folds: int = 5
    tolerance: float = 1e-6
    max_iterations: int = 1000

    def __post_init__(self) -> None:
        if self.C <= 0:
            raise LearnerError(f"C must be positive, got {self.C}")
        if not self.C_grid or any(c <= 0 for c in self.C_grid):
            raise LearnerError("C_grid must be a nonempty list of positive values")
        self.C_grid = tuple(sorted(self.C_grid))
        if self.inner_folds < 2:
            raise LearnerError("inner_folds must be at least 2")
        if self.tolerance <= 0:
            raise LearnerError("tolerance must be positive")
        if self.max_iterations < 1:
            raise LearnerError("max_iterations must be at least 1")


@dataclass
class TrainedModel:
    classes: tuple[str, ...]
    weights: np.ndarray  # (d,) for binary, (k, d) for multiclass
    bias: np.ndarray  # (1,) for binary, (k,) for multiclass
    C: float
    space_fingerprint: str
    converged: bool
    n_iter: int

    @property
    def is_binary(self) -> bool:
        return self.weights.ndim == 1

    @property
    def dim(self) -> int:
        return int(self.weights.shape[-1])


@dataclass
class Prediction:
    classes: tuple[str, ...]
    posteriors: np.ndarray

    @property
    def predicted_class(self) -> str:
        return self.classes[int(np.argmax(self.posteriors))]

    def posterior_of(self, cls: str) -> float:
        return float(self.posteriors[self.classes.index(cls)])

    @property
    def positive_posterior(self) -> float:
        """Posterior of the second (positive) class of a binary model."""
        if len(self.classes) != 2:
            raise LearnerError("positive_posterior is only defined for binary predictions")
        return float(self.posteriors[1])


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def binary_objective(
    params: np.ndarray, X, y: np.ndarray, C: float, XT=None
) -> tuple[float, np.ndarray]:
    """Loss and gradient; params = [w_0..w_{d-1}, bias].

    ``XT`` is ``X.T`` made once per fit; by default it is made per call.
    """
    w = params[:-1]
    b = params[-1]
    z = X @ w + b
    # log(1 + e^z) - y*z, computed stably
    loss = float(np.sum(np.logaddexp(0.0, z) - y * z)) + 0.5 / C * float(w @ w)
    r = expit(z) - y
    grad = np.empty_like(params)
    grad[:-1] = (X.T if XT is None else XT) @ r + w / C
    grad[-1] = r.sum()
    return loss, grad


def multiclass_objective(
    params: np.ndarray, X, y_idx: np.ndarray, n_classes: int, C: float, XT=None
) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy; params reshape to (k, d+1), last column = bias.

    ``XT`` is ``X.T`` made once per fit; by default it is made per call.
    """
    n, d = X.shape
    theta = params.reshape(n_classes, d + 1)
    W = theta[:, :-1]
    b = theta[:, -1]
    Z = X @ W.T + b  # (n, k)
    lse = logsumexp(Z, axis=1)
    loss = float(np.sum(lse - Z[np.arange(n), y_idx])) + 0.5 / C * float(np.sum(W * W))
    P = np.exp(Z - lse[:, None])
    P[np.arange(n), y_idx] -= 1.0
    grad = np.empty_like(theta)
    grad[:, :-1] = ((X.T if XT is None else XT) @ P).T + W / C
    grad[:, -1] = P.sum(axis=0)
    return loss, grad.ravel()


def _check_matrix(X) -> None:
    data = X.data if sp.issparse(X) else np.asarray(X)
    if not np.all(np.isfinite(data)):
        raise LearnerError("training matrix contains non-finite values")


def _warn_not_converged(n_iter: int, grad_norm: float, config: TrainConfig) -> None:
    log.warning(
        "optimizer stopped after %d iterations with gradient norm %.3e > %.1e",
        n_iter,
        grad_norm,
        config.tolerance,
    )


def _minimize(fun, x0: np.ndarray, args: tuple, config: TrainConfig):
    result = minimize(
        fun,
        x0,
        args=args,
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": config.max_iterations,
            "gtol": config.tolerance,
            "ftol": 1e-14,
        },
    )
    grad = result.jac
    converged = bool(np.max(np.abs(grad)) <= config.tolerance) or bool(result.success)
    if not converged:
        _warn_not_converged(result.nit, float(np.max(np.abs(grad))), config)
    return result, converged


def train_binary(
    X,
    y: Sequence[int],
    config: TrainConfig,
    classes: tuple[str, str] = ("negative", "positive"),
    C: float | None = None,
    space_fingerprint: str = "",
    x0: np.ndarray | None = None,
) -> TrainedModel:
    """Fit a binary verifier; y holds 0 (negative) / 1 (positive) labels.

    The optimizer starts from ``x0`` ([weights, bias]) or else from zeros.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != X.shape[0]:
        raise LearnerError("label count does not match matrix rows")
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.shape[0]:
        raise LearnerError("training data must contain both classes")
    _check_matrix(X)
    c = float(C if C is not None else config.C)
    if x0 is None:
        x0 = np.zeros(X.shape[1] + 1)
    result, converged = _minimize(binary_objective, x0, (X, y, c, X.T), config)
    return TrainedModel(
        classes=classes,
        weights=result.x[:-1].copy(),
        bias=np.array([result.x[-1]]),
        C=c,
        space_fingerprint=space_fingerprint,
        converged=converged,
        n_iter=int(result.nit),
    )


def train_multiclass(
    X,
    y: Sequence[str],
    config: TrainConfig,
    C: float | None = None,
    space_fingerprint: str = "",
    x0: np.ndarray | None = None,
) -> TrainedModel:
    """Fit a multinomial attributor over the distinct labels in y.

    The optimizer starts from ``x0`` (the (k, d+1) parameters, raveled,
    last column = bias) or else from zeros.
    """
    labels = list(y)
    if len(labels) != X.shape[0]:
        raise LearnerError("label count does not match matrix rows")
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise LearnerError("multiclass training needs at least two classes")
    _check_matrix(X)
    index = {cls: i for i, cls in enumerate(classes)}
    y_idx = np.asarray([index[label] for label in labels], dtype=np.int64)
    c = float(C if C is not None else config.C)
    k, d = len(classes), X.shape[1]
    if x0 is None:
        x0 = np.zeros(k * (d + 1))
    result, converged = _minimize(multiclass_objective, x0, (X, y_idx, k, c, X.T), config)
    theta = result.x.reshape(k, d + 1)
    return TrainedModel(
        classes=classes,
        weights=theta[:, :-1].copy(),
        bias=theta[:, -1].copy(),
        C=c,
        space_fingerprint=space_fingerprint,
        converged=converged,
        n_iter=int(result.nit),
    )


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def _check_row(x, dim: int) -> None:
    if not sp.issparse(x) or x.format != "csr" or x.shape != (1, dim):
        shape = getattr(x, "shape", None)
        raise LearnerError(f"expected a one-row CSR matrix of width {dim}, got {shape}")


def predict_proba(model: TrainedModel, x: sp.csr_matrix, space_fingerprint: str = "") -> Prediction:
    """Posterior distribution over the model's classes for a one-row CSR matrix.

    A nonempty ``space_fingerprint``, the space ``x`` was vectorized in,
    must match the model's one.
    """
    _check_row(x, model.dim)
    if space_fingerprint and model.space_fingerprint not in ("", space_fingerprint):
        raise LearnerError(
            "feature-space fingerprint mismatch: the row was built against a "
            "different space than the model was trained on"
        )
    if model.is_binary:
        score = float(model.weights[x.indices] @ x.data) + float(model.bias[0])
        p = float(expit(score))
        posteriors = np.array([1.0 - p, p])
    else:
        scores = model.weights[:, x.indices] @ x.data + model.bias
        scores = scores - logsumexp(scores)
        posteriors = np.exp(scores)
    return Prediction(classes=model.classes, posteriors=posteriors)


def predict_proba_matrix(model: TrainedModel, X) -> np.ndarray:
    """Posterior matrix (n, k) for a stacked instance matrix."""
    if X.shape[1] != model.dim:
        raise LearnerError(f"matrix dim {X.shape[1]} does not match model dim {model.dim}")
    if model.is_binary:
        z = X @ model.weights + model.bias[0]
        p = expit(z)
        return np.column_stack([1.0 - p, p])
    Z = X @ model.weights.T + model.bias
    Z = Z - logsumexp(Z, axis=1)[:, None]
    return np.exp(Z)


# ---------------------------------------------------------------------------
# Hyperparameter tuning
# ---------------------------------------------------------------------------


# Binary inner CV on at most this many rows fits in Gram space. Set from
# sweeps of inner CV on row subsets of one 1200-row synthetic fold
# (ROADMAP): Gram Newton was 14-16x faster than L-BFGS at 34 rows and
# 1.4-2.1x at 750, but 0.9-1.6x from 900 rows up, where its O(n^3)
# Cholesky per step takes over.
_GRAM_MAX_ROWS = 750

# Columns of a sparse X densified at a time to build K, which bounds the
# dense copy to rows x this many. A sparse product was 35x slower at 600
# rows, because TFIDF rows share most of their columns.
_GRAM_CHUNK_COLUMNS = 2048

_ARMIJO = 1e-4  # sufficient-decrease constant of the Gram Newton line search
_MIN_STEP = 1e-10  # the line search gives up below this step length


def _gram_matrix(X) -> np.ndarray:
    """K = X Xᵀ as a dense array."""
    if not sp.issparse(X):
        return X @ X.T
    K = np.zeros((X.shape[0], X.shape[0]))
    for start in range(0, X.shape[1], _GRAM_CHUNK_COLUMNS):
        block = X[:, start : start + _GRAM_CHUNK_COLUMNS].toarray()
        K += block @ block.T
    return K


def _gram_newton(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    config: TrainConfig,
    alpha: np.ndarray,
    b: float,
) -> tuple[np.ndarray, float]:
    """Minimize ``binary_objective`` over w = Xᵀα, given K = X Xᵀ; returns (α, b).

    By the representer theorem the minimizer lies in the row space of X,
    so the fit runs in the n-dimensional Gram space (Chapelle, "Training
    a Support Vector Machine in the Primal", 2007). Each step is the
    primal Newton step written in α: with W = diag √(p(1−p)) it takes one
    Cholesky factor of B = I + C·WKW, applies (I/C + W²K)⁻¹ by Woodbury,
    and solves for the unregularized bias through a scalar Schur
    complement. A backtracking Armijo search sets the step length. It
    stops when the primal gradient Xᵀ(r + α/C), whose 2-norm is
    √(gᵀKg), and the bias gradient Σr are within ``config.tolerance``,
    or after ``config.max_iterations`` steps, with ``_minimize``'s
    warning.
    """
    n_iter = 0
    while True:
        Ka = K @ alpha
        z = Ka + b
        p = expit(z)
        r = p - y
        r_sum = float(r.sum())  # the bias gradient
        g = r + alpha / C
        Kg = K @ g
        grad_norm = max(float(np.sqrt(max(g @ Kg, 0.0))), abs(r_sum))
        if grad_norm <= config.tolerance:
            return alpha, b
        if n_iter == config.max_iterations:
            _warn_not_converged(n_iter, grad_norm, config)
            return alpha, b
        n_iter += 1

        u = np.sqrt(p * (1.0 - p))
        B = C * (u[:, None] * K * u)
        B.flat[:: B.shape[0] + 1] += 1.0
        # LAPACK directly: scipy.linalg's checking wrappers cost more than
        # the factorization at these sizes
        factor, info = dpotrf(B, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise LearnerError("Gram Newton system is not positive definite")
        solved, _ = dpotrs(factor, np.column_stack([u * Kg, u]), lower=1)
        inv_g = C * (g - C * u * solved[:, 0])  # (I/C + W²K)⁻¹ g
        inv_d = C * u * solved[:, 1]  # (I/C + W²K)⁻¹ W²1
        db = (alpha.sum() - inv_g.sum()) / inv_d.sum()
        da = -(inv_g + db * inv_d)

        Kda = K @ da
        dz = Kda + db
        slope = float(Kg @ da) + r_sum * db
        aKa, aKda, daKda = float(alpha @ Ka), float(da @ Ka), float(da @ Kda)
        f0 = float(np.sum(np.logaddexp(0.0, z) - y * z)) + 0.5 / C * aKa
        t = 1.0
        while True:
            zt = z + t * dz
            ft = float(np.sum(np.logaddexp(0.0, zt) - y * zt))
            ft += 0.5 / C * (aKa + 2.0 * t * aKda + t * t * daKda)
            if ft <= f0 + _ARMIJO * t * slope:
                break
            t *= 0.5
            if t < _MIN_STEP:
                _warn_not_converged(n_iter, grad_norm, config)
                return alpha, b
        alpha = alpha + t * da
        b = b + t * db


def _stratified_fold_ids(y_idx: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    fold = np.empty(y_idx.shape[0], dtype=np.int64)
    for cls in np.unique(y_idx):
        members = np.where(y_idx == cls)[0]
        members = members[rng.permutation(members.shape[0])]
        fold[members] = np.arange(members.shape[0]) % k
    return fold


def inner_cv_scores(
    X,
    y_idx: np.ndarray,
    n_classes: int,
    config: TrainConfig,
    rng: np.random.Generator,
) -> dict[float, float] | None:
    """Pooled cross-validated score per grid value; None when CV is impossible.

    Binary problems are scored with positive-class F1, multiclass with
    macro F1, matching the outer evaluation objective. Fold assignment is
    stratified and shared across the grid. Each inner fold is sliced once
    and fitted along the grid in ascending C, each fit starting from the
    previous C's solution (a warm-started regularization path).

    Binary problems of at most ``_GRAM_MAX_ROWS`` rows fit in Gram space:
    K = X Xᵀ is built once, each inner fold slices its training block and
    its validation-by-training block, ``_gram_newton`` fits (α, b), and a
    validation row is positive when expit(K_va α + b) > 0.5, the threshold
    ``predict_proba_matrix`` applies to w = Xᵀα. This skips the L-BFGS
    wrapper's per-evaluation overhead, which matches the objective's cost
    on small folds. Larger binary problems, where the O(n³) Cholesky per
    Newton step catches up with L-BFGS, and all multiclass problems fit
    with ``train_binary``/``train_multiclass``.
    """
    counts = np.bincount(y_idx, minlength=n_classes)
    min_class = int(counts[counts > 0].min())
    k = min(config.inner_folds, min_class)
    if k < config.inner_folds:
        log.warning(
            "reducing inner folds from %d to %d (smallest class has %d members)",
            config.inner_folds,
            k,
            min_class,
        )
    if k < 2:
        return None
    folds = _stratified_fold_ids(y_idx, k, rng)
    X = sp.csr_matrix(X) if sp.issparse(X) else np.asarray(X)
    gram = n_classes == 2 and X.shape[0] <= _GRAM_MAX_ROWS
    if gram:
        _check_matrix(X)
        K = _gram_matrix(X)

    predicted = {c: np.zeros(y_idx.shape[0], dtype=np.int64) for c in config.C_grid}
    for j in range(k):
        train_mask = folds != j
        y_tr = y_idx[train_mask]
        if np.unique(y_tr).shape[0] < 2:
            continue  # its validation rows stay predicted as class 0
        if gram:
            tr, va = np.flatnonzero(train_mask), np.flatnonzero(~train_mask)
            K_tr, K_va = K[np.ix_(tr, tr)], K[np.ix_(va, tr)]
            y_fit = y_tr.astype(np.float64)
            alpha, b = np.zeros(tr.shape[0]), 0.0
            for c in config.C_grid:
                alpha, b = _gram_newton(K_tr, y_fit, c, config, alpha, b)
                predicted[c][va] = (expit(K_va @ alpha + b) > 0.5).astype(np.int64)
            continue
        X_tr, X_va = X[train_mask], X[~train_mask]
        labels = [str(v) for v in y_tr]
        x0 = None
        for c in config.C_grid:
            if n_classes == 2:
                model = train_binary(X_tr, y_tr, config, C=c, x0=x0)
                x0 = np.concatenate([model.weights, model.bias])
                fold_pred = (predict_proba_matrix(model, X_va)[:, 1] > 0.5).astype(np.int64)
            else:
                model = train_multiclass(X_tr, labels, config, C=c, x0=x0)
                x0 = np.column_stack([model.weights, model.bias]).ravel()
                class_ids = np.array([int(v) for v in model.classes])
                fold_pred = class_ids[np.argmax(predict_proba_matrix(model, X_va), axis=1)]
            predicted[c][~train_mask] = fold_pred

    scores: dict[float, float] = {}
    for c, pred in predicted.items():
        if n_classes == 2:
            scores[c] = f1(ContingencyTable.from_predictions(y_idx.tolist(), pred.tolist()))
        else:
            tables = [
                ContingencyTable.from_predictions(
                    (y_idx == cls).astype(int).tolist(), (pred == cls).astype(int).tolist()
                )
                for cls in range(n_classes)
            ]
            scores[c] = macro_f1(tables)
    return scores


def tune_C(
    X,
    y_idx: Sequence[int],
    config: TrainConfig,
    rng: np.random.Generator,
    n_classes: int = 2,
) -> tuple[float, dict[float, float]]:
    """Pick the grid value with the best inner-CV score; ties go to smaller C.

    Returns the chosen C and the inner-CV score of each grid value, in
    ascending C; the scores are empty when no inner CV ran. A one-value
    grid returns its value, and a class too small for even two stratified
    folds falls back to config.C (with a warning).
    """
    y_idx = np.asarray(y_idx, dtype=np.int64)
    if len(config.C_grid) == 1:
        return config.C_grid[0], {}
    scores = inner_cv_scores(X, y_idx, n_classes, config, rng)
    if scores is None:
        log.warning("inner CV impossible (a class has < 2 members); using C=%g", config.C)
        return config.C, {}
    best_c, best_score = None, -1.0
    for c in config.C_grid:  # ascending, so strict improvement keeps smaller C on ties
        if scores[c] > best_score:
            best_c, best_score = c, scores[c]
    return float(best_c), scores


# ---------------------------------------------------------------------------
# Explanation
# ---------------------------------------------------------------------------


def explain(
    model: TrainedModel, x: sp.csr_matrix, feature_names: Sequence[str], top_k: int = 20
) -> list[tuple[str, float]]:
    """Top contributions weight*value of a binary decision on a one-row CSR
    matrix, by absolute size; ``feature_names`` names every model column.
    """
    if not model.is_binary:
        raise LearnerError("explain is defined for binary models")
    if top_k < 1:
        raise LearnerError(f"top_k must be at least 1, got {top_k}")
    if len(feature_names) != model.dim:
        raise LearnerError(f"{len(feature_names)} feature names for model dim {model.dim}")
    _check_row(x, model.dim)
    contributions = model.weights[x.indices] * x.data
    order = np.argsort(-np.abs(contributions))[:top_k]
    return [(feature_names[int(x.indices[i])], float(contributions[i])) for i in order]
