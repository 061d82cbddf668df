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
of each fold instead, with one loop per C over all inner folds, stacked
and zero-padded (``_gram_newton_stack``). Only its validation
predictions are used. Both solvers stop within the same gradient
tolerance of the one minimizer, so the predictions can differ only for a
validation score that close to zero. Final fits stay on L-BFGS, because
the two solvers' weights differ within that tolerance, and reported
posteriors and ablation scores are pinned tighter than that.

``predict_proba`` and ``explain`` read one instance as a one-row CSR
matrix, the row form that ``features.vectorize_counts`` makes. A model
does not record its feature space; they check only the row's width.
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
from .metrics import ContingencyTable, f1, macro_f1, per_class_tables

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
        converged=converged,
        n_iter=int(result.nit),
    )


def train_multiclass(
    X,
    y: Sequence[str],
    config: TrainConfig,
    C: float | None = None,
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


def predict_proba(model: TrainedModel, x: sp.csr_matrix) -> Prediction:
    """Posterior distribution over the model's classes for a one-row CSR matrix."""
    _check_row(x, model.dim)
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


def _matvecs(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A[f] @ v[f] for every f of a stack; A is (F, p, q), v is (F, q)."""
    return np.matmul(A, v[:, :, None])[:, :, 0]


def _logistic_losses(z: np.ndarray, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Σ log(1 + e^z) − y·z over each fold's own rows, computed stably."""
    return np.where(rows, np.logaddexp(0.0, z) - y * z, 0.0).sum(axis=1)


def _gram_newton_stack(
    K: np.ndarray,
    y: np.ndarray,
    sizes: np.ndarray,
    C: float,
    config: TrainConfig,
    alpha: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ``binary_objective`` over w = Xᵀα for a stack of folds; returns (α, b).

    Fold f has ``sizes[f]`` rows, K[f] = X_f X_fᵀ in its leading
    block and zeros around it, and labels, α (F rows) and b (one per
    fold) to match; its padded rows hold no residual, curvature or loss.
    By the representer theorem the minimizer lies in the row space of X,
    so the fit runs in the n-dimensional Gram space (Chapelle, "Training
    a Support Vector Machine in the Primal", 2007). Each step is the
    primal Newton step written in α: with W = diag √(p(1−p)) it takes one
    Cholesky factor of B = I + C·WKW, applies (I/C + W²K)⁻¹ by Woodbury,
    and solves for the unregularized bias through a scalar Schur
    complement. A backtracking Armijo search sets the step length. A
    fold stops when its primal gradient Xᵀ(r + α/C), whose 2-norm is
    √(gᵀKg), and its bias gradient Σr are within ``config.tolerance``,
    or after ``config.max_iterations`` steps or a step shorter than
    ``_MIN_STEP``, with ``_minimize``'s warning. The matrix-vector
    products and the line search run on all folds at once; the Cholesky
    factor and solves run per fold, on its own rows.
    """
    rows = np.arange(y.shape[1]) < sizes[:, None]
    active = np.ones(y.shape[0], dtype=bool)
    alpha, b = alpha.copy(), b.copy()
    n_iter = 0
    while True:
        Ka = _matvecs(K, alpha)
        z = Ka + b[:, None]
        p = expit(z)
        r = np.where(rows, p - y, 0.0)
        r_sum = r.sum(axis=1)  # the bias gradients
        g = r + alpha / C
        Kg = _matvecs(K, g)
        grad_norm = np.maximum(np.sqrt(np.maximum((g * Kg).sum(axis=1), 0.0)), np.abs(r_sum))
        active &= ~(grad_norm <= config.tolerance)
        if n_iter == config.max_iterations:
            for f in np.flatnonzero(active):
                _warn_not_converged(n_iter, float(grad_norm[f]), config)
            return alpha, b
        if not active.any():
            return alpha, b
        n_iter += 1

        u = np.where(rows, np.sqrt(p * (1.0 - p)), 0.0)
        B = C * (u[:, :, None] * K * u[:, None, :])
        B.reshape(B.shape[0], -1)[:, :: B.shape[1] + 1] += 1.0
        rhs = np.stack([u * Kg, u], axis=2)
        solved = np.zeros_like(rhs)
        for f in np.flatnonzero(active):
            n = sizes[f]
            # LAPACK directly: scipy.linalg's checking wrappers cost more
            # than the factorization at these sizes
            factor, info = dpotrf(B[f, :n, :n], lower=1, clean=0, overwrite_a=1)
            if info != 0:
                raise LearnerError("Gram Newton system is not positive definite")
            solved[f, :n] = dpotrs(factor, rhs[f, :n], lower=1)[0]
        inv_g = C * (g - C * u * solved[:, :, 0])  # (I/C + W²K)⁻¹ g
        inv_d = C * u * solved[:, :, 1]  # (I/C + W²K)⁻¹ W²1
        db = np.zeros_like(b)
        np.divide(alpha.sum(axis=1) - inv_g.sum(axis=1), inv_d.sum(axis=1), out=db, where=active)
        da = np.where(active[:, None], -(inv_g + db[:, None] * inv_d), 0.0)

        Kda = _matvecs(K, da)
        dz = Kda + db[:, None]
        slope = (Kg * da).sum(axis=1) + r_sum * db
        aKa, aKda, daKda = (alpha * Ka).sum(axis=1), (da * Ka).sum(axis=1), (da * Kda).sum(axis=1)
        f0 = _logistic_losses(z, y, rows) + 0.5 / C * aKa
        t = active.astype(np.float64)
        searching = active.copy()
        while True:
            zt = z + t[:, None] * dz
            ft = _logistic_losses(zt, y, rows)
            ft += 0.5 / C * (aKa + 2.0 * t * aKda + t * t * daKda)
            searching &= ~(ft <= f0 + _ARMIJO * t * slope)
            if not searching.any():
                break
            t[searching] *= 0.5
            for f in np.flatnonzero(searching & (t < _MIN_STEP)):
                _warn_not_converged(n_iter, float(grad_norm[f]), config)
                active[f] = searching[f] = False
                t[f] = 0.0
        step = t > 0.0
        alpha[step] += t[step, None] * da[step]
        b[step] += t[step] * db[step]


def _gram_newton(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    config: TrainConfig,
    alpha: np.ndarray,
    b: float,
) -> tuple[np.ndarray, float]:
    """``_gram_newton_stack`` for one fold, given K = X Xᵀ; returns (α, b)."""
    alphas, bs = _gram_newton_stack(
        K[None], y[None], np.array([y.shape[0]]), C, config, alpha[None], np.array([b])
    )
    return alphas[0], float(bs[0])


def _stratified_fold_ids(y_idx: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    fold = np.empty(y_idx.shape[0], dtype=np.int64)
    for cls in np.unique(y_idx):
        members = np.where(y_idx == cls)[0]
        members = members[rng.permutation(members.shape[0])]
        fold[members] = np.arange(members.shape[0]) % k
    return fold


def _gram_cv_predictions(
    K: np.ndarray,
    y_idx: np.ndarray,
    train_masks: list[np.ndarray],
    config: TrainConfig,
    predicted: dict[float, np.ndarray],
) -> None:
    """Binary inner-CV predictions per grid value, written into ``predicted``.

    Each fold's training block of K and its validation-by-training block
    go into zero-padded stacks once. For each C in ascending order, one
    ``_gram_newton_stack`` call fits every fold, starting from the
    previous C's (α, b), and a validation row is positive when
    expit(K_va α + b) > 0.5, the threshold ``predict_proba_matrix``
    applies to w = Xᵀα.
    """
    if not train_masks:
        return
    tr = [np.flatnonzero(mask) for mask in train_masks]
    va = [np.flatnonzero(~mask) for mask in train_masks]
    sizes = np.array([rows.shape[0] for rows in tr])
    va_sizes = np.array([rows.shape[0] for rows in va])
    n_folds, m = len(tr), int(sizes.max())
    K_tr = np.zeros((n_folds, m, m))
    K_va = np.zeros((n_folds, int(va_sizes.max()), m))
    y = np.zeros((n_folds, m))
    for f, (t, v) in enumerate(zip(tr, va)):
        K_tr[f, : t.shape[0], : t.shape[0]] = K[np.ix_(t, t)]
        K_va[f, : v.shape[0], : t.shape[0]] = K[np.ix_(v, t)]
        y[f, : t.shape[0]] = y_idx[t]
    va_rows = np.concatenate(va)
    va_filled = np.arange(K_va.shape[1]) < va_sizes[:, None]
    alpha, b = np.zeros((n_folds, m)), np.zeros(n_folds)
    for c in config.C_grid:
        alpha, b = _gram_newton_stack(K_tr, y, sizes, c, config, alpha, b)
        scores = _matvecs(K_va, alpha) + b[:, None]
        predicted[c][va_rows] = (expit(scores[va_filled]) > 0.5).astype(np.int64)


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

    Binary problems of at most ``_GRAM_MAX_ROWS`` rows fit in Gram space
    (``_gram_cv_predictions``): K = X Xᵀ is built once, and for each C one
    Newton loop fits (α, b) on every inner fold at once, each fold
    stopping on its own. This skips the L-BFGS wrapper's per-evaluation
    overhead, which matches the objective's cost on small folds, and
    makes one set of array calls per Newton step for all folds. Larger
    binary problems, where the O(n³) Cholesky per Newton step catches up
    with L-BFGS, and all multiclass problems fit with
    ``train_binary``/``train_multiclass``.
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
    train_masks = []
    for j in range(k):
        train_mask = folds != j
        if np.unique(y_idx[train_mask]).shape[0] > 1:
            train_masks.append(train_mask)  # else its validation rows stay class 0
    if gram:
        _gram_cv_predictions(K, y_idx, train_masks, config, predicted)
    else:
        for train_mask in train_masks:
            y_tr = y_idx[train_mask]
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
            scores[c] = macro_f1(per_class_tables(y_idx.tolist(), pred.tolist(), range(n_classes)))
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
