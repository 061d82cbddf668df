"""L2-regularized logistic regression (binary and multinomial).

The objective is the sum of per-example negative log-likelihoods plus
||w||^2 / (2C); the bias is never regularized. Optimization uses L-BFGS-B
on analytic gradients, which is deterministic for fixed inputs, so any
randomness in the surrounding pipeline comes only from explicit seeds.
The objective/gradient functions are module-level so they can be checked
against finite differences; a fit makes ``X.T`` once and passes it to
every evaluation. Inner cross-validation fits each inner fold along the
C grid in ascending order, starting every fit from the previous C's
solution (the regularization-path warm start of glmnet, Friedman, Hastie
& Tibshirani, 2010); final fits start from zeros.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.special import expit, logsumexp

from .dro import ExtendedVector
from .errors import LearnerError
from .features import SparseVector
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
    instance_id: str
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
        log.warning(
            "optimizer stopped after %d iterations with gradient norm %.3e > %.1e",
            result.nit,
            float(np.max(np.abs(grad))),
            config.tolerance,
        )
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


def _vector_parts(x) -> tuple[str, np.ndarray, np.ndarray, int, str]:
    """(instance_id, indices, values, dim, natural-space fingerprint) of any input."""
    if isinstance(x, SparseVector):
        return x.instance_id, x.indices, x.values, x.dim, x.space_fingerprint
    if isinstance(x, ExtendedVector):
        idx, vals = x.combined()
        return x.instance_id, idx, vals, x.dim, x.natural.space_fingerprint
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise LearnerError("expected a 1-D vector")
    idx = np.nonzero(arr)[0]
    return "", idx, arr[idx], arr.shape[0], ""


def predict_proba(model: TrainedModel, x) -> Prediction:
    """Posterior distribution over the model's classes for one instance."""
    instance_id, idx, vals, dim, fingerprint = _vector_parts(x)
    if dim != model.dim:
        raise LearnerError(f"vector dim {dim} does not match model dim {model.dim}")
    if fingerprint and model.space_fingerprint and fingerprint != model.space_fingerprint:
        raise LearnerError(
            "feature-space fingerprint mismatch: the vector was built against a "
            "different space than the model was trained on"
        )
    if model.is_binary:
        score = float(model.weights[idx] @ vals) + float(model.bias[0])
        p = float(expit(score))
        posteriors = np.array([1.0 - p, p])
    else:
        scores = model.weights[:, idx] @ vals + model.bias
        scores = scores - logsumexp(scores)
        posteriors = np.exp(scores)
    return Prediction(instance_id=instance_id, classes=model.classes, posteriors=posteriors)


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

    predicted = {c: np.zeros(y_idx.shape[0], dtype=np.int64) for c in config.C_grid}
    for j in range(k):
        train_mask = folds != j
        X_tr, y_tr = X[train_mask], y_idx[train_mask]
        X_va = X[~train_mask]
        if np.unique(y_tr).shape[0] < 2:
            continue  # its validation rows stay predicted as class 0
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
) -> float:
    """Pick the grid value with the best inner-CV score; ties go to smaller C.

    Falls back to config.C (with a warning) when some class is too small
    for even two stratified folds.
    """
    y_idx = np.asarray(y_idx, dtype=np.int64)
    if len(config.C_grid) == 1:
        return config.C_grid[0]
    scores = inner_cv_scores(X, y_idx, n_classes, config, rng)
    if scores is None:
        log.warning("inner CV impossible (a class has < 2 members); using C=%g", config.C)
        return config.C
    best_c, best_score = None, -1.0
    for c in config.C_grid:  # ascending, so strict improvement keeps smaller C on ties
        if scores[c] > best_score:
            best_c, best_score = c, scores[c]
    return float(best_c)


# ---------------------------------------------------------------------------
# Explanation
# ---------------------------------------------------------------------------


def explain(
    model: TrainedModel, x: SparseVector, feature_names: Sequence[str], top_k: int = 20
) -> list[tuple[str, float]]:
    """Top contributions weight*value of a binary decision, by absolute size."""
    if not model.is_binary:
        raise LearnerError("explain is defined for binary models")
    if x.dim != model.dim:
        raise LearnerError(f"vector dim {x.dim} does not match model dim {model.dim}")
    contributions = model.weights[x.indices] * x.values
    order = np.argsort(-np.abs(contributions))[:top_k]
    return [(feature_names[int(x.indices[i])], float(contributions[i])) for i in order]

