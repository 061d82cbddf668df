"""L2-regularized logistic regression (binary and multinomial).

The objective is the sum of per-example negative log-likelihoods plus
||w||^2 / (2C); the bias is never regularized. Every model a caller gets
back (``train_binary``, ``train_multiclass``) is fitted by L-BFGS-B on
analytic gradients, or is a start that L-BFGS-B would return unmoved.
Both are deterministic for fixed inputs, so any randomness in the
surrounding pipeline comes only from explicit seeds.
The objective/gradient functions are module-level so they can be checked
against finite differences; a fit makes ``X.T`` once and passes it to
every evaluation. Each returns the value and the gradient together, and
L-BFGS-B gets them as two callables that share one evaluation per point
(``_minimize``).

Inner cross-validation fits each inner fold along the C grid in
ascending order, starting every fit from the previous C's solution (the
regularization-path warm start of glmnet, Friedman, Hastie & Tibshirani,
2010). Binary inner CV on small matrices (at most ``_GRAM_MAX_ROWS``
rows) runs Newton's method in the Gram space of each fold instead, with
one loop per C over all inner folds, stacked and zero-padded
(``_gram_newton_stack``). Both solvers stop within the same gradient
tolerance of the one minimizer, so the predictions can differ only for a
validation score that close to zero; Newton also stops at working
precision, where its line search can no longer resolve a step's
decrease, so a tolerance below that costs no extra steps. Every other
fit, final fits included, runs L-BFGS-B, and one of fewer rows than
columns (up to ``_BASIS_MAX_ROWS``) runs it in an orthonormal basis Q of
X's row space (``_fit``), of at most n dimensions instead of d + 1. The
iterates stay in that space (the representer theorem; Kimeldorf & Wahba,
1971), and Q keeps every inner product and 2-norm that L-BFGS-B takes,
so they are Q times the full-space iterates up to rounding. One ∞-norm
stop test decides convergence in either space, on the full-space
gradient: ``_fit`` runs it on the start and ``_minimize`` after each
iteration, where L-BFGS-B would run its own. So ``converged`` and
``n_iter`` (L-BFGS-B iterations) keep one meaning, and a start that
passes builds no basis and calls no L-BFGS-B. A start whose gradient
is already at working precision, √(eps·|f|), and from which L-BFGS-B's
first line search finds no decrease, counts as converged at iteration 0.

A binary fit may take its rows as a ``Gram``: K = X Xᵀ given, summed
from per-block Grams (``block_grams``) for a pool of feature blocks, and
Xᵀ products on a larger matrix whose columns hold the pool's. It runs in
the row basis of that K from dual parameters [α, b], so no copy of the
pool's columns is made, and returns the weights w = Xᵀα over the pool's
columns, as any fit does. ``tune_C`` runs Gram-space inner CV on the
same K.

After Gram-space inner CV, ``tune_C`` also fits all rows at the chosen
C with the Newton solver on the K it already built. That fit starts
warm, from the inner folds' solutions at the chosen C (each row's mean α
over the folds that trained it, and their mean bias), and the final fit
starts from its solution, w = Xᵀα. There the start test usually passes
at once, and ``_fit`` returns the start, as L-BFGS-B would at iteration
0. Every other final fit starts from zeros: a start that close to the
minimizer moves fitted weights by up to the tolerance, and reported
ablation scores are pinned tighter than that.

``scipy.optimize`` is imported at the first L-BFGS-B fit (``minimize``),
not with this module, since a command that runs none need not pay for it.

``predict_proba`` and ``explain`` read one instance as a one-row CSR
matrix, the row form that ``features.vectorize_counts`` makes. A model
does not record its feature space; they check only the row's width.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit

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
        # NaN fails every comparison, so each check asks for what is valid
        if not 0 < self.C < math.inf:
            raise LearnerError(f"C must be positive and finite, got {self.C}")
        if not self.C_grid or not all(0 < c < math.inf for c in self.C_grid):
            raise LearnerError("C_grid must be a nonempty list of positive, finite values")
        repeated = sorted({c for c in self.C_grid if self.C_grid.count(c) > 1})
        if repeated:
            raise LearnerError(f"C_grid repeats {', '.join(map(str, repeated))}")
        self.C_grid = tuple(sorted(self.C_grid))
        if self.inner_folds < 2:
            raise LearnerError("inner_folds must be at least 2")
        if not 0 < self.tolerance < math.inf:
            raise LearnerError(f"tolerance must be positive and finite, got {self.tolerance}")
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


@dataclass(frozen=True, eq=False)
class Gram:
    """A fit's n training rows known by K = X Xᵀ, not by their entries.

    The rows lie over ``columns`` of a larger matrix whose transpose is
    ``XT``, so Xᵀ V is ``(XT @ V)[columns]`` and a pool of feature blocks
    needs no copy of its columns. A binary fit on a Gram runs in the row
    basis of K (``_fit``) and starts from dual parameters [α, b].
    """

    K: np.ndarray
    XT: sp.spmatrix
    columns: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.K.shape[0], self.columns.shape[0]

    def rmatmul(self, V: np.ndarray) -> np.ndarray:
        """Xᵀ V for the training rows, V with one row per row."""
        return (self.XT @ V)[self.columns]


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def _logsumexp(Z: np.ndarray) -> np.ndarray:
    """log Σ exp(Z) over the last axis, shifted by its maximum where that is finite.

    ``scipy.special.logsumexp`` computes the same to rounding, but its
    array-API dispatch costs more than the arithmetic on these small arrays.
    """
    top = Z.max(axis=-1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    return np.log(np.exp(Z - top).sum(axis=-1)) + top[..., 0]


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
    lse = _logsumexp(Z)
    loss = float(np.sum(lse - Z[np.arange(n), y_idx])) + 0.5 / C * float(np.sum(W * W))
    P = np.exp(Z - lse[:, None])
    P[np.arange(n), y_idx] -= 1.0
    grad = np.empty_like(theta)
    grad[:, :-1] = ((X.T if XT is None else XT) @ P).T + W / C
    grad[:, -1] = P.sum(axis=0)
    return loss, grad.ravel()


def _check_matrix(X) -> None:
    if isinstance(X, Gram):
        data = X.K
    else:
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


def _full_norm(g: np.ndarray, to_full, tolerance: float, size: int) -> float:
    """The ∞-norm of ``to_full(g)`` in the full space of ``size`` parameters,
    or inf, unmapped, where ``g`` is too long to pass a ``tolerance`` test."""
    # the basis keeps 2-norms, and ‖v‖∞ ≥ ‖v‖₂/√len(v)
    if g @ g > tolerance * tolerance * size:
        return math.inf
    return float(np.max(np.abs(to_full(g))))


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported at its first call, so that a
    command whose fits all stop at their start or on the Newton path never
    loads ``scipy.optimize``."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


def _minimize(fun, x0: np.ndarray, args: tuple, config: TrainConfig, to_full, size: int):
    """L-BFGS-B on ``fun(x, *args)`` from ``x0``; returns (result, converged).

    ``fun`` returns the value and the gradient together, and runs once per
    point: scipy gets them as two callables that read one memo, keyed by
    the point's bytes, since scipy passes each callable its own copy of
    the point. With ``jac=True`` scipy would add a second cache, whose
    array comparisons and copies cost about as much as ``fun`` on a small
    fit. The iterates, ``nit`` and ``nfev`` are those of ``jac=True``.

    ``to_full`` maps a gradient of ``fun`` to the problem's full space of
    ``size`` parameters: the identity, or ``_RowBasis.params``. The ∞-norm
    stop test runs there (``_full_norm``), after each iteration in a
    callback, on the memo's gradient at the new iterate, where L-BFGS-B
    would run its own (``gtol`` 0 turns that off). The caller has tested
    the start. A run the test stops keeps the norm the test took, with no
    second ``to_full``. A run whose first line search fails from a start
    already at working precision ends converged at iteration 0.
    """
    tolerance = config.tolerance
    key = value = grad = None  # the memo: the last point's bytes, f and ∇f there
    stopped = None  # the full-space ∞-norm at the iterate where the test stopped

    def evaluate(x: np.ndarray) -> None:
        nonlocal key, value, grad
        point = x.tobytes()
        if point != key:
            value, grad = fun(x, *args)
            key = point

    def objective(x: np.ndarray) -> float:
        evaluate(x)
        return value

    def gradient(x: np.ndarray) -> np.ndarray:
        evaluate(x)
        return grad

    def callback(intermediate_result) -> None:
        nonlocal stopped
        norm = _full_norm(gradient(intermediate_result.x), to_full, tolerance, size)
        if norm <= tolerance:
            stopped = norm
            raise StopIteration

    options = {"maxiter": config.max_iterations, "gtol": 0.0, "ftol": 1e-14}
    result = minimize(
        objective, x0, jac=gradient, method="L-BFGS-B", options=options, callback=callback
    )
    norm = float(np.max(np.abs(to_full(result.jac)))) if stopped is None else stopped
    # Near a minimizer, f resolves no decrease once the gradient is within
    # about √(eps·|f|) (``_gram_newton_stack`` stops there). A start that
    # close, from which the first line search finds no decrease, is a
    # minimizer to working precision: a final fit's Newton start is, at a
    # tolerance below about 1e-9. A failure from any other start is not.
    converged = norm <= tolerance or bool(result.success) or (
        result.nit == 0
        and result.message.startswith("ABNORMAL")
        and norm <= math.sqrt(_EPS * max(1.0, abs(float(result.fun))))
    )
    if not converged:
        _warn_not_converged(result.nit, norm, config)
    return result, converged


class _RowBasis:
    """An orthonormal basis Q = XᵀB of the row space of an n × d matrix X,
    from the eigendecomposition of K = X Xᵀ, built or given.

    With K = X Xᵀ = V Λ Vᵀ over the eigenvalues above λ_max·n·eps,
    B = V Λ^(-1/2), so QᵀQ = BᵀKB = I and X Q = K B = V Λ^(1/2) = M.
    Parameters are (k, d+1) over X's columns and (k, r+1) in the basis,
    raveled, last column = bias, which the maps pass through. X is a
    matrix, or a ``Gram`` whose K is given; a Gram's parameters going into
    the basis are dual, [α, b] with w = Xᵀα, so that X w = K α, and those
    coming out are [w, b] over its columns.
    """

    def __init__(self, X):
        if isinstance(X, Gram):
            K, self.scores, self.XT = X.K, X.K.__matmul__, X.rmatmul
            self.width = X.shape[0]  # of a parameter row's weights: α over the rows
        else:
            K, self.scores, self.XT = _gram_matrix(X), X.__matmul__, X.T.__matmul__
            self.width = X.shape[1]
        lam, V = np.linalg.eigh(K)
        kept = lam > lam[-1] * lam.shape[0] * np.finfo(np.float64).eps
        root = np.sqrt(lam[kept])
        self.B = V[:, kept] / root
        self.M = V[:, kept] * root

    def coordinates(self, params: np.ndarray) -> np.ndarray:
        """[Qᵀw, b] = [Bᵀ(X w), b] for each row [w, b] of ``params``."""
        theta = params.reshape(-1, self.width + 1)
        A = self.scores(theta[:, :-1].T).T @ self.B
        return np.column_stack([A, theta[:, -1]]).ravel()

    def params(self, coordinates: np.ndarray) -> np.ndarray:
        """[Q a, b] = [Xᵀ(B a), b] for each row [a, b] of ``coordinates``."""
        theta = coordinates.reshape(-1, self.M.shape[1] + 1)
        W = self.XT(self.B @ theta[:, :-1].T).T
        return np.column_stack([W, theta[:, -1]]).ravel()


# Fits of at most this many rows, and fewer rows than columns, run in
# the row-space basis. Where the two meet: on row subsets of a 600-row
# DRO fold with 1975 columns (ROADMAP), one binary fit from zeros at
# C ∈ {0.1, 1, 100} took 1.2-1.9x less time in the basis at 200-250 rows,
# 0.8-1.15x at 300 and 0.44-0.66x at 600, where building K and its
# eigendecomposition costs more than the smaller L-BFGS-B saves.
_BASIS_MAX_ROWS = 250


def fits_in_row_basis(n: int, d: int) -> bool:
    """Whether a fit of ``n`` rows and ``d`` columns runs in a row basis (``_fit``)."""
    return n <= _BASIS_MAX_ROWS and n < d


def _fit(fun, X, args: tuple, x0: np.ndarray, config: TrainConfig) -> tuple[np.ndarray, bool, int]:
    """L-BFGS-B on ``fun(params, X, *args, X.T)`` from ``x0``; params are
    (k, d+1) raveled, last column = bias. Returns (params, converged, n_iter).

    A start whose gradient is within ``config.tolerance`` in ∞-norm comes
    back as given, with ``n_iter`` 0: L-BFGS-B's first test would stop it
    before any step. Small fits with fewer rows than columns
    (``fits_in_row_basis``) then run in an orthonormal basis Q of X's row
    space (``_RowBasis``), which holds every iterate from a start in it
    (the representer theorem): the same objective on the n × r matrix
    M = X Q, from the start's coordinates. Q keeps every inner product and
    2-norm L-BFGS-B takes, so the iterates are Q times the full-space ones,
    up to rounding. Only the ∞-norm test depends on the basis, and
    ``_minimize`` runs it on the full-space gradient in every fit, so
    ``n_iter`` and ``converged`` keep their meaning. A start outside the
    row space is projected onto it, where the minimizer lies.

    X may be a ``Gram``, given by K and Xᵀ products only, which its caller
    makes only for a fit in the row basis. Its fit runs in the basis from
    dual parameters x0 = [α, b] per class, and the start test runs on their
    coordinates' gradient, mapped to full space only if its 2-norm could
    pass (``_full_norm``).
    """
    n, d = X.shape
    gram = isinstance(X, Gram)
    if not gram:
        XT = X.T
        if np.max(np.abs(fun(x0, X, *args, XT)[1])) <= config.tolerance:
            return x0, True, 0
        if not fits_in_row_basis(n, d):
            result, converged = _minimize(fun, x0, (X, *args, XT), config, lambda g: g, x0.shape[0])
            return result.x, converged, int(result.nit)
    basis = _RowBasis(X)
    args = (basis.M, *args, basis.M.T)
    start = basis.coordinates(x0)
    size = x0.shape[0] // (basis.width + 1) * (d + 1)
    tolerance = config.tolerance
    if gram and _full_norm(fun(start, *args)[1], basis.params, tolerance, size) <= tolerance:
        x, converged, n_iter = start, True, 0
    else:
        result, converged = _minimize(fun, start, args, config, basis.params, size)
        x, n_iter = result.x, int(result.nit)
    return basis.params(x), converged, n_iter


def train_binary(
    X,
    y: Sequence[int],
    config: TrainConfig,
    classes: tuple[str, str] = ("negative", "positive"),
    C: float | None = None,
    x0: np.ndarray | None = None,
) -> TrainedModel:
    """Fit a binary verifier; y holds 0 (negative) / 1 (positive) labels.

    The optimizer starts from ``x0`` ([weights, bias]) or else from zeros
    (``_fit``). X may be a ``Gram``; then ``x0`` is [α, bias] over its rows.
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
        x0 = np.zeros(X.shape[0 if isinstance(X, Gram) else 1] + 1)
    x, converged, n_iter = _fit(binary_objective, X, (y, c), x0, config)
    return TrainedModel(
        classes=classes,
        weights=x[:-1].copy(),
        bias=np.array([x[-1]]),
        converged=converged,
        n_iter=n_iter,
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
    last column = bias) or else from zeros (``_fit``).
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
    x, converged, n_iter = _fit(multiclass_objective, X, (y_idx, k, c), x0, config)
    theta = x.reshape(k, d + 1)
    return TrainedModel(
        classes=classes,
        weights=theta[:, :-1].copy(),
        bias=theta[:, -1].copy(),
        converged=converged,
        n_iter=n_iter,
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
        scores = scores - _logsumexp(scores)
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
    Z = Z - _logsumexp(Z)[:, None]
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
_EPS = np.finfo(np.float64).eps


def _gram_matrix(X, scale: np.ndarray | None = None) -> np.ndarray:
    """K = X Xᵀ as a dense array, X's columns first multiplied by ``scale`` if given."""
    if not sp.issparse(X):
        X = X if scale is None else X * scale
        return X @ X.T

    def dense(columns: sp.spmatrix, span: slice) -> np.ndarray:
        block = columns.toarray()
        return block if scale is None else block * scale[span]

    if X.shape[1] <= _GRAM_CHUNK_COLUMNS:  # one block: no column slicing
        block = dense(X, slice(None))
        return block @ block.T
    K = np.zeros((X.shape[0], X.shape[0]))
    for start in range(0, X.shape[1], _GRAM_CHUNK_COLUMNS):
        span = slice(start, start + _GRAM_CHUNK_COLUMNS)
        block = dense(X[:, span], span)
        K += block @ block.T
    return K


@dataclass(frozen=True, eq=False)
class BlockGrams:
    """A fold's training rows' Gram matrices, one per block of columns,
    and the rows' transpose ``XT`` (``block_grams``).
    """

    blocks: list[np.ndarray]
    XT: sp.spmatrix

    def gram(self, kept: Sequence[int], columns: np.ndarray) -> Gram:
        """The rows over the ``kept`` blocks, whose columns are ``columns``:
        K sums those blocks' inner products, in block order.
        """
        K = self.blocks[kept[0]].copy()
        for i in kept[1:]:
            K += self.blocks[i]
        return Gram(K, self.XT, columns)


def block_grams(X: sp.csr_matrix, offsets: Sequence[tuple[int, int]]) -> BlockGrams:
    """K_b = X_b X_bᵀ per block of columns [start, end), each built as
    ``_gram_matrix`` builds K.
    """
    return BlockGrams([_gram_matrix(X[:, start:end]) for start, end in offsets], X.T)


def _matvecs(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A[f] @ v[f] for every f of a stack; A is (F, p, q), v is (F, q)."""
    return np.matmul(A, v[:, :, None])[:, :, 0]


def _logistic_losses(z: np.ndarray, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Σ log(1 + e^z) − y·z over each fold's own rows (1.0 in ``rows``), computed stably."""
    return ((np.logaddexp(0.0, z) - y * z) * rows).sum(axis=1)


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
    √(gᵀKg), and its bias gradient Σr are within ``config.tolerance``.
    It also stops, converged to working precision, when its Newton
    decrement is within eps times the size of the objective's terms: the
    objective values the line search compares cannot resolve a smaller
    decrease, and below it steps stop making progress (near a gradient of
    √(eps·f)). Otherwise it stops after ``config.max_iterations`` steps
    or a step shorter than ``_MIN_STEP``, with ``_minimize``'s warning.

    The matrix-vector products and the line search run on all folds at
    once; the Cholesky factor and solves run per fold, on its own rows.
    At these sizes a step costs its number of array calls, not its
    arithmetic, so K·α is carried from step to step (updated by t·K·dα),
    as are the scores z, αᵀKα and the objective at the point the line
    search accepted; padded rows are masked by one multiplication, and
    the solves write into buffers made once per call.
    """
    rows = (np.arange(y.shape[1]) < sizes[:, None]).astype(np.float64)
    active = np.ones(y.shape[0], dtype=bool)
    alpha, b = alpha.copy(), b.copy()
    Ka = _matvecs(K, alpha)
    z = Ka + b[:, None]
    aKa = (alpha * Ka).sum(axis=1)
    f0 = _logistic_losses(z, y, rows) + 0.5 / C * aKa
    rhs = np.empty(y.shape + (2,))
    solved = np.zeros_like(rhs)  # a fold's padded rows stay zero
    n_iter = 0
    while True:
        p = expit(z)
        r = (p - y) * rows
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

        u = np.sqrt(p * (1.0 - p)) * rows
        Cu = C * u
        B = Cu[:, :, None] * K
        B *= u[:, None, :]
        B.reshape(B.shape[0], -1)[:, :: B.shape[1] + 1] += 1.0
        np.multiply(u, Kg, out=rhs[:, :, 0])
        rhs[:, :, 1] = u
        for f in np.flatnonzero(active):
            n = sizes[f]
            # LAPACK directly: scipy.linalg's checking wrappers cost more
            # than the factorization at these sizes
            factor, info = dpotrf(B[f, :n, :n], lower=1, clean=0, overwrite_a=1)
            if info != 0:
                raise LearnerError("Gram Newton system is not positive definite")
            solved[f, :n] = dpotrs(factor, rhs[f, :n], lower=1)[0]
        inv_g = C * (g - Cu * solved[:, :, 0])  # (I/C + W²K)⁻¹ g
        inv_d = Cu * solved[:, :, 1]  # (I/C + W²K)⁻¹ W²1
        db = np.zeros_like(b)
        np.divide(alpha.sum(axis=1) - inv_g.sum(axis=1), inv_d.sum(axis=1), out=db, where=active)
        da = np.where(active[:, None], -(inv_g + db[:, None] * inv_d), 0.0)

        Kda = _matvecs(K, da)
        dz = Kda + db[:, None]
        slope = (Kg * da).sum(axis=1) + r_sum * db
        # −slope is the Newton decrement. Once it is within eps times the
        # size of f's terms (log(1 + e^z) and y·z cancel where y = 1 and
        # z ≫ 0), the f values the line search compares cannot resolve the
        # step's decrease, and the fold has converged to working precision.
        active &= -slope > _EPS * (f0 + (y * np.abs(z)).sum(axis=1))
        if not active.any():
            return alpha, b
        aKda, daKda = (da * Ka).sum(axis=1), (da * Kda).sum(axis=1)
        t = active.astype(np.float64)
        searching = active.copy()
        while True:
            zt = z + t[:, None] * dz
            aKa_t = aKa + 2.0 * t * aKda + t * t * daKda
            ft = _logistic_losses(zt, y, rows) + 0.5 / C * aKa_t
            searching &= ~(ft <= f0 + _ARMIJO * t * slope)
            if not searching.any():
                break
            t[searching] *= 0.5
            for f in np.flatnonzero(searching & (t < _MIN_STEP)):
                _warn_not_converged(n_iter, float(grad_norm[f]), config)
                active[f] = searching[f] = False
                t[f] = 0.0
        alpha += t[:, None] * da
        b += t * db
        Ka += t[:, None] * Kda
        z, aKa, f0 = zt, aKa_t, ft


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


@dataclass(frozen=True)
class _GramPath:
    """What Gram-space inner CV leaves for the full-data fit: K = X Xᵀ, each
    inner fold's training rows, and the folds' stacked (α, b) per grid value.
    """

    K: np.ndarray
    train_rows: list[np.ndarray]
    solutions: dict[float, tuple[np.ndarray, np.ndarray]]

    def start(self, C: float) -> tuple[np.ndarray, float]:
        """A full-data start at ``C``: each row's mean α over the inner folds
        that trained it, and the folds' mean bias; zeros when no fold trained.

        At a fold's minimizer α is, up to K's null space, −C times its
        rows' residuals, which the full data changes little, so the
        full-data Newton fit starts close to its own minimizer.
        """
        n = self.K.shape[0]
        if not self.train_rows:
            return np.zeros(n), 0.0
        alpha, b = self.solutions[C]
        total, count = np.zeros(n), np.zeros(n)
        for f, rows in enumerate(self.train_rows):
            total[rows] += alpha[f, : rows.shape[0]]
            count[rows] += 1.0
        return np.divide(total, count, out=total, where=count > 0), float(b.mean())


def _gram_cv_predictions(
    K: np.ndarray,
    y_idx: np.ndarray,
    train_masks: list[np.ndarray],
    config: TrainConfig,
    predicted: dict[float, np.ndarray],
) -> _GramPath:
    """Binary inner-CV predictions per grid value, written into ``predicted``;
    returns the folds' solutions along the grid.

    Each fold's training block of K and its validation-by-training block
    go into zero-padded stacks once. For each C in ascending order, one
    ``_gram_newton_stack`` call fits every fold, starting from the
    previous C's (α, b), and a validation row is positive when
    expit(K_va α + b) > 0.5, the threshold ``predict_proba_matrix``
    applies to w = Xᵀα.
    """
    tr = [np.flatnonzero(mask) for mask in train_masks]
    path = _GramPath(K, tr, {})
    if not train_masks:
        return path
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
        path.solutions[c] = (alpha, b)
        scores = _matvecs(K_va, alpha) + b[:, None]
        predicted[c][va_rows] = (expit(scores[va_filled]) > 0.5).astype(np.int64)
    return path


def _inner_cv(
    X,
    y_idx: np.ndarray,
    n_classes: int,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[dict[float, float] | None, _GramPath | None]:
    """Pooled cross-validated score per grid value, None when CV is impossible,
    and the Gram path when the scores came from it.

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
        return None, None
    folds = _stratified_fold_ids(y_idx, k, rng)
    if not isinstance(X, Gram):
        X = sp.csr_matrix(X) if sp.issparse(X) else np.asarray(X)
    predicted = {c: np.zeros(y_idx.shape[0], dtype=np.int64) for c in config.C_grid}
    train_masks = []
    for j in range(k):
        train_mask = folds != j
        if np.unique(y_idx[train_mask]).shape[0] > 1:
            train_masks.append(train_mask)  # else its validation rows stay class 0
    path = None
    if n_classes == 2 and X.shape[0] <= _GRAM_MAX_ROWS:
        _check_matrix(X)
        K = X.K if isinstance(X, Gram) else _gram_matrix(X)
        path = _gram_cv_predictions(K, y_idx, train_masks, config, predicted)
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
    return scores, path


def tune_C(
    X,
    y_idx: Sequence[int],
    config: TrainConfig,
    seed: int,
    n_classes: int = 2,
) -> tuple[float, dict[float, float], tuple[np.ndarray, float] | None]:
    """Pick the grid value with the best inner-CV score; ties go to smaller C.

    Inner CV assigns its folds with ``np.random.default_rng(seed)``, made
    after the one-value return: a one-value grid makes no generator.

    Returns the chosen C, the inner-CV score of each grid value in
    ascending C, and a start for the final fit: when inner CV ran in Gram
    space, the full-data (α, b) at the chosen C, fitted by
    ``_gram_newton`` on the K inner CV built, so that w = Xᵀα; else None.
    That Newton fit starts from the inner folds' solutions at the chosen
    C (``_GramPath.start``), a few steps from its minimizer, or from
    zeros when no inner fold trained.
    The scores are empty when no inner CV ran. A one-value grid returns
    its value, and a class too small for even two stratified folds falls
    back to config.C (with a warning).
    """
    y_idx = np.asarray(y_idx, dtype=np.int64)
    if len(config.C_grid) == 1:
        return config.C_grid[0], {}, None
    scores, path = _inner_cv(X, y_idx, n_classes, config, np.random.default_rng(seed))
    if scores is None:
        log.warning("inner CV impossible (a class has < 2 members); using C=%g", config.C)
        return config.C, {}, None
    best_c, best_score = None, -1.0
    for c in config.C_grid:  # ascending, so strict improvement keeps smaller C on ties
        if scores[c] > best_score:
            best_c, best_score = c, scores[c]
    if path is None:
        return float(best_c), scores, None
    start = _gram_newton(path.K, y_idx.astype(np.float64), best_c, config, *path.start(best_c))
    return float(best_c), scores, start


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
