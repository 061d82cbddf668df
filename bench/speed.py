"""Fixed reference work that gauges the machine's speed between timed repetitions.

On a shared host the same repetition can run twice as slowly for minutes
at a time, while the work done stays the same. Timing a fixed piece of
work of the same kind right before and right after each repetition, in
the same process and thread, gives the speed the repetition ran at. The
work uses numpy, scipy and the standard library only, never stylauth, so
no change to stylauth can change it.

The reference work has three parts, each shaped like one of stylauth's
hot loops on the benchmark's inputs:

- ``fits()``: L-BFGS logistic fits on a sparse matrix, five folds over a
  seven-value C grid, as in binary C tuning;
- ``sampling()``: per-feature multinomial draws, as in DRO sampling;
- ``text()``: tokenizing, masking and counting character n-grams, as in
  feature extraction.
"""

from __future__ import annotations

import re
import time
from collections import Counter

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.special import expit

import synth

C_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
LATENT_DIM = 64

_rng = np.random.default_rng(20250105)
_X = sp.random(30, 1400, density=0.25, format="csr", random_state=_rng, dtype=np.float64)
_Y = (np.arange(30) % 3 == 0).astype(np.float64)
_FOLDS = np.arange(30) % 5
_PROFILES = [
    (np.sort(_rng.choice(LATENT_DIM, size=8, replace=False)), _rng.dirichlet(np.ones(8)))
    for _ in range(_X.shape[1])
]
_TEXT = synth.make_text(np.random.default_rng(7), synth.STYLES[0], 1500)
_TOKEN_RE = re.compile(r"[^\W\d_]+|\S")
_LISTED = set(synth.FUNCTION_WORDS)


def _objective(params, X, y, C):
    w, b = params[:-1], params[-1]
    z = X @ w + b
    loss = float(np.sum(np.logaddexp(0.0, z) - y * z)) + 0.5 / C * float(w @ w)
    r = expit(z) - y
    grad = np.empty_like(params)
    grad[:-1] = X.T @ r + w / C
    grad[-1] = r.sum()
    return loss, grad


def fits() -> None:
    for c in C_GRID:
        for j in range(5):
            train = _FOLDS != j
            minimize(_objective, np.zeros(_X.shape[1] + 1), args=(_X[train], _Y[train], c),
                     jac=True, method="L-BFGS-B",
                     options={"maxiter": 1000, "gtol": 1e-6, "ftol": 1e-14})


def sampling() -> None:
    rng = np.random.default_rng(0)
    for row in range(12):
        v = _X.getrow(row)
        counts = np.zeros(LATENT_DIM)
        draws = rng.multinomial(400, v.data / v.data.sum())
        for pos in np.nonzero(draws)[0]:
            idx, probs = _PROFILES[int(v.indices[pos])]
            counts[idx] += rng.multinomial(int(draws[pos]), probs)


def text() -> None:
    words = _TOKEN_RE.findall(_TEXT)
    masked = " ".join(w if w in _LISTED or not w[0].isalpha() else "*" * len(w) for w in words)
    for s in (_TEXT, masked):
        counts: Counter[str] = Counter()
        for n in (1, 2, 3):
            for i in range(len(s) - n + 1):
                counts[s[i : i + n]] += 1
    Counter(len(w) for w in words)


# (part, times) done by reference_seconds(), and the seconds that takes at
# the reference speed: about its median on the 2-vCPU VM the benchmark was
# defined on.
REFERENCE_WORK = ((fits, 2), (sampling, 10), (text, 4))
REFERENCE_S = 0.75


def reference_seconds() -> float:
    """Seconds to do the reference work once, in the calling thread."""
    start = time.perf_counter()
    for part, times in REFERENCE_WORK:
        for _ in range(times):
            part()
    return time.perf_counter() - start
