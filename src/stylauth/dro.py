"""Distributional random oversampling (DRO).

Rows of the natural TFIDF matrix (CSR, as ``vectorize_counts`` makes
it) are extended with a latent block whose coordinates index training
instances. Every natural feature f carries a categorical profile pi_f
over those latent indices, proportional to f's weight in each training
instance; features unseen in training fall back to a uniform profile.
DRO (Moreo, Esuli & Sebastiani, SIGIR 2016) extends a row of weights w
by drawing m feature occurrences from w / sum(w), m being the row's raw
occurrence count, then one latent index from each drawn feature's
profile. Each of those draws is independently categorical with the
row's mixture p = sum_f (w_f / sum(w)) pi_f, so the latent counts are
one Multinomial(m, p) draw, which is L2-normalized into the latent
block. Profiles do not record their space.

``latent_distributions`` gives the mixtures of many rows at once. For
the training rows themselves they are the rows of X D^-1 X^T scaled to
sum to 1, D being the diagonal of X's column sums: the Gram matrix of
X D^-1/2, built densely as the learner builds every Gram matrix
(``learner._gram_matrix``). A single row, at test time,
stays the one-row CSR matrix it was vectorized as: ``extend`` passes it
to ``sample_latent_counts`` and that to ``latent_distributions``.

Because a row can be re-extended with fresh randomness as often as
desired, minority-class training examples can be multiplied: an
extended example keeps its source's row index, so a synthetic copy's
natural block is its source's row, and only the latent block differs.
Negatives are extended exactly once, so only the positive class grows.
All randomness is derived from a master seed plus (instance id, replica
index), which makes the extended dataset byte-identical across runs and
thread schedules.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DroError
from .learner import _gram_matrix
from .rng import spawn_rng


@dataclass
class DroConfig:
    """Oversampling parameters.

    The latent block has one coordinate per training instance, and each
    extension draws as many samples as the row's own raw occurrence
    count, so longer texts get lower-variance latent blocks.
    """

    target_positive_ratio: float = 0.20

    def __post_init__(self) -> None:
        if not (0.0 < self.target_positive_ratio < 1.0):
            raise DroError(
                f"target_positive_ratio must be in (0, 1), got {self.target_positive_ratio}"
            )


@dataclass
class DistributionalProfiles:
    """Per-feature categorical distributions over latent indices.

    Feature f's profile is column f of the training matrix (one row per
    latent index) divided by ``column_sums[f]``; a column summing to 0
    has the uniform profile over all latent indices instead. No profile
    is stored apart from the matrix.
    """

    training: sp.csr_matrix
    column_sums: np.ndarray

    @property
    def latent_dim(self) -> int:
        return self.training.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.training.shape[1]

    def profile(self, feature: int) -> tuple[np.ndarray, np.ndarray] | None:
        """(latent indices, probabilities) for one feature; None => uniform fallback."""
        if not (0 <= feature < self.feature_dim):
            raise DroError(f"feature index {feature} out of range")
        if self.column_sums[feature] <= 0:
            return None
        column = self.training[:, [feature]].toarray().ravel()
        indices = np.flatnonzero(column)
        probs = column[indices] / self.column_sums[feature]
        for array in (indices, probs):
            array.flags.writeable = False
        return indices, probs


def fit_profiles(X) -> DistributionalProfiles:
    """Profiles of the natural training matrix (rows = instances).

    The latent space has one dimension per training instance. A CSR
    matrix is kept as it is, not copied. Each column is summed on its
    own, so a profile is bitwise its column divided by its own sum.
    """
    if X.shape[0] == 0:
        raise DroError("cannot fit profiles on an empty training matrix")
    if not (sp.issparse(X) and X.format == "csr"):
        X = sp.csr_matrix(X, dtype=np.float64)
    if X.nnz and X.data.min() < 0:
        raise DroError("profiles require nonnegative feature weights")
    return DistributionalProfiles(X, np.asarray(X.tocsc().sum(axis=0), dtype=np.float64).ravel())


def latent_distributions(rows, profiles: DistributionalProfiles) -> np.ndarray:
    """Each sparse row's mixture of profiles, sum_f (w_f / sum(w)) pi_f, densely.

    Rows have the profiles' features as columns. A feature unseen in
    training spreads its share uniformly, and a zero row gets zeros.
    ``profiles.training`` itself takes the symmetric Gram product
    (``learner._gram_matrix``); other rows take one sparse product with it.
    """
    train, sums = profiles.training, profiles.column_sums
    trained = sums > 0
    if rows is train:
        scale = np.divide(1.0, np.sqrt(sums), out=np.zeros_like(sums), where=trained)
        P = _gram_matrix(train, scale)
    else:
        dense = rows.toarray()
        inverse = np.divide(1.0, sums, out=np.zeros_like(sums), where=trained)
        P = (train @ (dense * inverse).T).T
        P += dense[:, ~trained].sum(axis=1, keepdims=True) / train.shape[0]
    totals = P.sum(axis=1, keepdims=True)
    return np.divide(P, totals, out=P, where=totals > 0)


def _draw(p: np.ndarray, m_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Raw latent counts of m draws from the distribution p; zeros for a zero row's p."""
    if not p.any():
        return np.zeros(p.shape[0])
    if m_samples <= 0:
        raise DroError(f"m_samples must be positive for a nonzero row, got {m_samples}")
    # Dividing by the sum keeps float drift from tripping numpy's check
    # that the shares add up to at most 1.
    return rng.multinomial(m_samples, p / p.sum()).astype(np.float64)


def sample_latent_counts(
    x: sp.csr_matrix, profiles: DistributionalProfiles, m_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Raw latent draw counts for the one-row CSR matrix ``x``."""
    return _draw(latent_distributions(x, profiles)[0], m_samples, rng)


def _latent_block(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(latent indices, L2-normalized values) of raw counts; empty for no draws."""
    idx = np.flatnonzero(counts)
    vals = counts[idx]
    return idx, vals / np.sqrt(np.sum(vals * vals))


def extend(
    x: sp.csr_matrix,
    profiles: DistributionalProfiles,
    m_samples: int,
    rng: np.random.Generator,
) -> sp.csr_matrix:
    """One-row CSR matrix ``x`` with a sampled, L2-normalized latent block appended.

    ``m_samples`` draws are made; the pipeline passes the row's raw
    occurrence count. A zero row gets a zero latent block, and any other
    row needs a positive ``m_samples``.
    """
    if not sp.issparse(x) or x.format != "csr" or x.shape != (1, profiles.feature_dim):
        raise DroError(f"expected a one-row CSR matrix of width {profiles.feature_dim}")
    idx, vals = _latent_block(sample_latent_counts(x, profiles, m_samples, rng))
    latent = sp.csr_matrix((vals, idx, [0, idx.shape[0]]), shape=(1, profiles.latent_dim))
    return sp.hstack([x, latent], format="csr")


def synthetic_positive_count(n_pos: int, n_neg: int, target_ratio: float) -> int:
    """Synthetic positives needed to reach the target positive ratio.

    Resolves to the largest count that does not overshoot the target by a
    whole example: with 121 positives, 5309 negatives and a 20/80 target
    this yields 1206 synthetics (1327 positives in total).
    """
    if not (0.0 < target_ratio < 1.0):
        raise DroError(f"target ratio must be in (0, 1), got {target_ratio}")
    raw = (target_ratio * n_neg - (1.0 - target_ratio) * n_pos) / (1.0 - target_ratio)
    return max(0, math.floor(raw + 1e-9))


@dataclass
class ExtendedExample:
    row: int  # the source row of the natural matrix
    latent_indices: np.ndarray
    latent_values: np.ndarray
    label: int
    source_id: str  # original instance the example derives from
    replica: int  # 0 for originals, >= 1 for synthetic copies

    @property
    def synthetic(self) -> bool:
        return self.replica > 0

    @property
    def example_id(self) -> str:
        if self.replica == 0:
            return self.source_id
        return f"{self.source_id}#dro{self.replica}"


def oversample(
    X: sp.csr_matrix,
    y: Sequence[int],
    instance_ids: Sequence[str],
    occurrences: Sequence[int],
    profiles: DistributionalProfiles,
    config: DroConfig,
    master_seed: int,
) -> list[ExtendedExample]:
    """Extend every row of X once and synthesize positives up to the target ratio.

    Row i is instance ``instance_ids[i]`` with label ``y[i]`` and raw
    occurrence count ``occurrences[i]``, which sets its number of draws.
    Labels must be binary with 1 marking the (minority) positive class.
    Synthetic positives re-extend randomly chosen original positives with
    fresh randomness; they keep their source's row.
    """
    if X.shape[1] != profiles.feature_dim:
        raise DroError(f"matrix dim {X.shape[1]} does not match profile dim {profiles.feature_dim}")
    labels = [int(label) for label in y]
    if any(label not in (0, 1) for label in labels):
        raise DroError("oversample expects binary 0/1 labels")
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if n_pos == 0:
        raise DroError("cannot oversample: no positive examples")

    # (row, label, replica): originals first, then synthetic copies of
    # randomly chosen positives, numbered per source from 1.
    work = [(row, label, 0) for row, label in enumerate(labels)]
    positives = [row for row, label in enumerate(labels) if label == 1]
    picker = spawn_rng(master_seed, "dro-pick")
    n_synthetic = synthetic_positive_count(n_pos, n_neg, config.target_positive_ratio)
    replicas: Counter[int] = Counter()
    for source_pos in picker.integers(0, len(positives), size=n_synthetic):
        row = positives[int(source_pos)]
        replicas[row] += 1
        work.append((row, 1, replicas[row]))
    P = latent_distributions(X, profiles)
    out: list[ExtendedExample] = []
    for row, label, replica in work:
        rng = spawn_rng(master_seed, "dro-extend", instance_ids[row], replica)
        idx, vals = _latent_block(_draw(P[row], occurrences[row], rng))
        out.append(ExtendedExample(row, idx, vals, label, instance_ids[row], replica))
    return out


def extended_to_csr(
    X: sp.csr_matrix, examples: Sequence[ExtendedExample], latent_dim: int
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Training (matrix, labels): each example's row of X, then its latent block."""
    if not examples:
        raise DroError("cannot build a matrix from zero examples")
    sizes = [ex.latent_indices.shape[0] for ex in examples]
    latent = sp.csr_matrix(
        (
            np.concatenate([ex.latent_values for ex in examples]),
            np.concatenate([ex.latent_indices for ex in examples]),
            np.concatenate(([0], np.cumsum(sizes))),
        ),
        shape=(len(examples), latent_dim),
    )
    matrix = sp.hstack([X[[ex.row for ex in examples]], latent], format="csr")
    labels = np.asarray([ex.label for ex in examples], dtype=np.int64)
    return matrix, labels
