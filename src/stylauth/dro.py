"""Distributional random oversampling (DRO).

Vectors are extended with a latent block whose coordinates index training
instances. Every natural feature f carries a categorical profile pi_f
over those latent indices, proportional to f's weight in each training
instance; features unseen in training fall back to a uniform profile.
Extending a vector draws m feature occurrences from the vector's own
weight distribution, then one latent index from each drawn feature's
profile, accumulates the draws, and L2-normalizes the latent block.

``fit_profiles`` builds every feature's sampler table once per fit: its
latent indices and probabilities, as read-only views of two packed
arrays, and one shared uniform vector for the fallback. Sampling makes
one ``multinomial`` call per drawn feature, in feature order, on that
feature's table.

Because a vector can be re-extended with fresh randomness as often as
desired, minority-class training examples can be multiplied: each
synthetic copy shares its source's natural block exactly and differs
only in the latent block. Negatives are extended exactly once, so only
the positive class grows. All randomness is derived from a master seed
plus (instance id, replica index), which makes the extended dataset
byte-identical across runs and thread schedules.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DroError
from .features import SparseVector
from .rng import spawn_rng


@dataclass
class DroConfig:
    """Oversampling parameters.

    The latent block has one coordinate per training instance, and each
    extension draws as many samples as the vector's own raw occurrence
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

    ``_tables[f]`` is feature f's (latent indices, probabilities) pair, or
    None for the uniform fallback; ``_uniform`` is that fallback's
    probability vector. All arrays are read-only and shared by every draw.
    """

    latent_dim: int
    feature_dim: int
    _tables: list[tuple[np.ndarray, np.ndarray] | None]
    _uniform: np.ndarray
    space_fingerprint: str = ""

    def profile(self, feature: int) -> tuple[np.ndarray, np.ndarray] | None:
        """(latent indices, probabilities) for one feature; None => uniform fallback."""
        if not (0 <= feature < self.feature_dim):
            raise DroError(f"feature index {feature} out of range")
        return self._tables[feature]


def fit_profiles(X, space_fingerprint: str = "") -> DistributionalProfiles:
    """Build profiles from the natural training matrix (rows = instances).

    The latent space has one dimension per training instance. Every
    feature's sampler table is built here, once per fit: one division of
    the stored weights by their repeated column sums gives every
    probability, bitwise as dividing each column by its own sum would.
    """
    if X.shape[0] == 0:
        raise DroError("cannot fit profiles on an empty training matrix")
    csc = sp.csc_matrix(X, dtype=np.float64)
    if csc.nnz and csc.data.min() < 0:
        raise DroError("profiles require nonnegative feature weights")
    sums = np.asarray(csc.sum(axis=0)).ravel()
    indices = csc.indices.astype(np.int64)
    # Columns summing to 0 divide by 0 here; their tables are None.
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = csc.data / np.repeat(sums, np.diff(csc.indptr))
    uniform = np.full(X.shape[0], 1.0 / X.shape[0])
    for array in (indices, probs, uniform):
        array.flags.writeable = False
    bounds = zip(sums.tolist(), csc.indptr[:-1].tolist(), csc.indptr[1:].tolist())
    return DistributionalProfiles(
        latent_dim=X.shape[0],
        feature_dim=X.shape[1],
        _tables=[
            (indices[start:end], probs[start:end]) if total > 0 else None
            for total, start, end in bounds
        ],
        _uniform=uniform,
        space_fingerprint=space_fingerprint,
    )


@dataclass
class ExtendedVector:
    """A natural vector plus its sampled latent block.

    The natural block is the very object that was extended, never a
    copy, so it is byte-identical by construction.
    """

    natural: SparseVector
    latent_indices: np.ndarray
    latent_values: np.ndarray
    latent_dim: int

    @property
    def instance_id(self) -> str:
        return self.natural.instance_id

    @property
    def dim(self) -> int:
        return self.natural.dim + self.latent_dim

    def combined(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices/values over the concatenated natural+latent space."""
        idx = np.concatenate([self.natural.indices, self.latent_indices + self.natural.dim])
        vals = np.concatenate([self.natural.values, self.latent_values])
        return idx, vals


def sample_latent_counts(
    vector: SparseVector,
    profiles: DistributionalProfiles,
    m_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Raw latent draw counts for one vector (before normalization).

    Draws m feature occurrences, then, feature by feature in index order,
    the latent indices of that feature's occurrences from its table.
    """
    if vector.dim != profiles.feature_dim:
        raise DroError(
            f"vector dim {vector.dim} does not match profile dim {profiles.feature_dim}"
        )
    counts = np.zeros(profiles.latent_dim, dtype=np.float64)
    total = float(vector.values.sum())
    if total <= 0:
        return counts
    feature_draws = rng.multinomial(m_samples, vector.values / total)
    drawn = np.nonzero(feature_draws)[0]
    for feature, k in zip(vector.indices[drawn].tolist(), feature_draws[drawn].tolist()):
        table = profiles._tables[feature]
        if table is None:
            counts += rng.multinomial(k, profiles._uniform)
        else:
            idx, probs = table
            counts[idx] += rng.multinomial(k, probs)
    return counts


def extend(
    vector: SparseVector,
    profiles: DistributionalProfiles,
    m_samples: int | None,
    rng: np.random.Generator,
) -> ExtendedVector:
    """Append a sampled, L2-normalized latent block to one vector.

    A zero vector gets a zero latent block. Otherwise m_samples must be
    positive; None means the vector's own occurrence count.
    """
    if vector.dim != profiles.feature_dim:
        raise DroError(
            f"vector dim {vector.dim} does not match profile dim {profiles.feature_dim}"
        )
    if (
        profiles.space_fingerprint
        and vector.space_fingerprint
        and profiles.space_fingerprint != vector.space_fingerprint
    ):
        raise DroError("vector and profiles were built from different feature spaces")
    if vector.is_zero() or vector.values.sum() <= 0:
        return ExtendedVector(
            natural=vector,
            latent_indices=np.empty(0, dtype=np.int64),
            latent_values=np.empty(0, dtype=np.float64),
            latent_dim=profiles.latent_dim,
        )
    m = vector.occurrence_count if m_samples is None else int(m_samples)
    if m <= 0:
        raise DroError(f"m_samples must be positive for a nonzero vector, got {m}")
    counts = sample_latent_counts(vector, profiles, m, rng)
    idx = np.nonzero(counts)[0].astype(np.int64)
    vals = counts[idx]
    vals = vals / np.sqrt(np.sum(vals * vals))
    return ExtendedVector(
        natural=vector,
        latent_indices=idx,
        latent_values=vals,
        latent_dim=profiles.latent_dim,
    )


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
    vector: ExtendedVector
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
    examples: Sequence[tuple[SparseVector, int]],
    profiles: DistributionalProfiles,
    config: DroConfig,
    master_seed: int,
) -> list[ExtendedExample]:
    """Extend every example once and synthesize positives up to the target ratio.

    Labels must be binary with 1 marking the (minority) positive class.
    Synthetic positives re-extend randomly chosen original positives with
    fresh randomness; their natural blocks are shared with the source.
    """
    labels = [int(label) for _, label in examples]
    if any(label not in (0, 1) for label in labels):
        raise DroError("oversample expects binary 0/1 labels")
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if n_pos == 0:
        raise DroError("cannot oversample: no positive examples")

    # (vector, label, replica): originals first, then synthetic copies of
    # randomly chosen positives, numbered per source from 1.
    work = [(vector, label, 0) for vector, label in examples]
    positives = [vector for vector, label in examples if label == 1]
    picker = spawn_rng(master_seed, "dro-pick")
    n_synthetic = synthetic_positive_count(n_pos, n_neg, config.target_positive_ratio)
    replicas: Counter[str] = Counter()
    for source_pos in picker.integers(0, len(positives), size=n_synthetic):
        vector = positives[int(source_pos)]
        replicas[vector.instance_id] += 1
        work.append((vector, 1, replicas[vector.instance_id]))
    out: list[ExtendedExample] = []
    for vector, label, replica in work:
        rng = spawn_rng(master_seed, "dro-extend", vector.instance_id, replica)
        extended = extend(vector, profiles, None, rng)
        out.append(ExtendedExample(extended, label, vector.instance_id, replica))
    return out


def extended_to_csr(examples: Sequence[ExtendedExample]) -> tuple[sp.csr_matrix, np.ndarray]:
    """Stack extended examples into (matrix, labels) for training."""
    if not examples:
        raise DroError("cannot build a matrix from zero examples")
    dim = examples[0].vector.dim
    indptr = np.zeros(len(examples) + 1, dtype=np.int64)
    all_idx: list[np.ndarray] = []
    all_val: list[np.ndarray] = []
    for i, ex in enumerate(examples):
        if ex.vector.dim != dim:
            raise DroError("extended examples have inconsistent dimensions")
        idx, vals = ex.vector.combined()
        all_idx.append(idx)
        all_val.append(vals)
        indptr[i + 1] = indptr[i] + idx.shape[0]
    data = np.concatenate(all_val)
    cols = np.concatenate(all_idx)
    matrix = sp.csr_matrix((data, cols, indptr), shape=(len(examples), dim))
    labels = np.asarray([ex.label for ex in examples], dtype=np.int64)
    return matrix, labels
