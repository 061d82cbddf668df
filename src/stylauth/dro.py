"""Distributional random oversampling (DRO).

Vectors are extended with a latent block whose coordinates index training
instances. Every natural feature f carries a categorical profile pi_f
over those latent indices, proportional to f's weight in each training
instance; features unseen in training fall back to a uniform profile.
Extending a vector draws m feature occurrences from the vector's own
weight distribution, then one latent index from each drawn feature's
profile, accumulates the draws, and L2-normalizes the latent block.

``fit_profiles`` packs every feature's profile once per fit into one
cumulative table, in which feature f's cumulative probabilities occupy
the interval (f, f+1] and its last one is exactly f+1. A draw from
feature f is then the uniform f + U(0, 1) looked up in that table: one
``multinomial`` call spreads the m draws over the vector's features, one
``random`` call gives their uniforms, and one ``searchsorted`` locates
them all (inverse-transform sampling). Each position is clipped into its
own feature's entries, because f + U can round up to f+1. A feature
with no weight in training stores no entries and draws floor(U * n)
over the n latent indices instead.

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
    """Per-feature categorical distributions over latent indices, packed.

    Feature f's entries are ``_indptr[f]:_indptr[f+1]`` of ``_indices``
    (latent indices), ``_probs`` (their probabilities, positive) and
    ``_cum`` (f plus the running sum of those probabilities, with the
    last entry exactly f+1). ``_cum`` is nondecreasing over the whole
    array, so one ``searchsorted`` serves every feature. A feature
    without entries falls back to the uniform profile over all latent
    indices, which is never stored. All arrays are read-only.
    """

    latent_dim: int
    feature_dim: int
    _indptr: np.ndarray
    _indices: np.ndarray
    _probs: np.ndarray
    _cum: np.ndarray
    space_fingerprint: str = ""

    def profile(self, feature: int) -> tuple[np.ndarray, np.ndarray] | None:
        """(latent indices, probabilities) for one feature; None => uniform fallback."""
        if not (0 <= feature < self.feature_dim):
            raise DroError(f"feature index {feature} out of range")
        start, end = self._indptr[feature], self._indptr[feature + 1]
        if start == end:
            return None
        return self._indices[start:end], self._probs[start:end]


def fit_profiles(X, space_fingerprint: str = "") -> DistributionalProfiles:
    """Build profiles from the natural training matrix (rows = instances).

    The latent space has one dimension per training instance. The packed
    table is built here, once per fit: one division of the positive
    weights by their repeated column sums gives every probability,
    bitwise as dividing each column by its own sum would. Zero weights
    are dropped, so a column summing to 0 stores nothing.
    """
    if X.shape[0] == 0:
        raise DroError("cannot fit profiles on an empty training matrix")
    csc = sp.csc_matrix(X, dtype=np.float64)
    if csc.nnz and csc.data.min() < 0:
        raise DroError("profiles require nonnegative feature weights")
    sums = np.asarray(csc.sum(axis=0)).ravel()
    keep = csc.data > 0
    indptr = np.concatenate(([0], np.cumsum(keep)))[csc.indptr]
    sizes = np.diff(indptr)
    indices = csc.indices[keep].astype(np.int64)
    probs = csc.data[keep] / np.repeat(sums, sizes)
    # Running sums restart at each column: subtract the global running
    # sum reached before the column, then shift column f into (f, f+1].
    running = np.cumsum(probs)
    cum = running - np.repeat(np.concatenate(([0.0], running))[indptr[:-1]], sizes)
    column_of = np.repeat(np.arange(X.shape[1], dtype=np.float64), sizes)
    cum += column_of
    np.minimum(cum, column_of + 1.0, out=cum)
    filled = np.nonzero(sizes)[0]
    cum[indptr[filled + 1] - 1] = filled + 1.0
    for array in (indptr, indices, probs, cum):
        array.flags.writeable = False
    return DistributionalProfiles(
        latent_dim=X.shape[0],
        feature_dim=X.shape[1],
        _indptr=indptr,
        _indices=indices,
        _probs=probs,
        _cum=cum,
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

    Draws m feature occurrences, then one uniform per occurrence, in
    feature index order, and looks each feature-plus-uniform up in the
    packed cumulative table.
    """
    if vector.dim != profiles.feature_dim:
        raise DroError(
            f"vector dim {vector.dim} does not match profile dim {profiles.feature_dim}"
        )
    n = profiles.latent_dim
    total = float(vector.values.sum())
    if total <= 0:
        return np.zeros(n, dtype=np.float64)
    feature_draws = rng.multinomial(m_samples, vector.values / total)
    drawn = np.nonzero(feature_draws)[0]
    features = vector.indices[drawn]
    k = feature_draws[drawn]
    u = rng.random(m_samples)
    pos = np.searchsorted(profiles._cum, np.repeat(features, k) + u, side="right")
    starts = np.repeat(profiles._indptr[features], k)
    ends = np.repeat(profiles._indptr[features + 1], k)
    # For u near 1, f + u can round up to f+1 and land past the column's
    # last entry; the clip keeps every draw in its own column.
    np.clip(pos, starts, ends - 1, out=pos)
    fallback = starts == ends
    if fallback.any():
        # u < 1 keeps the rounded u * n below n, so floor(u * n) is in range.
        latent = (u * n).astype(np.int64)
        table = ~fallback
        latent[table] = profiles._indices[pos[table]]
    else:
        latent = profiles._indices[pos]
    return np.bincount(latent, minlength=n).astype(np.float64)


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
