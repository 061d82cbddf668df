"""Distributional random oversampling (DRO).

Rows of the natural TFIDF matrix (CSR, as ``vectorize_counts`` makes
it) are extended with a latent block whose coordinates index training
instances. Every natural feature f carries a categorical profile pi_f
over those latent indices, proportional to f's weight in each training
instance; features unseen in training fall back to a uniform profile.
Extending a row draws m feature occurrences from the row's own weight
distribution, m being its raw occurrence count, then one latent index
from each drawn feature's profile, accumulates the draws, and
L2-normalizes the latent block. Profiles do not record their space.

``fit_profiles`` packs every feature's profile once per fit into one
cumulative table, in which feature f's cumulative probabilities occupy
the interval (f, f+1] and its last one is exactly f+1. A draw from
feature f is then the uniform f + U(0, 1) looked up in that table: one
``multinomial`` call spreads the m draws over the row's features, one
``random`` call gives their uniforms, and one ``searchsorted`` locates
them all (inverse-transform sampling). Two kinds of draw are set apart
first. A feature with no weight in training stores no entries and draws
floor(U * n) over the n latent indices instead. A key f + U that rounds
up to f+1 would land past feature f's entries, so it takes f's last
entry. Every other key lands inside its own feature's entries; they are
sorted before the lookup, which keeps successive binary searches on
nearby entries of the table.

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

    def profile(self, feature: int) -> tuple[np.ndarray, np.ndarray] | None:
        """(latent indices, probabilities) for one feature; None => uniform fallback."""
        if not (0 <= feature < self.feature_dim):
            raise DroError(f"feature index {feature} out of range")
        start, end = self._indptr[feature], self._indptr[feature + 1]
        if start == end:
            return None
        return self._indices[start:end], self._probs[start:end]


def fit_profiles(X) -> DistributionalProfiles:
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
    )


def sample_latent_counts(
    indices: np.ndarray,
    data: np.ndarray,
    profiles: DistributionalProfiles,
    m_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Raw latent draw counts for one row, given by its columns and weights.

    Draws m feature occurrences, then one uniform per occurrence, in
    feature index order, and looks each feature-plus-uniform up in the
    packed cumulative table. A draw from a feature without stored
    entries takes floor(u * n), and a key that rounds up to f+1 takes
    feature f's last entry. The other keys are sorted in place and
    looked up by one ``searchsorted``, and the latent indices of all
    three kinds are counted together. The positions equal those of the
    unsorted keys' lookup clipped into each feature's entries, so the
    counts do not depend on the sort.
    """
    n = profiles.latent_dim
    total = float(data.sum())
    if total <= 0:
        return np.zeros(n, dtype=np.float64)
    feature_draws = rng.multinomial(m_samples, data / total)
    drawn = np.nonzero(feature_draws)[0]
    features = indices[drawn]
    k = feature_draws[drawn]
    u = rng.random(m_samples)
    ends = profiles._indptr[features + 1]
    stored = profiles._indptr[features] < ends
    parts = []
    if not stored.all():
        # u < 1 keeps the rounded u * n below n, so floor(u * n) is in range.
        from_table = np.repeat(stored, k)
        parts.append((u[~from_table] * n).astype(np.int64))
        u, features, k, ends = u[from_table], features[stored], k[stored], ends[stored]
    draw_features = np.repeat(features, k)
    keys = draw_features + u
    # For u near 1, f + u can round up to f+1, past feature f's last entry.
    rounded = keys == draw_features + 1
    if rounded.any():
        parts.append(profiles._indices[np.repeat(ends - 1, k)[rounded]])
        keys = keys[~rounded]
    keys.sort()
    parts.append(profiles._indices[np.searchsorted(profiles._cum, keys, side="right")])
    return np.bincount(np.concatenate(parts), minlength=n).astype(np.float64)


def _latent_block(
    indices: np.ndarray,
    data: np.ndarray,
    m_samples: int,
    profiles: DistributionalProfiles,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(latent indices, L2-normalized values) sampled for one row; empty for a zero row."""
    if data.sum() <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if m_samples <= 0:
        raise DroError(f"m_samples must be positive for a nonzero row, got {m_samples}")
    counts = sample_latent_counts(indices, data, profiles, m_samples, rng)
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
    idx, vals = _latent_block(x.indices, x.data, m_samples, profiles, rng)
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
    out: list[ExtendedExample] = []
    for row, label, replica in work:
        rng = spawn_rng(master_seed, "dro-extend", instance_ids[row], replica)
        a, b = X.indptr[row], X.indptr[row + 1]
        idx, vals = _latent_block(X.indices[a:b], X.data[a:b], occurrences[row], profiles, rng)
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
