"""Shared training-pipeline machinery used by evaluation and experiments.

A fold (or a full training run) always follows the same sequence: collect
training instances (full texts and/or their segments), fit the feature
space on those instances only, vectorize, optionally fit oversampling
profiles and extend the training set, tune C, train. Raw feature counts
depend only on the instance and the feature config, never on the fold,
so one CountsCache per command, a sparse counts store keyed by instance
id, serves every fold and block pool.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from . import dro as dro_mod
from .corpus import Corpus, Document, segment
from .dro import DistributionalProfiles, DroConfig, extend, extended_to_csr, oversample
from .errors import ExperimentError
from .features import (
    CountsStore,
    FeatureBlock,
    FeatureConfig,
    FeatureSpace,
    Instance,
    SparseVector,
    extract_all,
    extraction_params,
    fit_feature_space_from_counts,
    sparse_rows,
    vectorize_counts,
)
from .learner import Prediction, TrainConfig, TrainedModel, predict_proba, train_binary, train_multiclass, tune_C
from .rng import spawn_rng

log = logging.getLogger(__name__)


@dataclass
class SegmentationConfig:
    min_tokens: int = 400
    include_full_texts: bool = True

    def __post_init__(self) -> None:
        if self.min_tokens <= 0:
            raise ExperimentError("min_tokens must be positive")


@dataclass
class PipelineConfig:
    features: FeatureConfig
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    learner: TrainConfig = field(default_factory=TrainConfig)
    dro: DroConfig | None = None  # None disables oversampling
    target_author: str | None = None

    def with_blocks(self, blocks: Iterable[FeatureBlock]) -> "PipelineConfig":
        return replace(self, features=self.features.restricted_to(blocks))


class CountsCache(CountsStore):
    """A counts store keyed by instance id: each instance is extracted once.

    The store grows only in ``rows``, and growing mutates its
    vocabularies, so callers fill it before reading it from fold threads.
    """

    def __init__(self, config: FeatureConfig):
        super().__init__(config)
        self._row_of: dict[str, int] = {}

    def rows(self, instances: Iterable[Instance]) -> np.ndarray:
        """Store rows of ``instances``, extracting the ones not seen before."""
        out = []
        for instance in instances:
            if instance.instance_id not in self._row_of:
                self._row_of[instance.instance_id] = self.add(extract_all(instance, self.config))
            out.append(self._row_of[instance.instance_id])
        return np.asarray(out, dtype=np.int64)

    def vectors(self, instances: Sequence[Instance], space: FeatureSpace) -> list[SparseVector]:
        X, occurrences = vectorize_counts(self, self.rows(instances), space)
        return sparse_rows(X, [inst.instance_id for inst in instances], occurrences, space)

    def vectorize(self, instance: Instance, space: FeatureSpace) -> SparseVector:
        return self.vectors([instance], space)[0]


def counts_cache_for(config: FeatureConfig, cache: CountsCache | None) -> CountsCache:
    """A new cache for ``config``, or ``cache`` if it extracts every block as ``config`` does.

    A block's counts depend only on what ``extraction_params`` names, so a
    cache built for a full feature config serves every restriction of it.
    """
    if cache is None:
        return CountsCache(config)
    for block in config.blocks_in_order():
        theirs = extraction_params(cache.config, block)
        if block not in cache.config.enabled_blocks or theirs != extraction_params(config, block):
            raise ExperimentError(f"the counts cache extracts {block.value} differently")
    return cache


def document_instances(
    docs: Sequence[Document], seg_config: SegmentationConfig
) -> list[Instance]:
    """Training instances for a set of documents: full texts plus segments."""
    instances: list[Instance] = []
    for doc in docs:
        if seg_config.include_full_texts:
            instances.append(Instance(doc=doc))
        for seg in segment(doc, seg_config.min_tokens):
            instances.append(Instance(doc=doc, segment=seg))
    return instances


def training_documents(
    corpus: Corpus, exclude_ids: Iterable[str] = (), authors: Iterable[str] | None = None
) -> list[Document]:
    """Labelled documents, minus exclusions, optionally restricted by author."""
    excluded = set(exclude_ids)
    author_set = set(authors) if authors is not None else None
    docs = []
    for doc in corpus.labelled():
        if doc.id in excluded:
            continue
        if author_set is not None and doc.author not in author_set:
            continue
        docs.append(doc)
    return docs


@dataclass
class FittedVerifier:
    """A binary verifier trained for one fold or one deployment run."""

    space: FeatureSpace
    model: TrainedModel
    profiles: DistributionalProfiles | None
    training_instance_ids: tuple[str, ...]
    chosen_C: float

    @property
    def uses_dro(self) -> bool:
        return self.profiles is not None


def _training_rows(
    docs: Sequence[Document], config: PipelineConfig, cache: CountsCache
) -> tuple[list[Instance], FeatureSpace, sp.csr_matrix, np.ndarray]:
    """Instances of ``docs``, the space fitted on them, their TFIDF rows and occurrences."""
    instances = document_instances(docs, config.segmentation)
    if not instances:
        raise ExperimentError("no training instances")
    rows = cache.rows(instances)
    space = fit_feature_space_from_counts(cache, rows, config.features)
    X, occurrences = vectorize_counts(cache, rows, space)
    return instances, space, X, occurrences


def fit_verifier(
    docs: Sequence[Document],
    config: PipelineConfig,
    cache: CountsCache,
    seed: int,
) -> FittedVerifier:
    """Fit feature space, (optionally) oversample, tune C, and train."""
    if config.target_author is None:
        raise ExperimentError("pipeline config needs a target_author for verification")
    instances, space, X, occurrences = _training_rows(docs, config, cache)
    y = np.asarray(
        [1 if inst.doc.author == config.target_author else 0 for inst in instances],
        dtype=np.int64,
    )
    if y.sum() == 0:
        raise ExperimentError(
            f"no training instance by target author {config.target_author!r}"
        )
    if y.sum() == y.shape[0]:
        raise ExperimentError("training set has no negative instances")

    instance_ids = tuple(inst.instance_id for inst in instances)
    profiles: DistributionalProfiles | None = None
    if config.dro is not None:
        profiles = dro_mod.fit_profiles(X, space_fingerprint=space.fingerprint())
        vectors = sparse_rows(X, instance_ids, occurrences, space)
        extended = oversample(
            list(zip(vectors, y.tolist())), profiles, config.dro, master_seed=seed
        )
        X, y = extended_to_csr(extended)
        instance_ids = tuple(ex.example_id for ex in extended)

    chosen_C = tune_C(X, y, config.learner, spawn_rng(seed, "tune"), n_classes=2)
    classes = (f"not {config.target_author}", config.target_author)
    model = train_binary(
        X,
        y,
        config.learner,
        classes=classes,
        C=chosen_C,
        space_fingerprint=space.fingerprint(),
    )
    return FittedVerifier(
        space=space,
        model=model,
        profiles=profiles,
        training_instance_ids=instance_ids,
        chosen_C=chosen_C,
    )


def predict_document(
    fitted: FittedVerifier,
    doc: Document,
    cache: CountsCache,
    seed: int,
    replica: int = 0,
) -> Prediction:
    """Classify one unsegmented text with a fitted verifier.

    With oversampling enabled the text's vector is extended against the
    training-fitted profiles; the replica index varies the extension
    randomness while keeping it reproducible.
    """
    vector = cache.vectorize(Instance(doc=doc), fitted.space)
    if fitted.profiles is not None:
        rng = spawn_rng(seed, "test-extend", doc.id, replica)
        x = extend(vector, fitted.profiles, None, rng)
        prediction = predict_proba(fitted.model, x)
    else:
        prediction = predict_proba(fitted.model, vector)
    return Prediction(
        instance_id=doc.id, classes=prediction.classes, posteriors=prediction.posteriors
    )


@dataclass
class FittedAttributor:
    """A multiclass attributor trained over a closed candidate-author set."""

    space: FeatureSpace
    model: TrainedModel
    candidate_authors: tuple[str, ...]
    chosen_C: float


def fit_attributor(
    docs: Sequence[Document],
    config: PipelineConfig,
    cache: CountsCache,
    seed: int,
) -> FittedAttributor:
    """Train a multiclass author attributor (never uses oversampling)."""
    instances, space, X, _ = _training_rows(docs, config, cache)
    labels = [inst.doc.author for inst in instances]
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise ExperimentError("attribution needs at least two candidate authors")
    index = {cls: i for i, cls in enumerate(classes)}
    y_idx = np.asarray([index[label] for label in labels], dtype=np.int64)
    chosen_C = tune_C(X, y_idx, config.learner, spawn_rng(seed, "tune"), n_classes=len(classes))
    model = train_multiclass(
        X, labels, config.learner, C=chosen_C, space_fingerprint=space.fingerprint()
    )
    return FittedAttributor(
        space=space,
        model=model,
        candidate_authors=classes,
        chosen_C=chosen_C,
    )
