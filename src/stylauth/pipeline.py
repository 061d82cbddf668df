"""Shared training-pipeline machinery used by evaluation and experiments.

A fold (or a full training run) always follows the same sequence: collect
training instances (full texts and/or their segments), fit the feature
space on those instances only, vectorize, optionally fit oversampling
profiles and extend the training set, tune C, train. Raw feature counts
depend only on the instance and the feature config, never on the fold,
so one CountsCache per command serves every fold and block pool.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from . import dro as dro_mod
from .corpus import Corpus, Document, segment
from .dro import DistributionalProfiles, DroConfig, extend, extended_to_csr, oversample
from .errors import ExperimentError
from .features import (
    BlockCounts,
    FeatureBlock,
    FeatureConfig,
    FeatureSpace,
    Instance,
    SparseVector,
    extract_all,
    extraction_params,
    fit_feature_space_from_counts,
    vectorize_counts,
    vectors_to_csr,
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


class CountsCache:
    """Memoized raw feature counts, keyed by instance id.

    Counts depend only on the instance and the feature config. Reads after
    ``warm`` are thread-safe because entries are only added, never mutated.
    """

    def __init__(self, config: FeatureConfig):
        self.config = config
        self._counts: dict[str, dict[FeatureBlock, BlockCounts]] = {}

    def counts_for(self, instance: Instance) -> dict[FeatureBlock, BlockCounts]:
        cached = self._counts.get(instance.instance_id)
        if cached is None:
            cached = extract_all(instance, self.config)
            self._counts[instance.instance_id] = cached
        return cached

    def warm(self, instances: Iterable[Instance]) -> None:
        for instance in instances:
            self.counts_for(instance)

    def vectorize(self, instance: Instance, space: FeatureSpace) -> SparseVector:
        return vectorize_counts(instance.instance_id, self.counts_for(instance), space)


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


def fit_verifier(
    docs: Sequence[Document],
    config: PipelineConfig,
    cache: CountsCache,
    seed: int,
) -> FittedVerifier:
    """Fit feature space, (optionally) oversample, tune C, and train."""
    if config.target_author is None:
        raise ExperimentError("pipeline config needs a target_author for verification")
    instances = document_instances(docs, config.segmentation)
    if not instances:
        raise ExperimentError("no training instances")
    counts_list = [cache.counts_for(inst) for inst in instances]
    space = fit_feature_space_from_counts(counts_list, config.features)
    vectors = [
        vectorize_counts(inst.instance_id, counts, space)
        for inst, counts in zip(instances, counts_list)
    ]
    labels = np.asarray(
        [1 if inst.doc.author == config.target_author else 0 for inst in instances],
        dtype=np.int64,
    )
    if labels.sum() == 0:
        raise ExperimentError(
            f"no training instance by target author {config.target_author!r}"
        )
    if labels.sum() == labels.shape[0]:
        raise ExperimentError("training set has no negative instances")

    profiles: DistributionalProfiles | None = None
    if config.dro is not None:
        X_natural = vectors_to_csr(vectors, space.dim)
        profiles = dro_mod.fit_profiles(
            X_natural,
            latent_dimension=config.dro.latent_dimension,
            space_fingerprint=space.fingerprint(),
        )
        extended = oversample(
            list(zip(vectors, labels.tolist())), profiles, config.dro, master_seed=seed
        )
        X, y = extended_to_csr(extended)
        instance_ids = tuple(ex.example_id for ex in extended)
    else:
        X = vectors_to_csr(vectors, space.dim)
        y = labels
        instance_ids = tuple(inst.instance_id for inst in instances)

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
    config: PipelineConfig,
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
        m = config.dro.samples_per_extension if config.dro else None
        rng = spawn_rng(seed, "test-extend", doc.id, replica)
        x = extend(vector, fitted.profiles, m, rng)
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
    training_instance_ids: tuple[str, ...]
    chosen_C: float


def fit_attributor(
    docs: Sequence[Document],
    config: PipelineConfig,
    cache: CountsCache,
    seed: int,
) -> FittedAttributor:
    """Train a multiclass author attributor (never uses oversampling)."""
    instances = document_instances(docs, config.segmentation)
    if not instances:
        raise ExperimentError("no training instances")
    counts_list = [cache.counts_for(inst) for inst in instances]
    space = fit_feature_space_from_counts(counts_list, config.features)
    vectors = [
        vectorize_counts(inst.instance_id, counts, space)
        for inst, counts in zip(instances, counts_list)
    ]
    labels = [inst.doc.author for inst in instances]
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise ExperimentError("attribution needs at least two candidate authors")
    X = vectors_to_csr(vectors, space.dim)
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
        training_instance_ids=tuple(inst.instance_id for inst in instances),
        chosen_C=chosen_C,
    )
