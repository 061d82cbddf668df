"""Shared training-pipeline machinery used by evaluation and experiments.

A fold (or a full training run) always follows the same sequence: collect
training instances (full texts and/or their segments), fit the feature
space on those instances only, vectorize, optionally fit oversampling
profiles and extend the training set, tune C, train. Raw feature counts
depend only on the instance and the feature config, never on the fold,
so one CountsCache per command, a sparse counts store keyed by instance
id, serves every fold and block pool. Within a fold, a block pool's
vectors are a column slice of a larger pool's (``Vectors.restricted``),
so one vectorized training set serves every pool the fold scores.
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
    extract_all,
    extraction_params,
    fit_feature_space_from_counts,
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


@dataclass
class Vectors:
    """Instances as TFIDF rows over a space, with their occurrence counts."""

    instances: tuple[Instance, ...]
    rows: np.ndarray  # the instances' rows in the counts cache
    space: FeatureSpace
    X: sp.csr_matrix
    occurrences: np.ndarray

    def restricted(self, space: FeatureSpace, columns: np.ndarray, cache: CountsStore) -> "Vectors":
        """These instances over ``space``, where ``(space, columns)`` is
        ``self.space.restricted_to(blocks)``: equal to vectorizing them in ``space``.
        """
        if space is self.space:
            return self
        blocks = [block for block, _, _ in space.block_offsets]
        X = self.X[:, columns]
        X.sort_indices()
        return Vectors(self.instances, self.rows, space, X, cache.occurrences(self.rows, blocks))


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

    def vectorize(self, instances: Iterable[Instance], space: FeatureSpace) -> Vectors:
        """TFIDF rows of ``instances`` over ``space`` and their occurrence counts."""
        instances = tuple(instances)
        rows = self.rows(instances)
        X, occurrences = vectorize_counts(self, rows, space)
        return Vectors(instances, rows, space, X, occurrences)


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


def training_documents(corpus: Corpus, authors: Iterable[str] | None = None) -> list[Document]:
    """Labelled documents, optionally restricted by author."""
    author_set = set(authors) if authors is not None else None
    return [
        doc for doc in corpus.labelled() if author_set is None or doc.author in author_set
    ]


@dataclass
class FittedClassifier:
    """A verifier or an attributor, trained for one fold or one deployment run.

    Its classes are ``model.classes``: a verifier's ``("not <target>",
    <target>)``, an attributor's the sorted candidate authors.
    """

    space: FeatureSpace
    model: TrainedModel
    profiles: DistributionalProfiles | None
    training_instance_ids: tuple[str, ...]
    chosen_C: float
    inner_cv_f1: tuple[tuple[float, float], ...]  # (C, F1 or macro F1) per grid value, ascending C
    synthetic_positives: int  # rows DRO added to the training set

    @property
    def uses_dro(self) -> bool:
        return self.profiles is not None


def training_vectors(
    docs: Sequence[Document], config: PipelineConfig, cache: CountsCache
) -> Vectors:
    """Training instances of ``docs`` over the space fitted on them."""
    instances = document_instances(docs, config.segmentation)
    if not instances:
        raise ExperimentError("no training instances")
    space = fit_feature_space_from_counts(cache, cache.rows(instances), config.features)
    return cache.vectorize(instances, space)


def fit_verifier(train: Vectors, config: PipelineConfig, seed: int) -> FittedClassifier:
    """(Optionally) oversample, tune C, and train on vectorized training instances."""
    if config.target_author is None:
        raise ExperimentError("pipeline config needs a target_author for verification")
    instances, space, X = train.instances, train.space, train.X
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
    synthetic = 0
    if config.dro is not None:
        profiles = dro_mod.fit_profiles(X)
        extended = oversample(X, y, instance_ids, train.occurrences, profiles, config.dro, seed)
        X, y = extended_to_csr(X, extended, profiles.latent_dim)
        instance_ids = tuple(ex.example_id for ex in extended)
        synthetic = sum(ex.synthetic for ex in extended)

    chosen_C, inner_scores = tune_C(X, y, config.learner, spawn_rng(seed, "tune"), n_classes=2)
    classes = (f"not {config.target_author}", config.target_author)
    model = train_binary(X, y, config.learner, classes=classes, C=chosen_C)
    return FittedClassifier(
        space=space,
        model=model,
        profiles=profiles,
        training_instance_ids=instance_ids,
        chosen_C=chosen_C,
        inner_cv_f1=tuple(inner_scores.items()),
        synthetic_positives=synthetic,
    )


def predict_document(
    fitted: FittedClassifier, text: Vectors, seed: int, replica: int = 0
) -> Prediction:
    """Classify one unsegmented text, vectorized in ``fitted.space`` itself.

    When the fit oversampled, the text's row is extended against the
    training-fitted profiles; the replica index varies the extension
    randomness while keeping it reproducible.
    """
    if text.space is not fitted.space:
        raise ExperimentError("the text was vectorized in another feature space than the fit's")
    (instance,) = text.instances
    x = text.X
    if fitted.profiles is not None:
        rng = spawn_rng(seed, "test-extend", instance.instance_id, replica)
        x = extend(x, fitted.profiles, text.occurrences[0], rng)
    return predict_proba(fitted.model, x)


def fit_attributor(train: Vectors, config: PipelineConfig, seed: int) -> FittedClassifier:
    """Tune C and train a multiclass attributor on vectorized training instances."""
    labels = [inst.doc.author for inst in train.instances]
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ExperimentError("attribution needs at least two candidate authors")
    index = {cls: i for i, cls in enumerate(classes)}
    y_idx = np.asarray([index[label] for label in labels], dtype=np.int64)
    chosen_C, inner_scores = tune_C(
        train.X, y_idx, config.learner, spawn_rng(seed, "tune"), n_classes=len(classes)
    )
    model = train_multiclass(train.X, labels, config.learner, C=chosen_C)
    return FittedClassifier(
        space=train.space,
        model=model,
        profiles=None,
        training_instance_ids=tuple(inst.instance_id for inst in train.instances),
        chosen_C=chosen_C,
        inner_cv_f1=tuple(inner_scores.items()),
        synthetic_positives=0,
    )
