"""Shared training-pipeline machinery used by evaluation and experiments.

A fold (or a full training run) always follows the same sequence: collect
training instances (full texts and/or their segments), fit the feature
space on those instances only, vectorize, optionally fit oversampling
profiles and extend the training set, tune C, train. Raw feature counts
depend only on the instance and the feature config, never on the fold,
so one CountsCache per command, a sparse counts store keyed by document
id and token range, serves every fold, block pool and segmentation.
Within a fold, a block pool's vectors are a column slice of a larger
pool's, with the kept blocks' raw count totals (``Vectors.restricted``),
so one vectorized training set serves every pool the fold scores without
the counts store. Training rows that carry their per-block Grams
(``Vectors.add_grams``) become a ``learner.Gram`` for every pool that fits
in their row basis instead, and copy no column.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

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
    counts_from_segments,
    extract_all,
    extraction_params,
    fit_feature_space_from_counts,
    vectorize_counts,
)
from .learner import (
    BlockGrams, Gram, Prediction, TrainConfig, TrainedModel, block_grams, fits_in_row_basis,
    predict_proba, train_binary, train_multiclass, tune_C,
)
from .rng import spawn_rng, stable_seed

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
    """Instances as TFIDF rows over a space, with their raw count totals per block.

    The rows are a CSR matrix, except where training rows that carry their
    block Grams are restricted to a pool that fits in their row basis: there
    they are a ``Gram`` (``restricted``), which only ``fit_verifier`` takes.
    """

    instances: tuple[Instance, ...]
    space: FeatureSpace
    X: sp.csr_matrix | Gram
    block_totals: np.ndarray  # one row per instance, one column per block of the space
    grams: BlockGrams | None = None  # per block of the space: K_b = X_b X_bᵀ (``add_grams``)

    @property
    def occurrences(self) -> np.ndarray:
        """Each instance's raw count total over the space's blocks."""
        return self.block_totals.sum(axis=1)

    def add_grams(self) -> None:
        """Carry the rows' Gram matrix per block of the space, and their
        transpose (``learner.block_grams``), if they fit in a row basis
        (``learner.fits_in_row_basis``); else carry none.
        """
        if fits_in_row_basis(*self.X.shape):
            offsets = [(start, end) for _, start, end in self.space.block_offsets]
            self.grams = block_grams(self.X, offsets)

    def restricted(self, space: FeatureSpace, columns: np.ndarray) -> "Vectors":
        """These instances over ``space``, where ``(space, columns)`` is
        ``self.space.restricted_to(blocks)``: equal to vectorizing them in ``space``.

        Rows that carry block Grams (``add_grams``) become a ``Gram`` for a
        pool that fits in their row basis: its K sums the kept blocks' in
        block order, with Xᵀ products on ``self.X`` and no column copied.
        Otherwise the rows are a copy of their columns.
        """
        if space is self.space and self.grams is None:
            return self
        kept = [i for i, (b, _, _) in enumerate(self.space.block_offsets) if b in space.vocab]
        if self.grams is not None and fits_in_row_basis(self.X.shape[0], space.dim):
            X = self.grams.gram(kept, columns)
        else:
            X = self.X[:, columns]
            X.sort_indices()
        return Vectors(self.instances, space, X, self.block_totals[:, kept])


class CountsCache(CountsStore):
    """A counts store keyed by (document id, token range).

    A request extracts each instance it has not seen before, except a full
    text that the same request also holds tiling segments of: its counts
    are summed from theirs (``counts_from_segments``). The store grows only
    in ``rows``, mutating its vocabularies, so ``run_folds`` fills it and
    builds its matrix before any fold runs; folds only read it.
    """

    def __init__(self, config: FeatureConfig):
        super().__init__(config)
        self._row_of: dict[tuple[str, tuple[int, int]], int] = {}

    def rows(self, instances: Iterable[Instance]) -> np.ndarray:
        """Store rows of ``instances``, counting the ones not seen before."""
        instances = list(instances)
        keys = [(inst.doc.id, inst.token_range) for inst in instances]
        new: dict[str, dict[tuple[str, tuple[int, int]], Instance]] = {}  # by document
        for key, inst in zip(keys, instances):
            if key not in self._row_of:
                new.setdefault(key[0], {}).setdefault(key, inst)
        for doc_new in new.values():  # one document's counts alive at a time
            counts = {
                key: extract_all(inst, self.config)
                for key, inst in doc_new.items()
                if key[1] != (0, len(inst.doc.tokens))
            }
            for key, inst in doc_new.items():
                if key not in counts:
                    derived = counts_from_segments(
                        inst.doc, ((r, c) for (_, r), c in counts.items()), self.config
                    )
                    counts[key] = extract_all(inst, self.config) if derived is None else derived
            for key in doc_new:
                self._row_of[key] = self.add(counts[key])
        return np.asarray([self._row_of[key] for key in keys], dtype=np.int64)


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


def text_instances(
    docs: Iterable[Document], seg_config: SegmentationConfig
) -> dict[str, tuple[Instance, ...]]:
    """Each document's training instances by its id: full text plus segments.

    A text that yields one segment yields the whole text, so with full
    texts included it trains once, as its full text. Each text is
    segmented once.
    """
    out: dict[str, tuple[Instance, ...]] = {}
    for doc in docs:
        segs = segment(doc, seg_config.min_tokens)
        full = (Instance(doc=doc),) if seg_config.include_full_texts else ()
        if full and len(segs) == 1:
            out[doc.id] = full
        else:
            out[doc.id] = full + tuple(Instance(doc=doc, segment=seg) for seg in segs)
    return out


def document_instances(
    docs: Sequence[Document],
    seg_config: SegmentationConfig,
    instances: Mapping[str, Sequence[Instance]] | None = None,
) -> list[Instance]:
    """Training instances for a set of documents, in document order
    (``text_instances``); ``instances`` holds them already for every id of ``docs``.
    """
    if instances is None:
        instances = text_instances(docs, seg_config)
    return [inst for doc in docs for inst in instances[doc.id]]


def full_text_only_count(instances: Mapping[str, Sequence[Instance]]) -> int:
    """How many texts of ``instances`` (``text_instances``) train only as their full text."""
    return sum(len(insts) == 1 and insts[0].segment is None for insts in instances.values())


def training_documents(corpus: Corpus, authors: Iterable[str] | None = None) -> list[Document]:
    """Labelled documents, optionally restricted by author."""
    author_set = set(authors) if authors is not None else None
    return [
        doc for doc in corpus.labelled() if author_set is None or doc.author in author_set
    ]


@dataclass(frozen=True)
class VerificationClasses:
    """A verifier's classes, ``("not <target>", <target>)``; called on a text, its class."""

    target: str

    @property
    def classes(self) -> tuple[str, str]:
        return (f"not {self.target}", self.target)

    def __call__(self, doc: Document) -> str:
        return self.classes[doc.author == self.target]


@dataclass
class FittedClassifier:
    """A verifier or an attributor, trained for one fold or one deployment run.

    Its classes are ``model.classes``: a verifier's ``VerificationClasses``,
    an attributor's the sorted candidate authors.
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


def fold_vectors(
    docs: Sequence[Document],
    texts: Sequence[Document],
    config: PipelineConfig,
    cache: CountsCache,
    instances: Mapping[str, Sequence[Instance]] | None = None,
) -> tuple[Vectors, Vectors]:
    """Training instances of ``docs`` over the space fitted on them, and
    ``texts`` in full over that same space, from one vectorize call.

    ``instances`` holds each training text's instances already
    (``text_instances``). The rows of both are selected from the counts
    store once; a row's TFIDF values depend only on its counts and the
    space, so each equals a row vectorized on its own.
    """
    train = document_instances(docs, config.segmentation, instances)
    if not train:
        raise ExperimentError("no training instances")
    both = (*train, *(Instance(doc=doc) for doc in texts))
    n = len(train)
    rows = cache.rows(both)  # first: it may grow the store
    stored = cache.counts().select(rows)
    space = fit_feature_space_from_counts(stored.leading(n), config.features)
    X, block_totals = vectorize_counts(stored, space)
    # the two row blocks share the matrix's arrays: no scipy row slicing
    m = X.indptr[n]
    train_X = sp.csr_matrix((X.data[:m], X.indices[:m], X.indptr[: n + 1]), shape=(n, space.dim))
    text_X = sp.csr_matrix(
        (X.data[m:], X.indices[m:], X.indptr[n:] - m), shape=(len(texts), space.dim)
    )
    return (
        Vectors(both[:n], space, train_X, block_totals[:n]),
        Vectors(both[n:], space, text_X, block_totals[n:]),
    )


def fit_verifier(train: Vectors, config: PipelineConfig, seed: int) -> FittedClassifier:
    """(Optionally) oversample, tune C, and train on vectorized training instances.

    When C was tuned in Gram space, the final fit starts from the
    Gram-space Newton solution at the chosen C (``tune_C``), with weights
    w = Xᵀα, and ``train_binary`` returns that start as the model when its
    gradient is already within tolerance (``learner._fit``). Other final
    fits start L-BFGS from zeros. Rows given as a ``Gram`` (``Vectors.restricted``)
    tune C and train on its K, with no copy of their entries; they need DRO
    off, since oversampling reads the entries.
    """
    if config.target_author is None:
        raise ExperimentError("pipeline config needs a target_author for verification")
    instances, space, X = train.instances, train.space, train.X
    if isinstance(X, Gram) and (config.dro is not None or not fits_in_row_basis(*X.shape)):
        raise ExperimentError("training rows given as a Gram need DRO off and a row-basis fit")
    class_of = VerificationClasses(config.target_author)
    y = np.asarray([class_of(inst.doc) == class_of.target for inst in instances], dtype=np.int64)
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

    chosen_C, inner_scores, start = tune_C(
        X, y, config.learner, stable_seed(seed, "tune"), n_classes=2
    )
    if start is not None and not isinstance(X, Gram):  # a Gram fit starts from (α, b) itself
        start = (X.T @ start[0], start[1])
    x0 = None if start is None else np.append(*start)
    model = train_binary(X, y, config.learner, classes=class_of.classes, C=chosen_C, x0=x0)
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
    chosen_C, inner_scores, _ = tune_C(
        train.X, y_idx, config.learner, stable_seed(seed, "tune"), n_classes=len(classes)
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
