"""Leave-one-out evaluation of the verifier and the attributor.

One fold per text of a study (``LooStudy``): the fold fits the study's
verifier or attributor on every other text plus the segments derived from
those texts (the held-out text contributes no segments, and the feature
space, IDF statistics, oversampling profiles, and hyperparameter C are all
refit from scratch inside the fold), then applies it to the held-out text
in full. Folds are independent, write no shared state (``run_folds``
makes every write), and run on a thread pool of at most ``threads``
workers, capped at the CPU count and the number of folds; one worker runs
them inline, with no pool. Threads pay only on folds above the 250-row
basis bound (``learner.fits_in_row_basis``); below it the small fits'
sparse products hold the GIL, and one worker is faster. Each fold derives
its own randomness from (master seed, study label, held-out id), so
reports are byte-identical regardless of thread count.

One pass over the folds can score several feature-block pools
(``loo_pools``): a fold fits its space and vectorizes once, over the
config's blocks, and each pool takes its columns from those rows, which
equals fitting the pool's space directly. ``loo_run`` is the one-pool case.
A verifier fold with DRO off also has its training rows carry each
block's Gram matrix, built once (``Vectors.add_grams``), and
``Vectors.restricted`` decides for each pool whether it fits on the sum of
its blocks' Grams, with no copy of its training columns, or on a copy of
them. Every pool predicts from a copy of the held-out text's columns. A
caller may keep the vectors of the hardest texts' folds between calls
(``HardestFoldStates``), as hardest-10 ablation does for its ten texts; a
fold that reads kept vectors vectorizes nothing. Every call segments the
texts that train in its folds once.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Mapping, Sequence

from .corpus import Corpus, Document
from .errors import EvaluationError
from .features import FeatureBlock, Instance
from .learner import Prediction
from .metrics import ContingencyTable, f1, soft_f1, vanilla_accuracy
from .pipeline import (
    CountsCache, FittedClassifier, PipelineConfig, Vectors, VerificationClasses,
    counts_cache_for, document_instances, fit_verifier, fold_vectors, full_text_only_count,
    predict_document, text_instances,
)
from .rng import stable_seed

log = logging.getLogger(__name__)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


@dataclass(eq=False)
class TextPrediction:
    """Per-fold outcome for one held-out text."""

    text_id: str
    author: str
    true_class: str
    prediction: Prediction  # the fitted classifier's posteriors on the text
    fitted_C: float
    inner_cv_f1: tuple[tuple[float, float], ...]  # (C, inner-CV F1), ascending C
    columns_per_block: tuple[tuple[str, int], ...]  # (block, columns) in space order
    training_rows: int  # after oversampling
    synthetic_positives: int
    converged: bool  # of the final fit
    n_iter: int

    @property
    def predicted_class(self) -> str:
        return self.prediction.predicted_class

    @property
    def positive_posterior(self) -> float:
        return self.prediction.positive_posterior

    @property
    def true_class_posterior(self) -> float:
        return self.prediction.posterior_of(self.true_class)

    def correct(self) -> bool:
        return self.true_class == self.predicted_class


def _hardness(record: TextPrediction) -> tuple[float, str]:
    """Hardest first: confidence in the true class, then text id."""
    return (record.true_class_posterior, record.text_id)


@dataclass
class LooReport:
    """One pool's verification LOO; its scores are computed from its records."""

    target_author: str
    seed: int
    corpus_fingerprint: str
    records: tuple[TextPrediction, ...]
    skipped: tuple[tuple[str, str], ...]  # (text id, reason)
    fold_seconds: dict[str, float]
    full_text_only_count: int  # texts that train in some fold only as their full text
    table: ContingencyTable = field(init=False)
    f1: float = field(init=False)
    soft_f1: float = field(init=False)
    vanilla_accuracy: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.records:
            raise EvaluationError("every fold was skipped; nothing to evaluate")
        y_true = [1 if r.true_class == self.target_author else 0 for r in self.records]
        y_pred = [1 if r.predicted_class == self.target_author else 0 for r in self.records]
        self.table = ContingencyTable.from_predictions(y_true, y_pred)
        self.f1 = f1(self.table)
        self.soft_f1 = soft_f1(y_true, [r.positive_posterior for r in self.records])
        self.vanilla_accuracy = vanilla_accuracy(self.table)

    def hardest_texts(self, k: int | None = None) -> list[tuple[str, str, bool, float]]:
        """(id, author, correct?, confidence in true class), hardest first."""
        records = sorted(self.records, key=_hardness)
        rows = [(r.text_id, r.author, r.correct(), r.true_class_posterior) for r in records]
        return rows if k is None else rows[:k]

    def canonical_dict(self) -> dict:
        """Deterministic payload: the report's fields but ``fold_seconds``,
        which go in the report's ``timing`` section, with ``table`` as
        ``contingency`` and ``hardest_texts()`` added. A record is its
        fields but ``prediction``, plus the ``predicted_class`` and
        ``positive_posterior`` derived from it.
        """
        payload = _fields_except(self, "fold_seconds")
        payload["records"] = [
            {
                **_fields_except(r, "prediction"),
                "predicted_class": r.predicted_class,
                "positive_posterior": r.positive_posterior,
            }
            for r in self.records
        ]
        payload["contingency"] = asdict(payload.pop("table"))
        payload["hardest_texts"] = self.hardest_texts()
        return payload


def _fields_except(report: object, name: str) -> dict:
    """A dataclass's fields as a dict, one field left out; values are not copied."""
    return {f.name: getattr(report, f.name) for f in fields(report) if f.name != name}


@dataclass(frozen=True)
class LooStudy:
    """What a leave-one-out study varies; the fold protocol is shared."""

    texts: tuple[Document, ...]  # each trains in every fold but its own
    seed_label: str  # a fold's seed is stable_seed(master seed, seed_label, held-out id)
    fit: Callable[[Vectors, PipelineConfig, int], FittedClassifier]
    class_of: Callable[[Document], str]  # a text's class among the fit's classes


FoldOutcome = tuple[TextPrediction | None, str | None, float]  # record, skip reason, seconds


class HardestFoldStates:
    """Fold vectors kept between calls, by held-out id: the training rows and
    held-out text (``fold_vectors``) of the ``size`` hardest texts
    (``LooReport.hardest_texts``) among the folds offered.

    ``run_folds`` offers each fold's pair whose training rows carry block
    Grams (``Vectors.add_grams``), ranked by the fold's first record; the
    order of the offers does not change which are kept, and at most
    ``size`` pairs outlive their folds. A later call on the same study,
    seed, cache and config, but for blocks that are a subset of the first
    call's, reads a kept pair instead of vectorizing the fold again: a pair
    depends only on its fold, so what is kept changes the work done, not
    the results. A call under another config must not read them: the rows
    would be wrong under another segmentation, and a verifier with DRO on
    raises ``ExperimentError`` on rows that carry Grams (``fit_verifier``).
    Only vectors are kept: each call still segments its texts (``run_folds``).
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._kept: dict[str, tuple[tuple[float, str], tuple[Vectors, Vectors]]] = {}

    def get(self, text_id: str) -> tuple[Vectors, Vectors] | None:
        kept = self._kept.get(text_id)
        return None if kept is None else kept[1]

    def offer(self, record: TextPrediction, state: tuple[Vectors, Vectors]) -> None:
        """Keep ``state`` while its text is among the ``size`` hardest offered."""
        self._kept[record.text_id] = (_hardness(record), state)
        if len(self._kept) > self.size:
            del self._kept[max(self._kept, key=lambda text_id: self._kept[text_id][0])]


def _run_fold(
    study: LooStudy,
    held_out: Document,
    config: PipelineConfig,
    pools: Sequence[Sequence[FeatureBlock]],
    cache: CountsCache,
    master_seed: int,
    instances: Mapping[str, Sequence[Instance]],
    kept: tuple[Vectors, Vectors] | None = None,
) -> tuple[list[FoldOutcome], tuple[Vectors, Vectors] | None]:
    """One fold's outcome for each pool, in pool order, and the vectors it
    built if its training rows carry block Grams (else None).

    The fold fits its space over the config's blocks and vectorizes its
    training rows and the held-out text in one call (``fold_vectors``),
    unless ``kept`` holds them from an earlier call; in a verifier study
    with DRO off, the training rows also carry their block Grams
    (``Vectors.add_grams``). Each pool takes its rows from those
    (``Vectors.restricted``). A pool's seconds include the shared work.
    ``instances`` holds every training text's instances (``text_instances``).
    """
    start = time.perf_counter()
    fold_seed = stable_seed(master_seed, study.seed_label, held_out.id)
    train_docs = [d for d in study.texts if d.id != held_out.id]
    held_out_class = study.class_of(held_out)
    if all(study.class_of(d) != held_out_class for d in train_docs):
        reason = f"class {held_out_class} absent from training set"
        log.warning("skipping fold %s: %s", held_out.id, reason)
        return [(None, reason, time.perf_counter() - start)] * len(pools), None

    if kept is None:
        fold_train, fold_text = fold_vectors(train_docs, [held_out], config, cache, instances)
        if isinstance(study.class_of, VerificationClasses) and config.dro is None:
            fold_train.add_grams()
    else:
        fold_train, fold_text = kept
    shared = time.perf_counter() - start
    out = []
    for blocks in pools:
        pool_start = time.perf_counter()
        space, columns = fold_train.space.restricted_to(blocks)
        train = fold_train.restricted(space, columns)
        fitted = study.fit(train, config, fold_seed)
        text = fold_text.restricted(space, columns)
        record = TextPrediction(
            text_id=held_out.id,
            author=held_out.author,
            true_class=held_out_class,
            prediction=predict_document(fitted, text, fold_seed),
            fitted_C=fitted.chosen_C,
            inner_cv_f1=fitted.inner_cv_f1,
            columns_per_block=tuple((b.value, e - s) for b, s, e in space.block_offsets),
            training_rows=len(fitted.training_instance_ids),
            synthetic_positives=fitted.synthetic_positives,
            converged=fitted.model.converged,
            n_iter=fitted.model.n_iter,
        )
        del train, fitted, text  # one pool's model and rows alive at a time
        out.append((record, None, shared + time.perf_counter() - pool_start))
    return out, (fold_train, fold_text) if kept is None and fold_train.grams is not None else None


def run_folds(
    study: LooStudy,
    config: PipelineConfig,
    pools: Sequence[Sequence[FeatureBlock]],
    seed: int,
    threads: int = 1,
    text_ids: Sequence[str] | None = None,
    cache: CountsCache | None = None,
    states: HardestFoldStates | None = None,
) -> tuple[list[Document], list[list[FoldOutcome]], dict[str, tuple[Instance, ...]]]:
    """The held-out texts, for each pool their folds' outcomes in that order,
    and the instances of every text that trains in some fold (``text_instances``).

    ``text_ids`` restricts which of the study's texts are held out; each
    fold still trains on all the others. A shared ``cache`` must extract the
    config's blocks as the config does (``counts_cache_for``). ``states``
    keeps fold vectors between calls (``HardestFoldStates``); the instances
    are built by every call, whatever it keeps. Folds only read: this call
    builds the store's rows and matrix and reads each fold's kept vectors
    before dispatch, and offers the vectors a fold built as it returns.
    """
    texts = study.texts
    if text_ids is not None:
        wanted = set(text_ids)
        missing = wanted - {d.id for d in texts}
        if missing:
            raise EvaluationError(f"unknown or unlabelled text ids: {sorted(missing)}")
        folds = [d for d in texts if d.id in wanted]
    else:
        folds = list(texts)
    if len(texts) < 2:
        raise EvaluationError("leave-one-out needs at least two labelled texts")
    if not folds:
        raise EvaluationError("text_ids selects no text to hold out")
    if threads < 1:
        raise EvaluationError(f"threads must be at least 1, got {threads}")
    for blocks in pools:
        if not blocks or not set(blocks) <= config.features.enabled_blocks:
            raise EvaluationError(
                f"pool {[b.value for b in blocks]} is not a nonempty subset of the config's blocks"
            )
    cache = counts_cache_for(config.features, cache)
    fold_ids = {d.id for d in folds}
    trained = [d for d in texts if fold_ids - {d.id}]
    # Segment each text that trains in some fold once, and extract every
    # instance the folds read, then build the store's matrix, before
    # dispatching them, so that folds only read the store: those texts'
    # instances, plus each held-out text in full.
    instances = text_instances(trained, config.segmentation)
    cache.rows(document_instances(trained, config.segmentation, instances))
    cache.rows(Instance(doc=d) for d in folds)
    cache.counts()
    kept = [None if states is None else states.get(d.id) for d in folds]

    def fold_outcomes(doc: Document, doc_kept: tuple[Vectors, Vectors] | None):
        return _run_fold(study, doc, config, pools, cache, seed, instances, doc_kept)

    workers = min(threads, _usable_cpus(), len(folds))
    results = []
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for outcomes, built in (pool.map if pool else map)(fold_outcomes, folds, kept):
            if built is not None and states is not None:
                states.offer(outcomes[0][0], built)
            results.append(outcomes)
    return folds, [[fold[i] for fold in results] for i in range(len(pools))], instances


def loo_pools(
    corpus: Corpus,
    config: PipelineConfig,
    pools: Sequence[Sequence[FeatureBlock]],
    seed: int,
    threads: int = 1,
    text_ids: Sequence[str] | None = None,
    cache: CountsCache | None = None,
    states: HardestFoldStates | None = None,
) -> list[LooReport]:
    """Leave-one-out verification of each block pool: one report per pool.

    Each pool is a subset of the config's blocks, and its report equals
    ``loo_run`` on ``config.with_blocks(pool)``; one pass over the folds
    (``run_folds``) scores them all. Every labelled text gets a fold unless
    ``text_ids`` says otherwise; disputed texts never participate.
    ``states`` carries fold vectors between calls (``run_folds``).
    """
    target = config.target_author
    if target is None:
        raise EvaluationError("leave-one-out needs a target_author in the pipeline config")
    # Built per call, so the study uses whatever fit_verifier names now.
    study = LooStudy(
        texts=tuple(corpus.labelled()),
        seed_label="loo",
        fit=fit_verifier,
        class_of=VerificationClasses(target),
    )
    folds, outcomes, instances = run_folds(
        study, config, pools, seed, threads, text_ids, cache, states
    )
    full_only = full_text_only_count(instances)
    return [
        _report(corpus, target, seed, folds, pool_outcomes, full_only) for pool_outcomes in outcomes
    ]


def _report(
    corpus: Corpus,
    target_author: str,
    seed: int,
    folds: Sequence[Document],
    outcomes: Sequence[FoldOutcome],
    full_text_only_count: int,
) -> LooReport:
    """One pool's report from its folds' outcomes, in corpus order."""
    records: list[TextPrediction] = []
    skipped: list[tuple[str, str]] = []
    fold_seconds: dict[str, float] = {}
    for doc, (record, reason, seconds) in zip(folds, outcomes):
        fold_seconds[doc.id] = seconds
        if record is None:
            skipped.append((doc.id, reason or "skipped"))
        else:
            records.append(record)
    return LooReport(
        target_author, seed, corpus.fingerprint(), tuple(records), tuple(skipped), fold_seconds,
        full_text_only_count,
    )


def loo_run(
    corpus: Corpus,
    config: PipelineConfig,
    seed: int,
    threads: int = 1,
    text_ids: Sequence[str] | None = None,
    cache: CountsCache | None = None,
    states: HardestFoldStates | None = None,
) -> LooReport:
    """Leave-one-out evaluation over labelled texts: ``loo_pools`` with one
    pool, the config's blocks.
    """
    (report,) = loo_pools(
        corpus, config, [config.features.blocks_in_order()], seed,
        threads=threads, text_ids=text_ids, cache=cache, states=states,
    )
    return report
