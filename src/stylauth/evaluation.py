"""Leave-one-out evaluation of the verifier and the attributor.

One fold per text of a study (``LooStudy``): the fold fits the study's
verifier or attributor on every other text plus the segments derived from
those texts (the held-out text contributes no segments, and the feature
space, IDF statistics, oversampling profiles, and hyperparameter C are all
refit from scratch inside the fold), then applies it to the held-out text
in full. Folds are independent and run on a thread pool of at most
``threads`` workers, capped at the CPU count and the number of folds; one
worker runs them inline, with no pool. Each fold derives its own
randomness from (master seed, study label, held-out id), so reports are
byte-identical regardless of thread count.

One pass over the folds can score several feature-block pools
(``loo_pools``): a fold fits its space and vectorizes once, over the
config's blocks, and each pool slices its columns from those rows, which
equals fitting the pool's space directly. ``loo_run`` is the one-pool case.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .corpus import Corpus, Document
from .errors import EvaluationError
from .features import FeatureBlock, Instance
from .learner import Prediction
from .metrics import ContingencyTable, f1, soft_f1, vanilla_accuracy
from .pipeline import (
    CountsCache, FittedClassifier, PipelineConfig, Vectors, VerificationClasses,
    counts_cache_for, document_instances, fit_verifier, fold_vectors, predict_document,
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


@dataclass
class LooReport:
    """One pool's verification LOO; its scores are computed from its records."""

    target_author: str
    seed: int
    corpus_fingerprint: str
    records: tuple[TextPrediction, ...]
    skipped: tuple[tuple[str, str], ...]  # (text id, reason)
    fold_seconds: dict[str, float]
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
        rows = [(r.text_id, r.author, r.correct(), r.true_class_posterior) for r in self.records]
        rows.sort(key=lambda row: (row[3], row[0]))
        return rows if k is None else rows[:k]

    def canonical_dict(self) -> dict:
        """Deterministic payload: everything but the fold timings.

        The other reports' payloads are ``dataclasses.asdict`` of them. This
        one is built by hand, because each record's ``predicted_class`` and
        ``positive_posterior`` are derived from its prediction, not fields,
        and ``fold_seconds`` belong in the report's ``timing`` section.
        """
        return {
            "target_author": self.target_author,
            "seed": self.seed,
            "corpus_fingerprint": self.corpus_fingerprint,
            "records": [
                {
                    "text_id": r.text_id,
                    "author": r.author,
                    "true_class": r.true_class,
                    "predicted_class": r.predicted_class,
                    "positive_posterior": r.positive_posterior,
                    "fitted_C": r.fitted_C,
                    "inner_cv_f1": [list(pair) for pair in r.inner_cv_f1],
                    "columns_per_block": [list(pair) for pair in r.columns_per_block],
                    "training_rows": r.training_rows,
                    "synthetic_positives": r.synthetic_positives,
                    "converged": r.converged,
                    "n_iter": r.n_iter,
                }
                for r in self.records
            ],
            "skipped": [list(s) for s in self.skipped],
            "contingency": {
                "tp": self.table.tp,
                "fp": self.table.fp,
                "fn": self.table.fn,
                "tn": self.table.tn,
            },
            "f1": self.f1,
            "soft_f1": self.soft_f1,
            "vanilla_accuracy": self.vanilla_accuracy,
            "hardest_texts": [list(row) for row in self.hardest_texts()],
        }


@dataclass(frozen=True)
class LooStudy:
    """What a leave-one-out study varies; the fold protocol is shared."""

    texts: tuple[Document, ...]  # each trains in every fold but its own
    seed_label: str  # a fold's seed is stable_seed(master seed, seed_label, held-out id)
    fit: Callable[[Vectors, PipelineConfig, int], FittedClassifier]
    class_of: Callable[[Document], str]  # a text's class among the fit's classes


FoldOutcome = tuple[TextPrediction | None, str | None, float]  # record, skip reason, seconds


def _run_fold(
    study: LooStudy,
    held_out: Document,
    config: PipelineConfig,
    pools: Sequence[Sequence[FeatureBlock]],
    cache: CountsCache,
    master_seed: int,
) -> list[FoldOutcome]:
    """One fold for each pool, in pool order.

    The fold fits its space over the config's blocks and vectorizes its
    training rows and the held-out text in one call; each pool slices its
    columns from those rows. A pool's seconds include that shared work.
    """
    start = time.perf_counter()
    fold_seed = stable_seed(master_seed, study.seed_label, held_out.id)
    train_docs = [d for d in study.texts if d.id != held_out.id]
    held_out_class = study.class_of(held_out)
    if all(study.class_of(d) != held_out_class for d in train_docs):
        reason = f"class {held_out_class} absent from training set"
        log.warning("skipping fold %s: %s", held_out.id, reason)
        return [(None, reason, time.perf_counter() - start)] * len(pools)

    full_train, full_text = fold_vectors(train_docs, [held_out], config, cache)
    shared = time.perf_counter() - start
    out = []
    for blocks in pools:
        pool_start = time.perf_counter()
        space, columns = full_train.space.restricted_to(blocks)
        fitted = study.fit(full_train.restricted(space, columns), config, fold_seed)
        text = full_text.restricted(space, columns)
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
        del fitted, text  # one pool's model and rows alive at a time
        out.append((record, None, shared + time.perf_counter() - pool_start))
    return out


def run_folds(
    study: LooStudy,
    config: PipelineConfig,
    pools: Sequence[Sequence[FeatureBlock]],
    seed: int,
    threads: int = 1,
    text_ids: Sequence[str] | None = None,
    cache: CountsCache | None = None,
) -> tuple[list[Document], list[list[FoldOutcome]]]:
    """The held-out texts, and for each pool their folds' outcomes in that order.

    ``text_ids`` restricts which of the study's texts are held out; each
    fold still trains on all the others. A shared ``cache`` must extract the
    config's blocks as the config does (``counts_cache_for``).
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
    # Extract every instance the folds read before dispatching them, so that
    # no two fold threads extract the same instance: each text that trains
    # in some fold, plus each held-out text in full.
    fold_ids = {d.id for d in folds}
    trained = [d for d in texts if fold_ids - {d.id}]
    cache.rows(document_instances(trained, config.segmentation))
    cache.rows(Instance(doc=d) for d in folds)

    def fold_outcomes(doc: Document) -> list[FoldOutcome]:
        return _run_fold(study, doc, config, pools, cache, seed)

    workers = min(threads, _usable_cpus(), len(folds))
    if workers == 1:
        results = list(map(fold_outcomes, folds))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fold_outcomes, folds))
    return folds, [[fold[i] for fold in results] for i in range(len(pools))]


def loo_pools(
    corpus: Corpus,
    config: PipelineConfig,
    pools: Sequence[Sequence[FeatureBlock]],
    seed: int,
    threads: int = 1,
    text_ids: Sequence[str] | None = None,
    cache: CountsCache | None = None,
) -> list[LooReport]:
    """Leave-one-out verification of each block pool: one report per pool.

    Each pool is a subset of the config's blocks, and its report equals
    ``loo_run`` on ``config.with_blocks(pool)``; one pass over the folds
    (``run_folds``) scores them all. Every labelled text gets a fold unless
    ``text_ids`` says otherwise; disputed texts never participate.
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
    folds, outcomes = run_folds(study, config, pools, seed, threads, text_ids, cache)
    return [_report(corpus, target, seed, folds, pool_outcomes) for pool_outcomes in outcomes]


def _report(
    corpus: Corpus,
    target_author: str,
    seed: int,
    folds: Sequence[Document],
    outcomes: Sequence[FoldOutcome],
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
        target_author, seed, corpus.fingerprint(), tuple(records), tuple(skipped), fold_seconds
    )


def loo_run(
    corpus: Corpus,
    config: PipelineConfig,
    seed: int,
    threads: int = 1,
    text_ids: Sequence[str] | None = None,
    cache: CountsCache | None = None,
) -> LooReport:
    """Leave-one-out evaluation over labelled texts: ``loo_pools`` with one
    pool, the config's blocks.
    """
    (report,) = loo_pools(
        corpus, config, [config.features.blocks_in_order()], seed,
        threads=threads, text_ids=text_ids, cache=cache,
    )
    return report
