"""Leave-one-out evaluation of the authorship verifier.

One fold per labelled text: the verifier is trained on every other text
plus the segments derived from those texts (the held-out text contributes
no segments, and the feature space, IDF statistics, oversampling
profiles, and hyperparameter C are all refit from scratch inside the
fold), then applied to the held-out text in full. Folds are independent
and run on a thread pool of at most ``threads`` workers, capped at the CPU
count and the number of folds; each derives its own randomness from
(master seed, held-out id), so reports are byte-identical regardless of
thread count.

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
from dataclasses import dataclass
from typing import Callable, Sequence

from .corpus import Corpus, Document, segment
from .errors import EvaluationError
from .features import FeatureBlock, Instance
from .metrics import ContingencyTable, f1, soft_f1, vanilla_accuracy
from .pipeline import (
    CountsCache, FittedVerifier, PipelineConfig, counts_cache_for, document_instances,
    fit_verifier, predict_document, training_documents, training_vectors,
)
from .rng import stable_seed

log = logging.getLogger(__name__)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


@dataclass
class TextPrediction:
    """Per-fold outcome for one held-out text."""

    text_id: str
    author: str
    true_class: str
    predicted_class: str
    positive_posterior: float
    fitted_C: float
    inner_cv_f1: tuple[tuple[float, float], ...]  # (C, inner-CV F1), ascending C
    training_rows: int  # after oversampling
    synthetic_positives: int
    converged: bool  # of the final fit
    n_iter: int

    def correct(self) -> bool:
        return self.true_class == self.predicted_class

    def confidence_in_true_class(self, positive_class: str) -> float:
        if self.true_class == positive_class:
            return self.positive_posterior
        return 1.0 - self.positive_posterior


def _metrics(
    records: Sequence[TextPrediction], target_author: str
) -> tuple[ContingencyTable, float, float, float]:
    """(contingency table, F1, soft F1, vanilla accuracy) of LOO records."""
    y_true = [1 if r.true_class == target_author else 0 for r in records]
    y_pred = [1 if r.predicted_class == target_author else 0 for r in records]
    posteriors = [r.positive_posterior for r in records]
    table = ContingencyTable.from_predictions(y_true, y_pred)
    return table, f1(table), soft_f1(y_true, posteriors), vanilla_accuracy(table)


@dataclass
class LooReport:
    target_author: str
    seed: int
    corpus_fingerprint: str
    records: tuple[TextPrediction, ...]
    skipped: tuple[tuple[str, str], ...]  # (text id, reason)
    table: ContingencyTable
    f1: float
    soft_f1: float
    vanilla_accuracy: float
    fold_seconds: dict[str, float]

    def hardest_texts(self, k: int | None = None) -> list[tuple[str, str, bool, float]]:
        """(id, author, correct?, confidence in true class), hardest first."""
        rows = [
            (
                r.text_id,
                r.author,
                r.correct(),
                r.confidence_in_true_class(self.target_author),
            )
            for r in self.records
        ]
        rows.sort(key=lambda row: (row[3], row[0]))
        return rows if k is None else rows[:k]

    def recompute_metrics(self) -> tuple[ContingencyTable, float, float, float]:
        """Rebuild all aggregate numbers from the per-text records."""
        return _metrics(self.records, self.target_author)

    def canonical_dict(self) -> dict:
        """Deterministic payload: everything but the fold timings."""
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


def _run_fold(
    corpus: Corpus,
    held_out: Document,
    config: PipelineConfig,
    pools: Sequence[Sequence[FeatureBlock]],
    cache: CountsCache,
    master_seed: int,
    fold_listener: Callable[[str, FittedVerifier], None] | None,
) -> list[tuple[TextPrediction | None, str | None, float]]:
    """One fold for each pool: (record, skip reason, wall seconds) per pool.

    The fold fits its space and vectorizes once over the config's blocks;
    each pool slices its columns from those rows. A pool's seconds include
    that shared work.
    """
    start = time.perf_counter()
    fold_seed = stable_seed(master_seed, "loo", held_out.id)
    train_docs = training_documents(corpus, exclude_ids=[held_out.id])
    target = config.target_author
    has_pos = any(d.author == target for d in train_docs)
    has_neg = any(d.author != target for d in train_docs)
    if not (has_pos and has_neg):
        reason = (
            f"class {'positive' if not has_pos else 'negative'} absent from training set"
        )
        log.warning("skipping fold %s: %s", held_out.id, reason)
        return [(None, reason, time.perf_counter() - start)] * len(pools)

    full_train = training_vectors(train_docs, config, cache)
    full_text = cache.vectorize([Instance(doc=held_out)], full_train.space)
    shared = time.perf_counter() - start
    out = []
    for blocks in pools:
        pool_start = time.perf_counter()
        space, columns = full_train.space.restricted_to(blocks)
        fitted = fit_verifier(full_train.restricted(space, columns, cache), config, fold_seed)
        if fold_listener is not None:
            fold_listener(held_out.id, fitted)
        text = full_text.restricted(space, columns, cache)
        prediction = predict_document(fitted, text, fold_seed)
        true_class = target if held_out.author == target else fitted.model.classes[0]
        record = TextPrediction(
            text_id=held_out.id,
            author=held_out.author,
            true_class=true_class,
            predicted_class=prediction.predicted_class,
            positive_posterior=prediction.positive_posterior,
            fitted_C=fitted.chosen_C,
            inner_cv_f1=fitted.inner_cv_f1,
            training_rows=len(fitted.training_instance_ids),
            synthetic_positives=fitted.synthetic_positives,
            converged=fitted.model.converged,
            n_iter=fitted.model.n_iter,
        )
        del fitted, text  # one pool's model and rows alive at a time
        out.append((record, None, shared + time.perf_counter() - pool_start))
    return out


def loo_pools(
    corpus: Corpus,
    config: PipelineConfig,
    pools: Sequence[Sequence[FeatureBlock]],
    seed: int,
    threads: int = 1,
    fold_listener: Callable[[str, FittedVerifier], None] | None = None,
    text_ids: Sequence[str] | None = None,
    cache: CountsCache | None = None,
) -> list[LooReport]:
    """Leave-one-out evaluation of each block pool: one report per pool.

    Each pool is a subset of the config's blocks, and its report equals
    ``loo_run`` on ``config.with_blocks(pool)``; one pass over the folds
    scores them all. ``text_ids`` restricts which texts are held out (each
    remaining fold still trains on everything else); by default every
    labelled text gets a fold. Disputed texts never participate. A shared
    ``cache`` must extract the config's blocks as the config does
    (``counts_cache_for``). ``fold_listener(text_id, fitted)`` sees each
    fold's fitted verifier, once per pool.
    """
    if config.target_author is None:
        raise EvaluationError("leave-one-out needs a target_author in the pipeline config")
    labelled = corpus.labelled()
    if text_ids is not None:
        wanted = set(text_ids)
        missing = wanted - {d.id for d in labelled}
        if missing:
            raise EvaluationError(f"unknown or unlabelled text ids: {sorted(missing)}")
        folds = [d for d in labelled if d.id in wanted]
    else:
        folds = labelled
    if len(labelled) < 2:
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
    # no two fold threads extract the same instance: each labelled text that
    # trains in some fold, plus each held-out text in full.
    fold_ids = {d.id for d in folds}
    trained = [d for d in labelled if fold_ids - {d.id}]
    cache.rows(document_instances(trained, config.segmentation))
    cache.rows(Instance(doc=d) for d in folds)

    def work(doc: Document):
        return doc.id, _run_fold(corpus, doc, config, pools, cache, seed, fold_listener)

    with ThreadPoolExecutor(max_workers=min(threads, _usable_cpus(), len(folds))) as pool:
        results = dict(pool.map(work, folds))
    return [
        _report(corpus, config.target_author, seed, folds, [results[d.id][i] for d in folds])
        for i in range(len(pools))
    ]


def _report(
    corpus: Corpus,
    target_author: str,
    seed: int,
    folds: Sequence[Document],
    outcomes: Sequence[tuple[TextPrediction | None, str | None, float]],
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

    if not records:
        raise EvaluationError("every fold was skipped; nothing to evaluate")
    table, f1_score, soft_f1_score, accuracy = _metrics(records, target_author)
    return LooReport(
        target_author=target_author,
        seed=seed,
        corpus_fingerprint=corpus.fingerprint(),
        records=tuple(records),
        skipped=tuple(skipped),
        table=table,
        f1=f1_score,
        soft_f1=soft_f1_score,
        vanilla_accuracy=accuracy,
        fold_seconds=fold_seconds,
    )


def loo_run(
    corpus: Corpus,
    config: PipelineConfig,
    seed: int,
    threads: int = 1,
    fold_listener: Callable[[str, FittedVerifier], None] | None = None,
    text_ids: Sequence[str] | None = None,
    cache: CountsCache | None = None,
) -> LooReport:
    """Leave-one-out evaluation over labelled texts: ``loo_pools`` with one
    pool, the config's blocks.
    """
    (report,) = loo_pools(
        corpus, config, [config.features.blocks_in_order()], seed,
        threads=threads, fold_listener=fold_listener, text_ids=text_ids, cache=cache,
    )
    return report


def held_out_segment_ids(doc: Document, min_tokens: int) -> set[str]:
    """Instance ids the held-out text would contribute if it were trained on."""
    ids = {doc.id}
    for seg in segment(doc, min_tokens):
        ids.add(seg.instance_id)
    return ids
