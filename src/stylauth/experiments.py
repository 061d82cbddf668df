"""The four studies: feature ablation, disputed-text verification,
authorship attribution, and most-similar-text ranking.

Greedy iterative ablation evaluates the current feature-block pool, then
every pool missing one block; the best removal survives whenever its
score does not fall below the current pool's score, and the loop repeats
until any removal would hurt. The exact mode scores pools by full
leave-one-out F1. The hardest-10 mode first runs one full-pool LOO, keeps
the ten texts with the lowest confidence in their true class, and scores
candidate pools by LOO restricted to those ten texts (vanilla accuracy,
ties broken by mean confidence in the true class), which trades
exhaustiveness for tractable runtimes on large corpora. One pass over the
folds scores every candidate pool of a step (``loo_pools``): each fold
fits its features once over the current pool and gives each candidate
its blocks. In hardest-10 mode the full LOO keeps the fold vectors of
the ten hardest texts so far (``HardestFoldStates``), whose training rows
carry their per-block Gram matrices, and those serve every later step, so
each labelled text's fold is vectorized once.
"""

from __future__ import annotations

import logging
import operator
import statistics
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Corpus, Document
from .errors import ExperimentError
from .evaluation import (
    HardestFoldStates, LooReport, LooStudy, TextPrediction, loo_pools, loo_run, run_folds,
)
from .features import FeatureBlock, cosine_similarity
# Unused here, but bench/layers.py wraps this name; a traced run fails without it.
from .features import fit_feature_space_from_counts  # noqa: F401
from .metrics import macro_f1, per_class_tables
from .pipeline import (
    CountsCache,
    PipelineConfig,
    counts_cache_for,
    fit_attributor,
    fit_verifier,
    fold_vectors,
    predict_document,
    training_documents,
)
from .rng import stable_seed

log = logging.getLogger(__name__)

ABLATION_EXACT = "exact"
ABLATION_HARDEST10 = "hardest10"

HARDEST_POOL_SIZE = 10


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------


@dataclass
class AblationIteration:
    pool: tuple[FeatureBlock, ...]
    pool_score: tuple[float, ...]
    candidate_scores: dict[FeatureBlock, tuple[float, ...]]
    removed: FeatureBlock
    removed_score: tuple[float, ...]


@dataclass
class AblationReport:
    mode: str
    seed: int
    initial_pool: tuple[FeatureBlock, ...]
    final_pool: tuple[FeatureBlock, ...]
    final_score: tuple[float, ...]
    iterations: tuple[AblationIteration, ...]
    stop_candidate_scores: dict[FeatureBlock, tuple[float, ...]] | None
    hardest_text_ids: tuple[str, ...] | None


def _restricted_score(records: Sequence[TextPrediction]) -> tuple[float, ...]:
    """Vanilla accuracy over ``records``, ties broken by mean confidence in the true class."""
    confidences = [r.true_class_posterior for r in records]
    accuracy = sum(r.correct() for r in records) / len(records)
    return (accuracy, float(np.mean(confidences)))


def ablate(
    corpus: Corpus,
    initial_pool: Sequence[FeatureBlock],
    config: PipelineConfig,
    mode: str = ABLATION_EXACT,
    seed: int = 0,
    threads: int = 1,
) -> AblationReport:
    """Greedily drop feature blocks while the score does not decrease."""
    if mode not in (ABLATION_EXACT, ABLATION_HARDEST10):
        raise ExperimentError(f"unknown ablation mode {mode!r}")
    pool = tuple(b for b in FeatureBlock if b in set(initial_pool))
    if not pool:
        raise ExperimentError("initial pool is empty")

    # Every pool scored below is a subset of the initial one, so one cache
    # built for the initial pool serves them all.
    cache = CountsCache(config.with_blocks(pool).features)

    def score(report: LooReport) -> tuple[float, ...]:
        if hardest_ids is None:
            return (report.f1,)
        records = [r for r in report.records if r.text_id in hardest_ids]
        return _restricted_score(records)

    # A restricted fold trains on every other text, as the full LOO's fold
    # did, so in hardest-10 mode the full LOO also scores the initial pool,
    # and each hardest text's fold vectors from it (its rows over the
    # initial pool's space, carrying their block Grams) serve every later step.
    states = HardestFoldStates(HARDEST_POOL_SIZE) if mode == ABLATION_HARDEST10 else None
    initial = loo_run(
        corpus, config.with_blocks(pool), seed, threads=threads, cache=cache, states=states
    )
    hardest_ids: tuple[str, ...] | None = None
    if mode == ABLATION_HARDEST10:
        hardest_ids = tuple(row[0] for row in initial.hardest_texts(HARDEST_POOL_SIZE))
        log.info("hardest texts for ablation: %s", ", ".join(hardest_ids))

    iterations: list[AblationIteration] = []
    current_score = score(initial)
    stop_scores: dict[FeatureBlock, tuple[float, ...]] | None = None
    while len(pool) > 1:
        candidates = [tuple(b for b in pool if b is not block) for block in pool]
        reports = loo_pools(
            corpus, config.with_blocks(pool), candidates, seed,
            threads=threads, text_ids=hardest_ids, cache=cache, states=states,
        )
        candidate_scores = {block: score(report) for block, report in zip(pool, reports)}
        best_block = max(pool, key=lambda b: candidate_scores[b])
        # max() keeps the earliest maximal block, making ties deterministic
        best_score = candidate_scores[best_block]
        if best_score >= current_score:
            iterations.append(
                AblationIteration(
                    pool=pool,
                    pool_score=current_score,
                    candidate_scores=candidate_scores,
                    removed=best_block,
                    removed_score=best_score,
                )
            )
            pool = tuple(b for b in pool if b is not best_block)
            current_score = best_score
            log.info("ablation removed %s (score %s)", best_block.value, best_score)
        else:
            stop_scores = candidate_scores
            break

    return AblationReport(
        mode=mode,
        seed=seed,
        initial_pool=tuple(b for b in FeatureBlock if b in set(initial_pool)),
        final_pool=pool,
        final_score=current_score,
        iterations=tuple(iterations),
        stop_candidate_scores=stop_scores,
        hardest_text_ids=hardest_ids,
    )


# ---------------------------------------------------------------------------
# Disputed-text verification
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    disputed_id: str
    target_author: str
    replica_posteriors: tuple[float, ...]
    median_posterior: float
    predicted_class: str
    seed: int
    corpus_fingerprint: str

    @property
    def n_replicas(self) -> int:
        return len(self.replica_posteriors)


def _get_disputed(corpus: Corpus, disputed_id: str) -> Document:
    if disputed_id not in corpus:
        raise ExperimentError(
            f"no text with id {disputed_id!r} in the corpus; a disputed text must "
            "be listed in the manifest with author UNKNOWN"
        )
    doc = corpus.get(disputed_id)
    if not doc.is_disputed:
        raise ExperimentError(
            f"text {disputed_id!r} is labelled (author {doc.author!r}); refusing to "
            "treat a training text as disputed"
        )
    return doc


def verify_disputed(
    corpus: Corpus,
    disputed_id: str,
    config: PipelineConfig,
    n_replicas: int = 10,
    seed: int = 0,
    cache: CountsCache | None = None,
) -> Verdict:
    """Train on all labelled texts and classify the disputed one.

    With oversampling enabled, the disputed vector is extended
    ``n_replicas`` times with distinct derived seeds and the verdict is
    taken from the median posterior; without it the prediction is
    deterministic and a single replica is produced.
    """
    if n_replicas < 1:
        raise ExperimentError("n_replicas must be >= 1")
    disputed = _get_disputed(corpus, disputed_id)
    cache = counts_cache_for(config.features, cache)
    train, text = fold_vectors(training_documents(corpus), [disputed], config, cache)
    fitted = fit_verifier(train, config, stable_seed(seed, "verify"))

    replicas = n_replicas if fitted.uses_dro else 1
    posteriors = [
        predict_document(fitted, text, stable_seed(seed, "verify"), replica=i).positive_posterior
        for i in range(replicas)
    ]
    median = float(statistics.median(posteriors))
    predicted = fitted.model.classes[1] if median > 0.5 else fitted.model.classes[0]
    return Verdict(
        disputed_id=disputed_id,
        target_author=config.target_author,
        replica_posteriors=tuple(posteriors),
        median_posterior=median,
        predicted_class=predicted,
        seed=seed,
        corpus_fingerprint=corpus.fingerprint(),
    )


# ---------------------------------------------------------------------------
# Authorship attribution
# ---------------------------------------------------------------------------


@dataclass
class AttributionResult:
    disputed_id: str
    min_texts_per_author: int
    candidate_authors: tuple[str, ...]
    ranking: tuple[tuple[str, float], ...]  # (author, posterior), descending
    fitted_C: float
    seed: int
    corpus_fingerprint: str


def candidate_authors(corpus: Corpus, min_texts_per_author: int) -> list[str]:
    """The authors with at least ``min_texts_per_author`` labelled texts; at least two."""
    counts = corpus.authors()
    candidates = sorted(a for a, n in counts.items() if n >= min_texts_per_author)
    if len(candidates) < 2:
        raise ExperimentError(
            f"need at least 2 candidate authors with >= {min_texts_per_author} texts, "
            f"found {len(candidates)}"
        )
    return candidates


def attribute_disputed(
    corpus: Corpus,
    disputed_id: str,
    config: PipelineConfig,
    min_texts_per_author: int = 1,
    seed: int = 0,
    cache: CountsCache | None = None,
) -> AttributionResult:
    """Rank candidate authors by posterior probability on the disputed text.

    Candidates are the authors with at least ``min_texts_per_author``
    labelled texts; the attributor trains on exactly their texts (plus
    segments) and never uses oversampling.
    """
    if min_texts_per_author < 1:
        raise ExperimentError(
            f"min_texts_per_author must be at least 1, got {min_texts_per_author}"
        )
    disputed = _get_disputed(corpus, disputed_id)
    candidates = candidate_authors(corpus, min_texts_per_author)
    cache = counts_cache_for(config.features, cache)
    train, text = fold_vectors(
        training_documents(corpus, authors=candidates), [disputed], config, cache
    )
    fitted = fit_attributor(train, config, stable_seed(seed, "attribute"))
    prediction = predict_document(fitted, text, stable_seed(seed, "attribute"))
    order = np.argsort(-prediction.posteriors)
    ranking = tuple(
        (prediction.classes[int(i)], float(prediction.posteriors[int(i)])) for i in order
    )
    return AttributionResult(
        disputed_id=disputed_id,
        min_texts_per_author=min_texts_per_author,
        candidate_authors=fitted.model.classes,
        ranking=ranking,
        fitted_C=fitted.chosen_C,
        seed=seed,
        corpus_fingerprint=corpus.fingerprint(),
    )


@dataclass
class AttributionLooReport:
    """Attribution LOO over candidate authors; its scores are computed from its records."""

    authors: tuple[str, ...]
    records: tuple[tuple[str, str, str, float], ...]  # (id, true, predicted, conf in true)
    seed: int
    corpus_fingerprint: str
    matrix: np.ndarray = field(init=False)  # rows = true author, columns = predicted author
    macro_f1: float = field(init=False)
    vanilla_accuracy: float = field(init=False)
    correct_count: int = field(init=False)
    total_count: int = field(init=False)

    def __post_init__(self) -> None:
        index = {a: i for i, a in enumerate(self.authors)}
        self.matrix = np.zeros((len(self.authors), len(self.authors)), dtype=np.int64)
        for _, true, predicted, _ in self.records:
            self.matrix[index[true], index[predicted]] += 1
        y_true = [true for _, true, _, _ in self.records]
        y_pred = [predicted for _, _, predicted, _ in self.records]
        self.macro_f1 = macro_f1(per_class_tables(y_true, y_pred, self.authors))
        self.correct_count = int(np.trace(self.matrix))
        self.total_count = len(self.records)
        self.vanilla_accuracy = self.correct_count / self.total_count

def attribution_contingency(
    corpus: Corpus,
    config: PipelineConfig,
    min_texts_per_author: int = 2,
    seed: int = 0,
    cache: CountsCache | None = None,
) -> AttributionLooReport:
    """Leave-one-out attribution over candidate authors' texts (``run_folds``).

    Each fold trains an attributor on the other candidates' texts, so every
    candidate needs a text besides the held-out one.
    """
    if min_texts_per_author < 2:
        raise ExperimentError(
            f"attribution LOO needs min_texts_per_author >= 2, got {min_texts_per_author}"
        )
    candidates = candidate_authors(corpus, min_texts_per_author)
    study = LooStudy(
        texts=tuple(training_documents(corpus, authors=candidates)),
        seed_label="aa-loo",
        fit=fit_attributor,
        class_of=operator.attrgetter("author"),
    )
    pool = config.features.blocks_in_order()
    _, (outcomes,), _ = run_folds(study, config, [pool], seed, cache=cache)
    # No fold is skipped: every candidate has a text besides the held-out one.
    records = tuple(
        (r.text_id, r.true_class, r.predicted_class, r.true_class_posterior)
        for r, _, _ in outcomes
    )
    return AttributionLooReport(tuple(candidates), records, seed, corpus.fingerprint())


# ---------------------------------------------------------------------------
# Similarity ranking
# ---------------------------------------------------------------------------


@dataclass
class SimilarityRanking:
    disputed_id: str
    entries: tuple[tuple[str, str, str, float], ...]  # (id, author, title, cosine)
    corpus_fingerprint: str


def rank_similar(
    corpus: Corpus,
    disputed_id: str,
    config: PipelineConfig,
    top_k: int | None = 10,
    cache: CountsCache | None = None,
) -> SimilarityRanking:
    """Rank labelled full texts by cosine similarity to the disputed text.

    Rows are natural TFIDF representations over a space fitted on all
    labelled texts and segments (``fold_vectors``, as for verification and
    attribution); latent oversampling features are never involved in
    similarity.
    """
    if top_k is not None and top_k < 1:
        raise ExperimentError(f"top_k must be at least 1, got {top_k}")
    disputed = _get_disputed(corpus, disputed_id)
    cache = counts_cache_for(config.features, cache)
    docs = training_documents(corpus)
    _, texts = fold_vectors(docs, [disputed, *docs], config, cache)
    X = texts.X
    disputed_row = X[0]
    if disputed_row.nnz == 0:
        raise ExperimentError(
            f"the disputed text {disputed_id!r} has an all-zero vector in this space"
        )
    scored = [
        (doc.id, doc.author, doc.title, cosine_similarity(disputed_row, X[i]))
        for i, doc in enumerate(docs, start=1)
    ]
    scored.sort(key=lambda row: (-row[3], row[0]))
    if top_k is not None:
        scored = scored[:top_k]
    return SimilarityRanking(
        disputed_id=disputed_id,
        entries=tuple(scored),
        corpus_fingerprint=corpus.fingerprint(),
    )
