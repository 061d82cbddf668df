"""Ablation, disputed-text verification, attribution, similarity ranking."""

from __future__ import annotations

import json
import statistics
from collections import Counter
from dataclasses import asdict

import pytest

from stylauth import evaluation, experiments
from stylauth.corpus import Corpus, build_document, load_corpus
from stylauth.dro import DroConfig
from stylauth.errors import ExperimentError
from stylauth.experiments import (
    ABLATION_EXACT,
    ABLATION_HARDEST10,
    AttributionLooReport,
    _restricted_score,
    ablate,
    attribute_disputed,
    attribution_contingency,
    rank_similar,
    verify_disputed,
)
from stylauth.features import FeatureBlock, FeatureConfig, Instance
from stylauth.learner import TrainConfig, predict_proba
from stylauth.evaluation import loo_run
from stylauth.pipeline import (
    CountsCache, PipelineConfig, SegmentationConfig, fit_attributor, fold_vectors,
)
from stylauth.rng import stable_seed

from conftest import cache_vectors, make_orthogonal_corpus, make_styled_corpus, write_corpus

THREE_BLOCKS = (
    FeatureBlock.TOKEN_LENGTHS,
    FeatureBlock.POS_NGRAMS,
    FeatureBlock.CHAR_NGRAMS,
)


def orthogonal_config(dro: bool = False) -> PipelineConfig:
    # target A writes a third of the texts, so a ratio of 0.5 forces synthesis
    return PipelineConfig(
        features=FeatureConfig(
            enabled_blocks=set(THREE_BLOCKS),
            ngram_orders={
                FeatureBlock.CHAR_NGRAMS: {1, 2, 3},
                FeatureBlock.POS_NGRAMS: {1, 2},
            },
        ),
        segmentation=SegmentationConfig(min_tokens=40),
        learner=TrainConfig(C_grid=(1.0,)),
        dro=DroConfig(target_positive_ratio=0.5) if dro else None,
        target_author="A",
    )


def styled_config(target="Aldus", dro=True, c_grid=(1.0,)) -> PipelineConfig:
    return PipelineConfig(
        features=FeatureConfig(
            enabled_blocks={FeatureBlock.CHAR_NGRAMS, FeatureBlock.TOKEN_LENGTHS},
            ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 2, 3}},
        ),
        segmentation=SegmentationConfig(min_tokens=60),
        learner=TrainConfig(C_grid=tuple(c_grid), inner_folds=3),
        dro=DroConfig(target_positive_ratio=0.3) if dro else None,
        target_author=target,
    )


@pytest.fixture(scope="module")
def orthogonal(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ortho")
    return load_corpus(make_orthogonal_corpus(tmp))


@pytest.fixture(scope="module")
def styled(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("styled")
    manifest = make_styled_corpus(
        tmp,
        {"Aldus": 3, "Benno": 3, "Castor": 2},
        n_tokens=260,
        seed=21,
        disputed_from="Aldus",
    )
    return load_corpus(manifest)


class TestAblate:
    def test_useless_block_removed_then_stops(self, orthogonal):
        report = ablate(orthogonal, THREE_BLOCKS, orthogonal_config(), mode=ABLATION_EXACT, seed=4)
        assert [it.removed for it in report.iterations] == [FeatureBlock.TOKEN_LENGTHS]
        assert set(report.final_pool) == {FeatureBlock.POS_NGRAMS, FeatureBlock.CHAR_NGRAMS}
        # the stop decision is justified: every remaining removal hurts
        assert report.stop_candidate_scores is not None
        for score in report.stop_candidate_scores.values():
            assert score < report.final_score

    def test_removals_never_decrease_score(self, orthogonal):
        report = ablate(orthogonal, THREE_BLOCKS, orthogonal_config(), mode=ABLATION_EXACT, seed=4)
        for it in report.iterations:
            assert it.removed_score >= it.pool_score
            assert it.removed in it.pool
            assert it.candidate_scores[it.removed] == it.removed_score

    def test_zero_iterations_when_all_blocks_needed(self, orthogonal):
        pool = (FeatureBlock.POS_NGRAMS, FeatureBlock.CHAR_NGRAMS)
        report = ablate(orthogonal, pool, orthogonal_config(), mode=ABLATION_EXACT, seed=4)
        assert report.iterations == ()
        assert report.final_pool == pool

    def test_hardest10_mode(self, orthogonal):
        report = ablate(
            orthogonal, THREE_BLOCKS, orthogonal_config(), mode=ABLATION_HARDEST10, seed=4
        )
        assert report.mode == ABLATION_HARDEST10
        assert report.hardest_text_ids is not None
        assert len(report.hardest_text_ids) == 10
        for it in report.iterations:
            assert it.removed_score >= it.pool_score
        assert FeatureBlock.TOKEN_LENGTHS not in report.final_pool

    def test_hardest10_scores_the_initial_pool_from_the_full_loo(self, orthogonal, fold_fits):
        report = ablate(
            orthogonal, THREE_BLOCKS, orthogonal_config(), mode=ABLATION_HARDEST10, seed=4
        )
        candidates = sum(len(it.candidate_scores) for it in report.iterations)
        candidates += len(report.stop_candidate_scores or {})
        restricted = candidates * len(report.hardest_text_ids)
        assert set(fold_fits) == {stable_seed(4, "loo", d.id) for d in orthogonal.labelled()}
        # (held-out text, pool) -> fitted verifiers
        pools = Counter(
            (seed, fitted.space.config.enabled_blocks)
            for seed, fits in fold_fits.items()
            for fitted in fits
        )
        assert sum(pools.values()) == len(orthogonal.labelled()) + restricted
        assert set(pools.values()) == {1}

    @pytest.mark.parametrize("dro", [False, True])
    def test_hardest10_vectorizes_each_labelled_text_once(self, orthogonal, dro, monkeypatch):
        held_out = []
        real = evaluation.fold_vectors

        def recording(docs, texts, *args, **kwargs):
            held_out.extend(t.id for t in texts)
            return real(docs, texts, *args, **kwargs)

        monkeypatch.setattr(evaluation, "fold_vectors", recording)
        report = ablate(
            orthogonal, THREE_BLOCKS, orthogonal_config(dro), mode=ABLATION_HARDEST10, seed=4
        )
        labelled = [d.id for d in orthogonal.labelled()]
        steps = len(report.iterations) + (report.stop_candidate_scores is not None)
        assert steps >= 2
        if dro:  # DRO pools keep no fold state: every step vectorizes its folds again
            assert Counter(held_out) == Counter(labelled + steps * list(report.hardest_text_ids))
        else:  # the full LOO's fold state serves every step
            assert sorted(held_out) == sorted(labelled)

    def test_hardest10_keeps_at_most_the_pool_size_of_fold_states(self, orthogonal, monkeypatch):
        kept = []
        real = evaluation.HardestFoldStates.offer

        def recording(states, record, state):
            real(states, record, state)
            kept.append(len(states._kept))

        monkeypatch.setattr(evaluation.HardestFoldStates, "offer", recording)
        monkeypatch.setattr(experiments, "HARDEST_POOL_SIZE", 2)
        report = ablate(
            orthogonal, THREE_BLOCKS, orthogonal_config(False), mode=ABLATION_HARDEST10, seed=4
        )
        assert len(report.hardest_text_ids) == 2
        # every labelled text's fold offers its state; two are kept
        assert len(kept) == len(orthogonal.labelled()) > 2 and max(kept) == 2

    @pytest.mark.parametrize("dro", [False, True])
    def test_candidate_scores_equal_a_loo_run_per_pool(self, orthogonal, dro):
        config = orthogonal_config(dro)
        report = ablate(orthogonal, THREE_BLOCKS, config, mode=ABLATION_HARDEST10, seed=4)
        steps = [(it.pool, it.candidate_scores) for it in report.iterations]
        steps.append((report.final_pool, report.stop_candidate_scores or {}))
        synthetic = 0
        for pool, scores in steps:
            assert set(scores) == (set(pool) if len(pool) > 1 else set())
            for block, score in scores.items():
                candidate = config.with_blocks(b for b in pool if b is not block)
                alone = loo_run(orthogonal, candidate, 4, text_ids=report.hardest_text_ids)
                assert score == _restricted_score(alone.records)
                synthetic += sum(r.synthetic_positives for r in alone.records)
        assert (synthetic > 0) == dro

    def test_thread_count_does_not_change_report(self, orthogonal):
        payloads = {
            json.dumps(
                asdict(ablate(orthogonal, THREE_BLOCKS, orthogonal_config(dro=True),
                              mode=ABLATION_HARDEST10, seed=4, threads=threads))
            )
            for threads in (1, 4)
        }
        assert len(payloads) == 1

    def test_unknown_mode_rejected(self, orthogonal):
        with pytest.raises(ExperimentError):
            ablate(orthogonal, THREE_BLOCKS, orthogonal_config(), mode="bogus")

    def test_report_serializable(self, orthogonal):
        report = ablate(orthogonal, THREE_BLOCKS, orthogonal_config(), mode=ABLATION_EXACT, seed=4)
        payload = json.loads(json.dumps(asdict(report)))
        assert payload["final_pool"] == ["pos_ngrams", "char_ngrams"]
        assert payload["iterations"][0]["removed"] == "token_lengths"


class TestVerifyDisputed:
    def test_replicas_and_median(self, styled):
        verdict = verify_disputed(styled, "disputed-text", styled_config(), n_replicas=5, seed=3)
        assert verdict.n_replicas == 5
        assert verdict.median_posterior == statistics.median(verdict.replica_posteriors)
        assert verdict.predicted_class in ("Aldus", "not Aldus")

    def test_correct_author_recovered(self, styled):
        verdict = verify_disputed(styled, "disputed-text", styled_config(), n_replicas=5, seed=3)
        assert verdict.predicted_class == "Aldus"
        assert verdict.median_posterior > 0.5

    def test_without_dro_single_deterministic_replica(self, styled):
        config = styled_config(dro=False)
        verdict = verify_disputed(styled, "disputed-text", config, n_replicas=10, seed=3)
        assert verdict.n_replicas == 1
        again = verify_disputed(styled, "disputed-text", config, n_replicas=10, seed=99)
        assert verdict.replica_posteriors == again.replica_posteriors

    def test_replicas_reproducible_from_seed(self, styled):
        a = verify_disputed(styled, "disputed-text", styled_config(), n_replicas=4, seed=8)
        b = verify_disputed(styled, "disputed-text", styled_config(), n_replicas=4, seed=8)
        assert a.replica_posteriors == b.replica_posteriors
        c = verify_disputed(styled, "disputed-text", styled_config(), n_replicas=4, seed=9)
        assert a.replica_posteriors != c.replica_posteriors

    def test_labelled_text_rejected(self, styled):
        with pytest.raises(ExperimentError):
            verify_disputed(styled, "aldus-00", styled_config(), seed=1)

    def test_median_of_odd_sample(self):
        assert statistics.median([0.2, 0.5, 0.9]) == 0.5


class TestAttributeDisputed:
    def test_ranking_is_distribution(self, styled):
        result = attribute_disputed(styled, "disputed-text", styled_config(dro=False), seed=2)
        posteriors = [p for _, p in result.ranking]
        assert sum(posteriors) == pytest.approx(1.0, abs=1e-9)
        assert posteriors == sorted(posteriors, reverse=True)

    def test_generating_author_ranked_first(self, styled):
        result = attribute_disputed(styled, "disputed-text", styled_config(dro=False), seed=2)
        assert result.ranking[0][0] == "Aldus"

    def test_min_texts_filters_candidates(self, tmp_path):
        manifest = make_styled_corpus(
            tmp_path,
            {"Aldus": 3, "Benno": 3, "Castor": 1},
            n_tokens=200,
            seed=33,
            disputed_from="Aldus",
        )
        corpus = load_corpus(manifest)
        result = attribute_disputed(
            corpus, "disputed-text", styled_config(dro=False), min_texts_per_author=2, seed=2
        )
        assert result.candidate_authors == ("Aldus", "Benno")
        assert {a for a, _ in result.ranking} == {"Aldus", "Benno"}

    def test_too_few_candidates_rejected(self, tmp_path):
        manifest = make_styled_corpus(
            tmp_path,
            {"Aldus": 2, "Benno": 1},
            n_tokens=150,
            seed=34,
            disputed_from="Aldus",
        )
        corpus = load_corpus(manifest)
        with pytest.raises(ExperimentError):
            attribute_disputed(
                corpus, "disputed-text", styled_config(dro=False), min_texts_per_author=2
            )

    @pytest.mark.parametrize("min_texts", [0, -5])
    def test_min_texts_below_one_rejected(self, styled, min_texts):
        with pytest.raises(ExperimentError, match=f"got {min_texts}"):
            attribute_disputed(
                styled, "disputed-text", styled_config(dro=False), min_texts_per_author=min_texts
            )


class TestAttributionContingency:
    @pytest.mark.parametrize("min_texts", [1, 0])
    def test_min_texts_below_two_rejected(self, tmp_path, min_texts):
        # Benno's one text could train no fold that holds it out
        manifest = make_styled_corpus(tmp_path, {"Aldus": 3, "Benno": 1}, n_tokens=150, seed=34)
        corpus = load_corpus(manifest)
        with pytest.raises(ExperimentError, match=f"got {min_texts}"):
            attribution_contingency(
                corpus, styled_config(dro=False), min_texts_per_author=min_texts
            )

    def test_records_equal_an_attributor_fit_per_fold(self, styled):
        config = styled_config(dro=False, c_grid=(0.1, 1.0))
        report = attribution_contingency(styled, config, min_texts_per_author=2, seed=5)
        docs = [d for d in styled.labelled() if d.author in report.authors]
        assert [r[0] for r in report.records] == [d.id for d in docs]
        cache = CountsCache(config.features)
        for (_, true, predicted, confidence), doc in zip(report.records, docs):
            train = fold_vectors([d for d in docs if d is not doc], (), config, cache)[0]
            fitted = fit_attributor(train, config, stable_seed(5, "aa-loo", doc.id))
            text = cache_vectors(cache, [Instance(doc=doc)], fitted.space)
            prediction = predict_proba(fitted.model, text.X)
            assert (true, predicted) == (doc.author, prediction.predicted_class)
            assert confidence == prediction.posterior_of(doc.author)

    def test_matrix_shape_and_row_sums(self, styled):
        report = attribution_contingency(
            styled, styled_config(dro=False), min_texts_per_author=2, seed=5
        )
        counts = styled.authors()
        assert report.matrix.shape == (len(report.authors), len(report.authors))
        for i, author in enumerate(report.authors):
            assert report.matrix[i].sum() == counts[author]

    def test_diagonal_is_correct_count(self, styled):
        report = attribution_contingency(
            styled, styled_config(dro=False), min_texts_per_author=2, seed=5
        )
        correct = sum(1 for _, true, pred, _ in report.records if true == pred)
        assert report.correct_count == correct
        assert report.vanilla_accuracy == pytest.approx(correct / report.total_count)
        assert 0.0 <= report.macro_f1 <= 1.0

    def test_scores_derived_from_records(self):
        records = (("a", "A", "A", 0.9), ("b", "A", "B", 0.2), ("c", "B", "B", 0.7))
        report = AttributionLooReport(("A", "B"), records, seed=0, corpus_fingerprint="f")
        assert report.matrix.tolist() == [[1, 1], [0, 1]]
        assert report.vanilla_accuracy == 2 / 3
        assert report.macro_f1 == pytest.approx(2 / 3)  # one-vs-rest F1 is 2/3 for A and B


class TestRankSimilar:
    def test_identical_text_tops_ranking(self):
        # built in memory: load_corpus rejects two records with one text
        texts = {
            "a1": ("X", "bra gno phi zel. " * 30),
            "a2": ("X", "bra bra gno zel phi. " * 30),
            "b1": ("Y", "mon tes cor dus. " * 30),
            "q": ("UNKNOWN", "bra gno phi zel. " * 30),
        }
        corpus = Corpus(tuple(build_document(i, a, i, text) for i, (a, text) in texts.items()))
        ranking = rank_similar(corpus, "q", styled_config(dro=False), top_k=None)
        assert ranking.entries[0][0] == "a1"
        assert ranking.entries[0][3] == pytest.approx(1.0)
        assert ranking.entries[-1][0] == "b1"
        cosines = [e[3] for e in ranking.entries]
        assert cosines == sorted(cosines, reverse=True)

    def test_top_k_truncates(self, styled):
        ranking = rank_similar(styled, "disputed-text", styled_config(dro=False), top_k=3)
        assert len(ranking.entries) == 3

    def test_same_author_texts_rank_high(self, styled):
        ranking = rank_similar(styled, "disputed-text", styled_config(dro=False), top_k=None)
        assert ranking.entries[0][1] == "Aldus"

    def test_zero_vector_rejected(self, tmp_path):
        docs = [
            {"id": "a1", "author": "X", "title": "A1", "text": "bra gno phi. " * 20},
            {"id": "a2", "author": "Y", "title": "A2", "text": "mon tes cor. " * 20},
            {"id": "q", "author": "UNKNOWN", "title": "Q", "text": "0 1 2 3 4 5"},
        ]
        corpus = load_corpus(write_corpus(tmp_path, docs))
        config = PipelineConfig(
            features=FeatureConfig(
                enabled_blocks={FeatureBlock.CHAR_NGRAMS},
                ngram_orders={FeatureBlock.CHAR_NGRAMS: {3}},
            ),
            segmentation=SegmentationConfig(min_tokens=30),
            learner=TrainConfig(C_grid=(1.0,)),
            dro=None,
            target_author="X",
        )
        with pytest.raises(ExperimentError):
            rank_similar(corpus, "q", config)


class TestSharedCountsCache:
    STUDIES = {
        "loo": lambda corpus, config, cache: loo_run(corpus, config, 1, cache=cache),
        "verify": lambda corpus, config, cache: verify_disputed(
            corpus, "disputed-text", config, n_replicas=1, cache=cache
        ),
        "attribute": lambda corpus, config, cache: attribute_disputed(
            corpus, "disputed-text", config, cache=cache
        ),
        "contingency": lambda corpus, config, cache: attribution_contingency(
            corpus, config, cache=cache
        ),
        "similar": lambda corpus, config, cache: rank_similar(
            corpus, "disputed-text", config, cache=cache
        ),
    }

    MISMATCHED = {
        "missing_block": FeatureConfig(enabled_blocks={FeatureBlock.TOKEN_LENGTHS}),
        "other_orders": FeatureConfig(
            enabled_blocks={FeatureBlock.CHAR_NGRAMS, FeatureBlock.TOKEN_LENGTHS},
            ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 2}},
        ),
    }

    @pytest.mark.parametrize("study", sorted(STUDIES))
    @pytest.mark.parametrize("mismatch", sorted(MISMATCHED))
    def test_mismatched_cache_rejected(self, styled, study, mismatch):
        cache = CountsCache(self.MISMATCHED[mismatch])
        with pytest.raises(ExperimentError, match="char_ngrams"):
            self.STUDIES[study](styled, styled_config(dro=False), cache)

    def test_other_word_list_rejected(self, styled):
        def with_words(words):
            return FeatureConfig(
                enabled_blocks={FeatureBlock.FUNCTION_WORDS, FeatureBlock.TOKEN_LENGTHS},
                function_words=words,
            )

        config = styled_config(dro=False)
        config.features = with_words(("et", "in"))
        cache = CountsCache(with_words(("et", "ad")))
        with pytest.raises(ExperimentError, match="function_words"):
            loo_run(styled, config, 1, cache=cache)

    def test_full_cache_serves_restricted_config(self, styled):
        config = styled_config(dro=False)
        cache = CountsCache(config.features)
        restricted = config.with_blocks([FeatureBlock.TOKEN_LENGTHS])
        shared = loo_run(styled, restricted, 1, cache=cache)
        fresh = loo_run(styled, restricted, 1)
        assert shared.canonical_dict() == fresh.canonical_dict()

