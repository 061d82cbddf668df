"""Shared pipeline machinery: instance building, caching, fold training."""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from stylauth.corpus import build_document, load_corpus, segment
from stylauth.dro import DroConfig
from stylauth.errors import ExperimentError
from stylauth.features import (
    FeatureBlock,
    FeatureConfig,
    Instance,
    fit_feature_space_from_counts,
    vectorize_counts,
)
from stylauth import learner
from stylauth.learner import Gram, TrainConfig
from stylauth.pipeline import (
    CountsCache,
    PipelineConfig,
    SegmentationConfig,
    counts_cache_for,
    document_instances,
    fit_attributor,
    fit_verifier,
    fold_vectors,
    full_text_only_count,
    predict_document,
    text_instances,
    training_documents,
)

from conftest import assert_same_space, cache_vectors, make_styled_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    manifest = make_styled_corpus(
        tmp,
        {"Aldus": 3, "Benno": 3},
        n_tokens=220,
        seed=51,
        disputed_from="Aldus",
    )
    return load_corpus(manifest)


def fast_config(target="Aldus", dro=False, ratio=0.3) -> PipelineConfig:
    return PipelineConfig(
        features=FeatureConfig(
            enabled_blocks={FeatureBlock.CHAR_NGRAMS},
            ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 2}},
        ),
        segmentation=SegmentationConfig(min_tokens=60),
        learner=TrainConfig(C_grid=(1.0,), inner_folds=2),
        dro=DroConfig(target_positive_ratio=ratio) if dro else None,
        target_author=target,
    )


class TestInstances:
    def test_full_texts_plus_segments(self, corpus):
        docs = corpus.labelled()
        seg_config = SegmentationConfig(min_tokens=60, include_full_texts=True)
        instances = document_instances(docs, seg_config)
        full = [i for i in instances if i.segment is None]
        segments = [i for i in instances if i.segment is not None]
        assert len(full) == len(docs)
        assert segments, "expected segment instances"
        assert len({i.instance_id for i in instances}) == len(instances)

    def test_segments_only_when_full_texts_disabled(self, corpus):
        docs = corpus.labelled()
        seg_config = SegmentationConfig(min_tokens=60, include_full_texts=False)
        instances = document_instances(docs, seg_config)
        assert all(i.segment is not None for i in instances)

    @pytest.mark.parametrize("text, min_tokens", [
        ("bra gno phi. zel tor. " * 3, 400),  # shorter than min_tokens
        ("bra gno phi zel tor " * 30, 20),  # one long sentence
    ], ids=["short", "one-sentence"])
    @pytest.mark.parametrize("include_full_texts", [True, False])
    def test_text_yielding_one_segment_trains_once(self, text, min_tokens, include_full_texts):
        doc = build_document("x", "Aldus", "T", text)
        seg_config = SegmentationConfig(min_tokens, include_full_texts)
        assert len(segment(doc, min_tokens)) == 1
        ids = [i.instance_id for i in document_instances([doc], seg_config)]
        assert ids == (["x"] if include_full_texts else ["x[0]"])
        assert full_text_only_count(text_instances([doc], seg_config)) == int(include_full_texts)

    def test_text_yielding_segments_trains_as_each(self, corpus):
        seg_config = SegmentationConfig(min_tokens=60)
        for doc in corpus.labelled():
            segs = segment(doc, seg_config.min_tokens)
            assert len(segs) > 1
            ids = [i.instance_id for i in document_instances([doc], seg_config)]
            assert ids == [doc.id, *(s.instance_id for s in segs)]
        assert full_text_only_count(text_instances(corpus.labelled(), seg_config)) == 0

    def test_training_documents_excludes_and_filters(self, corpus):
        all_docs = training_documents(corpus)
        assert all(d.author != "UNKNOWN" for d in all_docs)
        only_benno = training_documents(corpus, authors=["Benno"])
        assert {d.author for d in only_benno} == {"Benno"}


class TestCountsCache:
    def test_memoizes_by_instance_id(self, corpus):
        config = fast_config().features
        cache = CountsCache(config)
        inst = Instance(doc=corpus.get("aldus-00"))
        first = cache.rows([inst])
        second = cache.rows([inst, inst])
        assert second.tolist() == [first[0], first[0]]
        assert cache.n_rows == 1

    SHARED = FeatureConfig(
        enabled_blocks={
            FeatureBlock.TOKEN_LENGTHS, FeatureBlock.FUNCTION_WORDS,
            FeatureBlock.CHAR_NGRAMS, FeatureBlock.VERBAL_ENDINGS,
        },
        ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 2}},
        function_words=("et", "in"),
        verbal_endings=("t", "nt"),
    )

    @pytest.mark.parametrize(
        "block, change",
        [
            (FeatureBlock.CHAR_NGRAMS, {"ngram_orders": {FeatureBlock.CHAR_NGRAMS: {1, 2, 3}}}),
            (FeatureBlock.FUNCTION_WORDS, {"function_words": ("et", "ad")}),
            (FeatureBlock.VERBAL_ENDINGS, {"verbal_endings": ("t",)}),
        ],
    )
    def test_cache_extracting_a_block_differently_rejected(self, block, change):
        cache = CountsCache(self.SHARED)
        with pytest.raises(ExperimentError, match=f"extracts {block.value} differently"):
            counts_cache_for(replace(self.SHARED, **change), cache)

    def test_cache_without_an_enabled_block_rejected(self):
        cache = CountsCache(self.SHARED)
        wider = replace(
            self.SHARED, enabled_blocks=self.SHARED.enabled_blocks | {FeatureBlock.SENTENCE_LENGTHS}
        )
        with pytest.raises(ExperimentError, match="sentence_lengths"):
            counts_cache_for(wider, cache)

    def test_cache_serves_every_restriction(self):
        cache = CountsCache(self.SHARED)
        config = replace(fast_config(), features=self.SHARED)
        assert counts_cache_for(self.SHARED, cache) is cache
        restrictions = (
            [FeatureBlock.CHAR_NGRAMS],
            [FeatureBlock.TOKEN_LENGTHS, FeatureBlock.VERBAL_ENDINGS],
        )
        for blocks in restrictions:
            assert counts_cache_for(config.with_blocks(blocks).features, cache) is cache
        # a list that no enabled block reads does not matter
        other_words = replace(
            self.SHARED.restricted_to([FeatureBlock.CHAR_NGRAMS]), function_words=("ad",)
        )
        assert counts_cache_for(other_words, cache) is cache

    def test_threads_reading_a_filled_cache_agree_with_one_thread(self, corpus):
        config = fast_config()
        cache = CountsCache(config.features)
        rows = cache.rows(document_instances(corpus.labelled(), config.segmentation))

        def fit_and_vectorize():
            stored = cache.counts().select(rows)
            space = fit_feature_space_from_counts(stored, config.features)
            X, block_totals = vectorize_counts(stored, space)
            return np.column_stack([X.toarray(), block_totals])

        expected = fit_and_vectorize()
        cache.rows([Instance(doc=corpus.get("disputed-text"))])  # drops the built matrices
        results: list[np.ndarray] = []
        threads = [
            threading.Thread(target=lambda: results.append(fit_and_vectorize()))
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == len(threads)
        assert all(np.array_equal(result, expected) for result in results)


class TestVectors:
    @pytest.mark.parametrize(
        "blocks", [{FeatureBlock.CHAR_NGRAMS}, {FeatureBlock.TOKEN_LENGTHS}]
    )
    def test_restricted_equals_vectorizing_in_the_restricted_space(self, corpus, blocks):
        config = fast_config()
        config.features = FeatureConfig(
            enabled_blocks={FeatureBlock.CHAR_NGRAMS, FeatureBlock.TOKEN_LENGTHS},
            ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 2}},
        )
        cache = CountsCache(config.features)
        docs = training_documents(corpus)
        full = fold_vectors(docs, (), config, cache)[0]
        space, columns = full.space.restricted_to(blocks)
        pool = full.restricted(space, columns)
        direct = fold_vectors(docs, (), config.with_blocks(blocks), cache)[0]
        assert_same_space(pool.space, direct.space)
        assert all(pool.space.vocab[b] is full.space.vocab[b] for b in pool.space.vocab)
        assert pool.instances == direct.instances
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(pool.X, part), getattr(direct.X, part))
        assert np.array_equal(pool.block_totals, direct.block_totals)
        assert np.array_equal(pool.occurrences, direct.occurrences)
        assert full.restricted(full.space, np.arange(full.space.dim)) is full


class TestBlockGrams:
    """``Vectors.restricted`` on rows that carry block Grams (``add_grams``)."""

    @pytest.fixture
    def train(self, corpus):
        config = fast_config()
        config.features = FeatureConfig(
            enabled_blocks={FeatureBlock.CHAR_NGRAMS, FeatureBlock.TOKEN_LENGTHS},
            ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 2}},
        )
        cache = CountsCache(config.features)
        return fold_vectors(training_documents(corpus), (), config, cache)[0]

    def test_a_pool_wider_than_its_rows_gets_a_gram_summed_from_the_blocks(self, train):
        train.add_grams()
        assert train.grams is not None
        for blocks in ({FeatureBlock.CHAR_NGRAMS}, set(train.space.vocab)):
            space, columns = train.space.restricted_to(blocks)
            assert space.dim > train.X.shape[0]
            pool = train.restricted(space, columns)
            assert isinstance(pool.X, Gram) and pool.X.shape == (train.X.shape[0], space.dim)
            assert pool.X.XT is train.grams.XT and np.array_equal(pool.X.columns, columns)
            kept = [i for i, (b, _, _) in enumerate(train.space.block_offsets) if b in blocks]
            assert np.array_equal(pool.X.K, sum(train.grams.blocks[i] for i in kept))
            copied = train.X[:, columns]
            np.testing.assert_allclose(pool.X.K, (copied @ copied.T).toarray(), rtol=1e-12)
            assert np.array_equal(pool.X.rmatmul(np.eye(train.X.shape[0])), copied.T.toarray())
            assert np.array_equal(pool.block_totals, train.block_totals[:, kept])

    def test_a_pool_not_wider_than_its_rows_gets_a_copy_of_its_columns(self, train):
        train.add_grams()
        space, columns = train.space.restricted_to({FeatureBlock.TOKEN_LENGTHS})
        assert space.dim <= train.X.shape[0]
        pool = train.restricted(space, columns)
        assert not isinstance(pool.X, Gram)
        assert (pool.X != train.X[:, columns]).nnz == 0

    def test_rows_above_the_basis_bound_carry_no_grams(self, train, monkeypatch):
        monkeypatch.setattr(learner, "_BASIS_MAX_ROWS", train.X.shape[0] - 1)
        train.add_grams()
        assert train.grams is None
        assert train.restricted(train.space, np.arange(train.space.dim)) is train
        space, columns = train.space.restricted_to({FeatureBlock.CHAR_NGRAMS})
        pool = train.restricted(space, columns)
        assert not isinstance(pool.X, Gram)
        assert (pool.X != train.X[:, columns]).nnz == 0


class TestFoldVectors:
    def test_texts_share_the_training_space_and_equal_separate_rows(self, corpus):
        config = fast_config()
        cache = CountsCache(config.features)
        disputed = corpus.get("disputed-text")
        train, text = fold_vectors(training_documents(corpus), [disputed], config, cache)
        assert text.space is train.space
        assert [i.instance_id for i in text.instances] == [disputed.id]
        assert disputed.id not in {i.instance_id for i in train.instances}
        for got in (train, text):
            alone = cache_vectors(cache, got.instances, got.space)
            for part in ("indptr", "indices", "data"):
                assert getattr(got.X, part).tobytes() == getattr(alone.X, part).tobytes()
            assert np.array_equal(got.block_totals, alone.block_totals)


class TestFitVerifier:
    def test_trains_and_predicts(self, corpus):
        config = fast_config()
        cache = CountsCache(config.features)
        train = fold_vectors(training_documents(corpus), (), config, cache)[0]
        fitted = fit_verifier(train, config, seed=7)
        assert fitted.model.classes == ("not Aldus", "Aldus")
        assert not fitted.uses_dro
        text = cache_vectors(cache, [Instance(doc=corpus.get("disputed-text"))], fitted.space)
        prediction = predict_document(fitted, text, seed=7)
        assert prediction.classes == fitted.model.classes
        assert 0.0 <= prediction.positive_posterior <= 1.0

    def test_dro_expands_training_set(self, corpus):
        # the corpus is balanced, so only a high target ratio forces synthesis
        config = fast_config(dro=True, ratio=0.7)
        cache = CountsCache(config.features)
        train = fold_vectors(training_documents(corpus), (), config, cache)[0]
        fitted = fit_verifier(train, config, seed=7)
        assert fitted.uses_dro
        assert any("#dro" in t for t in fitted.training_instance_ids)
        originals = [t for t in fitted.training_instance_ids if "#dro" not in t]
        baseline = fit_verifier(train, fast_config(dro=False), seed=7)
        assert tuple(originals) == baseline.training_instance_ids

    def test_missing_target_instances_rejected(self, corpus):
        config = fast_config(target="Nemo")
        cache = CountsCache(config.features)
        train = fold_vectors(training_documents(corpus), (), config, cache)[0]
        with pytest.raises(ExperimentError):
            fit_verifier(train, config, seed=7)

    def test_target_author_required(self, corpus):
        config = fast_config()
        config.target_author = None
        cache = CountsCache(config.features)
        train = fold_vectors(training_documents(corpus), (), config, cache)[0]
        with pytest.raises(ExperimentError):
            fit_verifier(train, config, seed=7)


class TestPredictDocument:
    @pytest.mark.parametrize(
        "fit", [fit_verifier, fit_attributor], ids=["dro-verifier", "attributor"]
    )
    def test_text_from_an_equal_but_distinct_space_rejected(self, corpus, monkeypatch, fit):
        config = fast_config(dro=True, ratio=0.7)
        cache = CountsCache(config.features)
        docs = training_documents(corpus)
        fitted = fit(fold_vectors(docs, (), config, cache)[0], config, 7)
        assert fitted.uses_dro == (fit is fit_verifier)
        twin = fold_vectors(docs, (), config, cache)[0].space
        assert_same_space(twin, fitted.space)
        disputed = [Instance(doc=corpus.get("disputed-text"))]
        predict_document(fitted, cache_vectors(cache, disputed, fitted.space), seed=7)

        def no_extension(*args):
            raise AssertionError("extended a row from another space")

        monkeypatch.setattr("stylauth.pipeline.extend", no_extension)
        with pytest.raises(ExperimentError, match="another feature space"):
            predict_document(fitted, cache_vectors(cache, disputed, twin), seed=7)


class TestFitAttributor:
    def test_trains_over_candidates(self, corpus):
        config = fast_config(dro=False)
        cache = CountsCache(config.features)
        train = fold_vectors(training_documents(corpus), (), config, cache)[0]
        fitted = fit_attributor(train, config, seed=7)
        assert fitted.model.classes == ("Aldus", "Benno")
        assert not fitted.uses_dro
        assert fitted.training_instance_ids == tuple(i.instance_id for i in train.instances)
        text = cache_vectors(cache, [Instance(doc=corpus.get("disputed-text"))], fitted.space)
        prediction = predict_document(fitted, text, seed=7)
        assert prediction.classes == fitted.model.classes
        assert prediction.posteriors.sum() == pytest.approx(1.0)

    def test_single_author_rejected(self, corpus):
        config = fast_config(dro=False)
        cache = CountsCache(config.features)
        docs = training_documents(corpus, authors=["Aldus"])
        train = fold_vectors(docs, (), config, cache)[0]
        with pytest.raises(ExperimentError):
            fit_attributor(train, config, seed=7)
