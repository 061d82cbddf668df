"""Shared pipeline machinery: instance building, caching, fold training."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from stylauth.corpus import load_corpus
from stylauth.dro import DroConfig
from stylauth.errors import ExperimentError
from stylauth.features import (
    FeatureBlock,
    FeatureConfig,
    Instance,
    fit_feature_space_from_counts,
    vectorize_counts,
)
from stylauth.learner import TrainConfig
from stylauth.pipeline import (
    CountsCache,
    PipelineConfig,
    SegmentationConfig,
    document_instances,
    fit_attributor,
    fit_verifier,
    predict_document,
    training_documents,
    training_vectors,
)

from conftest import assert_same_space, make_styled_corpus


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


    def test_threads_reading_a_filled_cache_agree_with_one_thread(self, corpus):
        config = fast_config()
        cache = CountsCache(config.features)
        rows = cache.rows(document_instances(corpus.labelled(), config.segmentation))

        def fit_and_vectorize():
            space = fit_feature_space_from_counts(cache, rows, config.features)
            X = vectorize_counts(cache, rows, space)[0].toarray()
            return np.column_stack([X, cache.occurrences(rows, config.features.enabled_blocks)])

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
        full = training_vectors(training_documents(corpus), config, cache)
        space, columns = full.space.restricted_to(blocks)
        pool = full.restricted(space, columns, cache)
        direct = training_vectors(training_documents(corpus), config.with_blocks(blocks), cache)
        assert_same_space(pool.space, direct.space)
        assert pool.instances == direct.instances
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(pool.X, part), getattr(direct.X, part))
        assert np.array_equal(pool.occurrences, direct.occurrences)
        assert full.restricted(full.space, np.arange(full.space.dim), cache) is full


class TestFitVerifier:
    def test_trains_and_predicts(self, corpus):
        config = fast_config()
        cache = CountsCache(config.features)
        train = training_vectors(training_documents(corpus), config, cache)
        fitted = fit_verifier(train, config, seed=7)
        assert fitted.model.classes == ("not Aldus", "Aldus")
        assert not fitted.uses_dro
        text = cache.vectorize([Instance(doc=corpus.get("disputed-text"))], fitted.space)
        prediction = predict_document(fitted, text, seed=7)
        assert prediction.classes == fitted.model.classes
        assert 0.0 <= prediction.positive_posterior <= 1.0

    def test_dro_expands_training_set(self, corpus):
        # the corpus is balanced, so only a high target ratio forces synthesis
        config = fast_config(dro=True, ratio=0.7)
        cache = CountsCache(config.features)
        train = training_vectors(training_documents(corpus), config, cache)
        fitted = fit_verifier(train, config, seed=7)
        assert fitted.uses_dro
        assert any("#dro" in t for t in fitted.training_instance_ids)
        originals = [t for t in fitted.training_instance_ids if "#dro" not in t]
        baseline = fit_verifier(train, fast_config(dro=False), seed=7)
        assert tuple(originals) == baseline.training_instance_ids

    def test_missing_target_instances_rejected(self, corpus):
        config = fast_config(target="Nemo")
        train = training_vectors(training_documents(corpus), config, CountsCache(config.features))
        with pytest.raises(ExperimentError):
            fit_verifier(train, config, seed=7)

    def test_target_author_required(self, corpus):
        config = fast_config()
        config.target_author = None
        train = training_vectors(training_documents(corpus), config, CountsCache(config.features))
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
        fitted = fit(training_vectors(docs, config, cache), config, 7)
        assert fitted.uses_dro == (fit is fit_verifier)
        twin = training_vectors(docs, config, cache).space
        assert_same_space(twin, fitted.space)
        disputed = [Instance(doc=corpus.get("disputed-text"))]
        predict_document(fitted, cache.vectorize(disputed, fitted.space), seed=7)

        def no_extension(*args):
            raise AssertionError("extended a row from another space")

        monkeypatch.setattr("stylauth.pipeline.extend", no_extension)
        with pytest.raises(ExperimentError, match="another feature space"):
            predict_document(fitted, cache.vectorize(disputed, twin), seed=7)


class TestFitAttributor:
    def test_trains_over_candidates(self, corpus):
        config = fast_config(dro=False)
        cache = CountsCache(config.features)
        train = training_vectors(training_documents(corpus), config, cache)
        fitted = fit_attributor(train, config, seed=7)
        assert fitted.model.classes == ("Aldus", "Benno")
        assert not fitted.uses_dro
        assert fitted.training_instance_ids == tuple(i.instance_id for i in train.instances)
        text = cache.vectorize([Instance(doc=corpus.get("disputed-text"))], fitted.space)
        prediction = predict_document(fitted, text, seed=7)
        assert prediction.classes == fitted.model.classes
        assert prediction.posteriors.sum() == pytest.approx(1.0)

    def test_single_author_rejected(self, corpus):
        config = fast_config(dro=False)
        cache = CountsCache(config.features)
        train = training_vectors(training_documents(corpus, authors=["Aldus"]), config, cache)
        with pytest.raises(ExperimentError):
            fit_attributor(train, config, seed=7)
