"""Leave-one-out protocol: folds, leakage, determinism, aggregation."""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from stylauth import evaluation
from stylauth.corpus import load_corpus
from stylauth.dro import DroConfig
from stylauth.errors import EvaluationError
from stylauth.evaluation import held_out_segment_ids, loo_run
from stylauth.features import FeatureBlock, FeatureConfig
from stylauth.learner import TrainConfig
from stylauth.pipeline import PipelineConfig, SegmentationConfig

from conftest import make_styled_corpus, write_corpus


def fast_pipeline(
    target: str,
    dro: bool = False,
    min_tokens: int = 60,
    blocks=None,
    c_grid=(1.0,),
) -> PipelineConfig:
    features = FeatureConfig(
        enabled_blocks=blocks
        or {FeatureBlock.CHAR_NGRAMS, FeatureBlock.TOKEN_LENGTHS},
        ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 2, 3}},
    )
    return PipelineConfig(
        features=features,
        segmentation=SegmentationConfig(min_tokens=min_tokens),
        learner=TrainConfig(C_grid=tuple(c_grid), inner_folds=3),
        dro=DroConfig(target_positive_ratio=0.3) if dro else None,
        target_author=target,
    )


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("loo-corpus")
    manifest = make_styled_corpus(
        tmp, {"Aldus": 4, "Benno": 4, "Castor": 4}, n_tokens=260, seed=5
    )
    return load_corpus(manifest)


class TestFolds:
    def test_one_prediction_per_text(self, tmp_path):
        manifest = make_styled_corpus(tmp_path, {"Aldus": 2, "Benno": 2}, n_tokens=150)
        corpus = load_corpus(manifest)
        report = loo_run(corpus, fast_pipeline("Aldus"), seed=1)
        assert len(report.records) == 4
        assert {r.text_id for r in report.records} == {d.id for d in corpus}

    def test_text_ids_restricts_folds(self, small_corpus):
        wanted = [d.id for d in small_corpus.labelled()][:3]
        report = loo_run(small_corpus, fast_pipeline("Aldus"), seed=1, text_ids=wanted)
        assert [r.text_id for r in report.records] == wanted

    def test_unknown_text_id_rejected(self, small_corpus):
        with pytest.raises(EvaluationError):
            loo_run(small_corpus, fast_pipeline("Aldus"), seed=1, text_ids=["nope"])

    def test_empty_text_ids_rejected(self, small_corpus):
        with pytest.raises(EvaluationError):
            loo_run(small_corpus, fast_pipeline("Aldus"), seed=1, text_ids=[])

    def test_workers_capped_at_cpus_and_folds(self, small_corpus, monkeypatch):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        requested = []

        def recording_pool(max_workers):
            requested.append(max_workers)
            return ThreadPoolExecutor(max_workers=min(max_workers, cpus))

        monkeypatch.setattr(evaluation, "ThreadPoolExecutor", recording_pool)
        config = fast_pipeline("Aldus")
        first = small_corpus.labelled()[0].id
        loo_run(small_corpus, config, seed=1, threads=64)
        loo_run(small_corpus, config, seed=1, threads=64, text_ids=[first])
        assert requested == [min(cpus, len(small_corpus.labelled())), 1]

    def test_missing_target_author_rejected(self, small_corpus):
        config = fast_pipeline("Aldus")
        config.target_author = None
        with pytest.raises(EvaluationError):
            loo_run(small_corpus, config, seed=1)

    def test_single_positive_text_fold_skipped(self, tmp_path):
        manifest = make_styled_corpus(
            tmp_path, {"Aldus": 1, "Benno": 3, "Castor": 2}, n_tokens=150
        )
        corpus = load_corpus(manifest)
        report = loo_run(corpus, fast_pipeline("Aldus"), seed=1)
        skipped_ids = {doc_id for doc_id, _ in report.skipped}
        assert skipped_ids == {"aldus-00"}
        assert len(report.records) == 5
        assert report.table.total == 5


class TestLeakage:
    def test_held_out_text_and_segments_never_train(self, small_corpus):
        captured = {}

        def listener(text_id, fitted):
            captured[text_id] = fitted

        config = fast_pipeline("Aldus", dro=True)
        loo_run(small_corpus, config, seed=3, fold_listener=listener)
        for doc in small_corpus.labelled():
            fitted = captured[doc.id]
            forbidden = held_out_segment_ids(doc, config.segmentation.min_tokens)
            training = set(fitted.training_instance_ids)
            assert not (forbidden & training)
            # synthetic replicas must not stem from the held-out text either
            for tid in training:
                assert not tid.startswith(f"{doc.id}#")
                assert not tid.startswith(f"{doc.id}[")
                assert tid.split("#")[0] != doc.id

    def test_held_out_unique_features_absent_from_fold_space(self, tmp_path):
        docs = []
        for i in range(3):
            docs.append(
                {
                    "id": f"pos-{i}",
                    "author": "Aldus",
                    "title": f"P{i}",
                    "text": "brag nopho zelqui urbra gnophi. " * 20,
                }
            )
        for i in range(3):
            docs.append(
                {
                    "id": f"neg-{i}",
                    "author": "Benno",
                    "title": f"N{i}",
                    "text": "montes ualcor duspen corual. " * 20,
                }
            )
        # a marker trigram that exists only in neg-0
        docs[3]["text"] = "xyxyx " + docs[3]["text"]
        manifest = write_corpus(tmp_path, docs)
        corpus = load_corpus(manifest)

        captured = {}

        def listener(text_id, fitted):
            captured[text_id] = fitted.space

        loo_run(corpus, fast_pipeline("Aldus", min_tokens=30), seed=0, fold_listener=listener)
        marker = "xyx"
        assert marker not in captured["neg-0"].vocab[FeatureBlock.CHAR_NGRAMS]
        assert marker in captured["neg-1"].vocab[FeatureBlock.CHAR_NGRAMS]

    def test_dro_profiles_sized_to_fold_training_set(self, small_corpus):
        captured = {}

        def listener(text_id, fitted):
            captured[text_id] = fitted

        config = fast_pipeline("Aldus", dro=True)
        loo_run(small_corpus, config, seed=3, fold_listener=listener)
        for doc_id, fitted in captured.items():
            originals = [t for t in fitted.training_instance_ids if "#" not in t]
            assert fitted.profiles.latent_dim == len(originals)


class TestReport:
    def test_metrics_recomputable_from_records(self, small_corpus):
        report = loo_run(small_corpus, fast_pipeline("Aldus"), seed=2)
        table, f1_val, soft, va = report.recompute_metrics()
        assert table == report.table
        assert f1_val == pytest.approx(report.f1)
        assert soft == pytest.approx(report.soft_f1)
        assert va == pytest.approx(report.vanilla_accuracy)

    def test_hardest_ranking_ascends(self, small_corpus):
        report = loo_run(small_corpus, fast_pipeline("Aldus"), seed=2)
        confidences = [row[3] for row in report.hardest_texts()]
        assert confidences == sorted(confidences)
        top2 = report.hardest_texts(2)
        assert len(top2) == 2

    def test_table_counts_match_corpus(self, small_corpus):
        report = loo_run(small_corpus, fast_pipeline("Aldus"), seed=2)
        assert report.table.total == len(small_corpus.labelled())
        positives = report.table.tp + report.table.fn
        assert positives == 4  # texts by the target author


class TestDeterminism:
    def test_same_seed_same_report(self, small_corpus):
        config = fast_pipeline("Aldus", dro=True)
        a = loo_run(small_corpus, config, seed=9)
        b = loo_run(small_corpus, config, seed=9)
        assert json.dumps(a.canonical_dict()) == json.dumps(b.canonical_dict())

    def test_thread_count_does_not_change_report(self, small_corpus):
        config = fast_pipeline("Aldus", dro=True)
        serial = loo_run(small_corpus, config, seed=9, threads=1)
        threaded = loo_run(small_corpus, config, seed=9, threads=4)
        assert json.dumps(serial.canonical_dict()) == json.dumps(threaded.canonical_dict())

    def test_different_seed_may_change_dro_outcome(self, small_corpus):
        config = fast_pipeline("Aldus", dro=True)
        a = loo_run(small_corpus, config, seed=1)
        b = loo_run(small_corpus, config, seed=2)
        pa = [r.positive_posterior for r in a.records]
        pb = [r.positive_posterior for r in b.records]
        assert pa != pb  # latent sampling differs even if decisions agree
