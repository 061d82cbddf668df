"""Leave-one-out protocol: folds, leakage, determinism, aggregation."""

from __future__ import annotations

import json
import os
import pickle
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from stylauth import evaluation, experiments, metrics
from stylauth.corpus import load_corpus
from stylauth.dro import DroConfig
from stylauth.errors import EvaluationError
from stylauth.evaluation import loo_pools, loo_run
from stylauth.experiments import attribution_contingency
from stylauth.features import FeatureBlock, FeatureConfig
from stylauth.learner import TrainConfig
from stylauth.pipeline import CountsCache, PipelineConfig, SegmentationConfig
from stylauth.rng import stable_seed

from conftest import held_out_segment_ids, make_styled_corpus, write_corpus


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
        workers = min(cpus, len(small_corpus.labelled()))
        loo_run(small_corpus, config, seed=1, threads=64)
        assert requested == ([workers] if workers > 1 else [])
        # one worker runs its folds inline, with no pool
        loo_run(small_corpus, config, seed=1, threads=64, text_ids=[first])
        loo_run(small_corpus, config, seed=1, threads=1)
        assert requested == ([workers] if workers > 1 else [])

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
        assert report.skipped == (("aldus-00", "class Aldus absent from training set"),)
        assert len(report.records) == 5
        assert report.table.total == 5


class TestPools:
    POOLS = (
        (FeatureBlock.TOKEN_LENGTHS, FeatureBlock.CHAR_NGRAMS),
        (FeatureBlock.CHAR_NGRAMS,),
        (FeatureBlock.TOKEN_LENGTHS,),
    )

    @pytest.mark.parametrize("dro", [False, True])
    def test_each_report_equals_a_loo_run_of_its_pool(self, small_corpus, dro, fold_fits):
        config = fast_pipeline("Aldus", dro=dro)
        reports = loo_pools(small_corpus, config, self.POOLS, seed=6, threads=2)
        texts = [d.id for d in small_corpus.labelled()]
        assert set(fold_fits) == {stable_seed(6, "loo", t) for t in texts}
        for fits in fold_fits.values():
            pools = Counter(fitted.space.config.enabled_blocks for fitted in fits)
            assert pools == Counter(frozenset(p) for p in self.POOLS)
        assert len(reports) == len(self.POOLS)
        for pool, report in zip(self.POOLS, reports):
            alone = loo_run(small_corpus, config.with_blocks(pool), seed=6)
            assert json.dumps(report.canonical_dict()) == json.dumps(alone.canonical_dict())
            assert report.fold_seconds.keys() == alone.fold_seconds.keys()
        if dro:
            assert any(r.synthetic_positives for report in reports for r in report.records)

    @pytest.mark.parametrize("pool", [(), (FeatureBlock.POS_NGRAMS,)])
    def test_pool_outside_the_config_rejected(self, small_corpus, pool):
        with pytest.raises(EvaluationError):
            loo_pools(small_corpus, fast_pipeline("Aldus"), [pool], seed=1)


class TestLeakage:
    def test_held_out_text_and_segments_never_train(self, small_corpus, fold_fits):
        config = fast_pipeline("Aldus", dro=True)
        studies = {
            "loo": lambda: loo_run(small_corpus, config, seed=3),
            "aa-loo": lambda: attribution_contingency(small_corpus, config, seed=3),
        }
        for study, run in studies.items():
            fold_fits.clear()
            run()
            labelled = small_corpus.labelled()
            assert set(fold_fits) == {stable_seed(3, study, d.id) for d in labelled}, study
            for doc in labelled:
                (fitted,) = fold_fits[stable_seed(3, study, doc.id)]
                assert fitted.uses_dro == (study == "loo")
                forbidden = held_out_segment_ids(doc, config.segmentation.min_tokens)
                training = set(fitted.training_instance_ids)
                assert not (forbidden & training)
                # synthetic replicas must not stem from the held-out text either
                for tid in training:
                    assert not tid.startswith(f"{doc.id}#")
                    assert not tid.startswith(f"{doc.id}[")
                    assert tid.split("#")[0] != doc.id

    def test_held_out_unique_features_absent_from_fold_space(self, tmp_path, fold_fits):
        docs = []
        for i in range(3):
            docs.append(
                {
                    "id": f"pos-{i}",
                    "author": "Aldus",
                    "title": f"P{i}",
                    "text": "brag nopho zelqui urbra gnophi. " * (20 + i),
                }
            )
        for i in range(3):
            docs.append(
                {
                    "id": f"neg-{i}",
                    "author": "Benno",
                    "title": f"N{i}",
                    "text": "montes ualcor duspen corual. " * (20 + i),
                }
            )
        # a marker trigram that exists only in neg-0
        docs[3]["text"] = "xyxyx " + docs[3]["text"]
        manifest = write_corpus(tmp_path, docs)
        corpus = load_corpus(manifest)

        loo_run(corpus, fast_pipeline("Aldus", min_tokens=30), seed=0)
        marker = "xyx"
        (neg0,) = fold_fits[stable_seed(0, "loo", "neg-0")]
        (neg1,) = fold_fits[stable_seed(0, "loo", "neg-1")]
        assert marker not in neg0.space.vocab[FeatureBlock.CHAR_NGRAMS]
        assert marker in neg1.space.vocab[FeatureBlock.CHAR_NGRAMS]

    def test_dro_profiles_sized_to_fold_training_set(self, small_corpus, fold_fits):
        config = fast_pipeline("Aldus", dro=True)
        loo_run(small_corpus, config, seed=3)
        assert len(fold_fits) == len(small_corpus.labelled())
        for (fitted,) in fold_fits.values():
            originals = [t for t in fitted.training_instance_ids if "#" not in t]
            assert fitted.profiles.latent_dim == len(originals)


class TestReport:
    def test_metrics_recomputable_from_records(self, small_corpus):
        report = loo_run(small_corpus, fast_pipeline("Aldus"), seed=2)
        y_true = [int(r.author == "Aldus") for r in report.records]
        y_pred = [int(r.predicted_class == "Aldus") for r in report.records]
        posteriors = [r.prediction.posterior_of("Aldus") for r in report.records]
        table = metrics.ContingencyTable.from_predictions(y_true, y_pred)
        assert report.table == table
        assert report.f1 == metrics.f1(table)
        assert report.soft_f1 == metrics.soft_f1(y_true, posteriors)
        assert report.vanilla_accuracy == metrics.vanilla_accuracy(table)

    def test_report_of_only_skipped_folds_rejected(self):
        skipped = (("aldus-00", "class Aldus absent from training set"),)
        with pytest.raises(EvaluationError, match="every fold was skipped"):
            evaluation.LooReport("Aldus", 0, "fingerprint", (), skipped, {"aldus-00": 0.0})

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

    def test_fold_diagnostics_match_fitted_verifier(self, small_corpus, fold_fits):
        report = loo_run(small_corpus, fast_pipeline("Aldus", dro=True), seed=3)
        records = report.canonical_dict()["records"]
        for record in records:
            (fitted,) = fold_fits[stable_seed(3, "loo", record["text_id"])]
            synthetic = [t for t in fitted.training_instance_ids if "#dro" in t]
            assert record["training_rows"] == len(fitted.training_instance_ids)
            assert record["synthetic_positives"] == len(synthetic)
            assert record["converged"] is fitted.model.converged
            assert record["n_iter"] == fitted.model.n_iter >= 1
            blocks = fitted.space.block_offsets
            assert record["columns_per_block"] == [[b.value, e - s] for b, s, e in blocks]
            assert sum(n for _, n in record["columns_per_block"]) == fitted.space.dim
        assert any(record["synthetic_positives"] > 0 for record in records)

        # with several C values the final fit starts from the Gram path's
        # solution, so it may take no L-BFGS iteration at all
        fold_fits.clear()
        config = fast_pipeline("Aldus", dro=True, c_grid=(0.1, 1.0, 10.0))
        report = loo_run(small_corpus, config, seed=3)
        records = report.canonical_dict()["records"]
        for record in records:
            (fitted,) = fold_fits[stable_seed(3, "loo", record["text_id"])]
            assert record["converged"] is fitted.model.converged is True
            assert record["n_iter"] == fitted.model.n_iter
        assert any(record["n_iter"] == 0 for record in records)

    def test_no_synthetic_positives_without_dro(self, small_corpus):
        report = loo_run(small_corpus, fast_pipeline("Aldus"), seed=3)
        assert all(r.synthetic_positives == 0 for r in report.records)


@pytest.fixture(scope="module")
def studies(small_corpus):
    """Each study's ``LooStudy`` and its records, captured from ``run_folds``."""
    real_run_folds = evaluation.run_folds
    captured = {}

    def capturing(study, *args, **kwargs):
        folds, outcomes = real_run_folds(study, *args, **kwargs)
        captured[study.seed_label] = (study, [record for record, _, _ in outcomes[0]])
        return folds, outcomes

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "run_folds", capturing)
        patch.setattr(experiments, "run_folds", capturing)
        loo_run(small_corpus, fast_pipeline("Aldus"), seed=4)
        attribution_contingency(small_corpus, fast_pipeline("Aldus"), seed=4)
    assert sorted(captured) == ["aa-loo", "loo"]
    return captured


class TestStudies:
    def test_true_class_is_the_study_class(self, small_corpus, studies):
        classes = {"loo": {"Aldus", "not Aldus"}, "aa-loo": {"Aldus", "Benno", "Castor"}}
        for label, (study, records) in studies.items():
            assert len(records) == len(small_corpus.labelled())
            for record in records:
                assert record.true_class == study.class_of(small_corpus.get(record.text_id))
            assert {record.true_class for record in records} == classes[label]

    def test_class_of_pickles(self, small_corpus, studies):
        for study, _ in studies.values():
            restored = pickle.loads(pickle.dumps(study.class_of))
            assert [restored(d) for d in small_corpus] == [study.class_of(d) for d in small_corpus]


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

    def test_cache_shared_by_two_segmentations_gives_fresh_reports(self, small_corpus):
        # a segment's instance id, doc[i], does not depend on min_tokens
        configs = [fast_pipeline("Aldus", dro=True, min_tokens=m) for m in (100, 60)]
        shared = CountsCache(configs[0].features)
        for config in configs:
            reused = loo_run(small_corpus, config, seed=9, cache=shared)
            fresh = loo_run(small_corpus, config, seed=9)
            assert json.dumps(reused.canonical_dict()) == json.dumps(fresh.canonical_dict())

    def test_inner_cv_scores_reported_per_fold(self, small_corpus):
        grid = (0.1, 1.0, 10.0)
        config = fast_pipeline("Aldus", dro=True, c_grid=grid)
        reports = [
            loo_run(small_corpus, config, seed=9, threads=threads) for threads in (1, 1, 4)
        ]
        payloads = {json.dumps(r.canonical_dict()) for r in reports}
        assert len(payloads) == 1
        for record in reports[0].canonical_dict()["records"]:
            pairs = record["inner_cv_f1"]
            assert [c for c, _ in pairs] == list(grid)
            best = max(score for _, score in pairs)
            assert record["fitted_C"] == next(c for c, score in pairs if score == best)

    def test_different_seed_may_change_dro_outcome(self, small_corpus):
        config = fast_pipeline("Aldus", dro=True)
        a = loo_run(small_corpus, config, seed=1)
        b = loo_run(small_corpus, config, seed=2)
        pa = [r.positive_posterior for r in a.records]
        pb = [r.positive_posterior for r in b.records]
        assert pa != pb  # latent sampling differs even if decisions agree
