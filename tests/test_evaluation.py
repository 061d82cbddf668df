"""Leave-one-out protocol: folds, leakage, determinism, aggregation."""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import tempfile
import threading
from collections import Counter
from operator import attrgetter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stylauth import evaluation, experiments, metrics
from stylauth.corpus import load_corpus
from stylauth.dro import DroConfig
from stylauth.errors import EvaluationError
from stylauth.evaluation import LooStudy, loo_pools, loo_run, run_folds
from stylauth.experiments import attribution_contingency
from stylauth.features import (
    CountsStore, FeatureBlock, FeatureConfig, Instance, fit_feature_space, vectorize,
)
from stylauth.learner import Gram, TrainConfig, fits_in_row_basis
from stylauth.pipeline import (
    CountsCache, PipelineConfig, SegmentationConfig, Vectors, VerificationClasses, fit_attributor,
    fit_verifier, fold_vectors, predict_document, text_instances,
)
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

    def test_counts_matrix_built_once_on_the_calling_thread(self, small_corpus, monkeypatch):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)  # a pool on any machine
        builds = []
        real = CountsStore.counts

        def recording(store):
            if store._counts is None:
                builds.append(threading.get_ident())
            return real(store)

        monkeypatch.setattr(CountsStore, "counts", recording)
        loo_run(small_corpus, fast_pipeline("Aldus"), seed=1, threads=2)
        assert builds == [threading.get_ident()]

    def test_fold_vectors_offered_on_the_calling_thread(self, small_corpus, monkeypatch):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)  # a pool on any machine
        offers = []
        real = evaluation.HardestFoldStates.offer

        def recording(states, record, state):
            offers.append(threading.get_ident())
            real(states, record, state)

        monkeypatch.setattr(evaluation.HardestFoldStates, "offer", recording)
        states = evaluation.HardestFoldStates(2)
        loo_run(small_corpus, fast_pipeline("Aldus"), seed=1, threads=2, states=states)
        # every fold's rows carry block Grams, so every fold offers its vectors
        assert offers == [threading.get_ident()] * len(small_corpus.labelled())

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


BASE_BLOCKS = (
    FeatureBlock.TOKEN_LENGTHS,
    FeatureBlock.FUNCTION_WORDS,
    FeatureBlock.SENTENCE_LENGTHS,
    FeatureBlock.CHAR_NGRAMS,
)

gram_pool_problems = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "texts": st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(0, 2)),
    "n_tokens": st.integers(60, 180),
    "min_tokens": st.sampled_from([25, 40, 1000]),
    "pools": st.lists(
        st.sets(st.sampled_from(BASE_BLOCKS), min_size=1), min_size=1, max_size=3
    ),
    "c_grid": st.sampled_from([(1.0,), (0.1, 10.0)]),
})


class TestGramPath:
    """Verifier pools without DRO that fit in a row basis fit on the fold's block Grams."""

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(gram_pool_problems)
    def test_records_equal_a_fit_of_the_restricted_rows(self, problem):
        # Three iterations, as for the row-basis oracle in test_learner.py:
        # rounding that differs between two bases can grow along a long fit.
        seed = problem["seed"]
        aldus, benno, castor = problem["texts"]
        config = PipelineConfig(
            features=FeatureConfig(
                enabled_blocks=set(BASE_BLOCKS),
                ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 2, 3}},
                function_words=("et", "in", "ad", "non", "cum"),
            ),
            segmentation=SegmentationConfig(min_tokens=problem["min_tokens"]),
            learner=TrainConfig(C_grid=problem["c_grid"], inner_folds=2, max_iterations=3),
            target_author="Aldus",
        )
        with tempfile.TemporaryDirectory() as tmp:
            authors = {"Aldus": aldus, "Benno": benno, "Castor": castor}
            manifest = make_styled_corpus(
                Path(tmp), {a: n for a, n in authors.items() if n}, problem["n_tokens"], seed
            )
            corpus = load_corpus(manifest)
        # the fold's own space first: its character block has more columns than rows
        pools = [BASE_BLOCKS] + [
            tuple(b for b in BASE_BLOCKS if b in pool) for pool in problem["pools"]
        ]
        reports = loo_pools(corpus, config, pools, seed=seed)

        cache, on_grams = CountsCache(config.features), 0
        labelled = corpus.labelled()
        for doc in labelled:
            train_docs = [d for d in labelled if d.id != doc.id]
            train, text = fold_vectors(train_docs, [doc], config, cache)
            fold_seed = stable_seed(seed, "loo", doc.id)
            for pool, report in zip(pools, reports):
                (record,) = [r for r in report.records if r.text_id == doc.id]
                space, columns = train.space.restricted_to(pool)
                on_grams += fits_in_row_basis(train.X.shape[0], space.dim)
                fitted = fit_verifier(train.restricted(space, columns), config, fold_seed)
                want = predict_document(fitted, text.restricted(space, columns), fold_seed)
                assert record.predicted_class == want.predicted_class
                assert (record.converged, record.n_iter) == (
                    fitted.model.converged, fitted.model.n_iter
                )
                assert record.fitted_C == fitted.chosen_C
                np.testing.assert_allclose(
                    record.prediction.posteriors, want.posteriors, rtol=0, atol=1e-8
                )
        assert on_grams

    def test_a_pool_on_grams_copies_no_training_columns(self, small_corpus, monkeypatch):
        on_grams = []
        real = evaluation.fit_verifier

        def recording(train, config, seed):
            on_grams.append(isinstance(train.X, Gram))
            return real(train, config, seed)

        monkeypatch.setattr(evaluation, "fit_verifier", recording)
        loo_pools(small_corpus, fast_pipeline("Aldus"), TestPools.POOLS[:2], seed=6)
        # the character pools: no DRO, and fewer rows than columns
        assert on_grams and all(on_grams)
        on_grams.clear()
        loo_pools(small_corpus, fast_pipeline("Aldus", dro=True), TestPools.POOLS[:2], seed=6)
        assert on_grams and not any(on_grams)

    def test_hardest_fold_states_keep_the_hardest_offered(self):
        states = evaluation.HardestFoldStates(2)
        confidences = {"a": 0.9, "b": 0.2, "c": 0.5, "d": 0.2, "e": 0.7}
        for text_id, confidence in confidences.items():
            record = SimpleNamespace(text_id=text_id, true_class_posterior=confidence)
            states.offer(record, text_id.upper())
            assert len(states._kept) <= 2
        assert {t: states.get(t) for t in confidences} == {
            "a": None, "b": "B", "c": None, "d": "D", "e": None
        }


reference_problems = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "texts": st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(0, 2)),
    "n_tokens": st.integers(60, 180),
    "min_tokens": st.sampled_from([25, 40, 1000]),
    "blocks": st.sets(st.sampled_from(BASE_BLOCKS), min_size=1),
    "pools": st.lists(st.sets(st.sampled_from(BASE_BLOCKS), min_size=1), max_size=2),
    "attribution": st.booleans(),
    "dro": st.booleans(),
    "c_grid": st.sampled_from([(1.0,), (0.1, 10.0)]),
    "subset": st.sets(st.sampled_from(BASE_BLOCKS), min_size=1),
})


def reference_fold(study: LooStudy, held_out, config: PipelineConfig, master_seed: int):
    """One fold in straight-line code, with no counts cache, pool
    restriction, kept fold state or worker: its fit and its prediction.
    """
    train_docs = [d for d in study.texts if d.id != held_out.id]
    instances = text_instances(train_docs, config.segmentation)
    train = tuple(inst for doc in train_docs for inst in instances[doc.id])
    space = fit_feature_space(train, config.features)
    text = (Instance(doc=held_out),)
    seed = stable_seed(master_seed, study.seed_label, held_out.id)
    fitted = study.fit(Vectors(train, space, *vectorize(train, space)), config, seed)
    return fitted, predict_document(fitted, Vectors(text, space, *vectorize(text, space)), seed)


class TestReferenceFold:
    """``run_folds`` records equal a straight-line fold's, for both studies,
    on a pool of two workers, in both calls that hardest-10 ablation makes.
    """

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(reference_problems)
    def test_records_equal_the_reference_fold(self, problem):
        seed = problem["seed"]
        blocks = [b for b in BASE_BLOCKS if b in problem["blocks"]]
        verifier = not problem["attribution"]
        config = PipelineConfig(
            features=FeatureConfig(
                enabled_blocks=set(blocks),
                ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 2, 3}},
                function_words=("et", "in", "ad", "non", "cum"),
            ),
            segmentation=SegmentationConfig(min_tokens=problem["min_tokens"]),
            # Three iterations where folds may fit on block Grams, as in
            # TestGramPath: rounding that differs between two bases can
            # grow along a long fit.
            learner=TrainConfig(
                C_grid=problem["c_grid"],
                inner_folds=2,
                max_iterations=3 if verifier and not problem["dro"] else 1000,
            ),
            dro=DroConfig(target_positive_ratio=0.3) if problem["dro"] else None,
            target_author="Aldus",
        )
        with tempfile.TemporaryDirectory() as tmp:
            authors = {"Aldus": problem["texts"][0], "Benno": problem["texts"][1],
                       "Castor": problem["texts"][2]}
            manifest = make_styled_corpus(
                Path(tmp), {a: n for a, n in authors.items() if n}, problem["n_tokens"], seed
            )
            corpus = load_corpus(manifest)
        if verifier:
            study = LooStudy(corpus.labelled(), "loo", fit_verifier, VerificationClasses("Aldus"))
        else:
            study = LooStudy(corpus.labelled(), "aa-loo", fit_attributor, attrgetter("author"))

        def pools_of(blocks):
            pools = [blocks] + [[b for b in blocks if b in pool] for pool in problem["pools"]]
            return [pool for pool in pools if pool]

        cache = CountsCache(config.features)
        states = evaluation.HardestFoldStates(2)
        # two workers, so that the folds run on a pool on any machine
        with mock.patch.object(evaluation, "_usable_cpus", return_value=2):
            pools = pools_of(blocks)
            folds, outcomes, _ = run_folds(study, config, pools, seed, 2, None, cache, states)
            calls = [(pools, folds, outcomes)]
            # The next call hardest-10 ablation makes: fewer blocks, only the
            # hardest texts held out, reading the vectors kept above.
            records = [record for record, _, _ in outcomes[0] if record is not None]
            hardest = [r.text_id for r in sorted(records, key=evaluation._hardness)[:2]]
            pools = pools_of([b for b in blocks if b in problem["subset"]] or blocks)
            folds, outcomes, _ = run_folds(
                study, config.with_blocks(pools[0]), pools, seed, 2, hardest, cache, states
            )
            calls.append((pools, folds, outcomes))

        checks = [
            (pool, doc, outcome)
            for pools, folds, outcomes in calls
            for pool, pool_outcomes in zip(pools, outcomes)
            for doc, outcome in zip(folds, pool_outcomes)
        ]
        for pool, doc, (record, reason, _) in checks:
            held_out_class = study.class_of(doc)
            if record is None:
                assert reason and all(
                    study.class_of(d) != held_out_class for d in study.texts if d is not doc
                )
                continue
            fitted, want = reference_fold(study, doc, config.with_blocks(pool), seed)
            rows = len(fitted.training_instance_ids)
            assert (record.text_id, record.author, record.true_class) == (
                doc.id, doc.author, held_out_class
            )
            assert record.columns_per_block == tuple(
                (b.value, end - start) for b, start, end in fitted.space.block_offsets
            )
            assert (record.training_rows, record.synthetic_positives) == (
                rows, fitted.synthetic_positives
            )
            assert (record.fitted_C, record.inner_cv_f1) == (fitted.chosen_C, fitted.inner_cv_f1)
            assert (record.converged, record.n_iter) == (
                fitted.model.converged, fitted.model.n_iter
            )
            assert record.prediction.classes == want.classes
            if verifier and config.dro is None and fits_in_row_basis(rows, fitted.space.dim):
                # summed from the fold's block Grams: equal up to rounding
                assert record.predicted_class == want.predicted_class
                np.testing.assert_allclose(
                    record.prediction.posteriors, want.posteriors, rtol=0, atol=1e-8
                )
            else:
                assert record.prediction.posteriors.tobytes() == want.posteriors.tobytes()


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
            evaluation.LooReport("Aldus", 0, "fingerprint", (), skipped, {"aldus-00": 0.0}, 0)

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
            assert record["columns_per_block"] == tuple((b.value, e - s) for b, s, e in blocks)
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

    def test_record_keys_are_the_prediction_fields_and_the_derived_two(self, small_corpus):
        report = loo_run(small_corpus, fast_pipeline("Aldus"), seed=2)
        keys = {f.name for f in dataclasses.fields(evaluation.TextPrediction)} - {"prediction"}
        for record in report.canonical_dict()["records"]:
            assert set(record) == keys | {"predicted_class", "positive_posterior"}

    @pytest.mark.parametrize("dro", [False, True])
    def test_payload_equals_the_hand_built_one(self, tmp_path, dro):
        manifest = make_styled_corpus(
            tmp_path, {"Aldus": 1, "Benno": 3, "Castor": 2}, n_tokens=150
        )
        report = loo_run(load_corpus(manifest), fast_pipeline("Aldus", dro=dro), seed=1)
        assert report.skipped and report.records
        assert dro == any(r.synthetic_positives for r in report.records)
        assert json.dumps(report.canonical_dict(), sort_keys=True) == json.dumps(
            _hand_built_payload(report), sort_keys=True
        )


def _hand_built_payload(report: evaluation.LooReport) -> dict:
    """``LooReport.canonical_dict`` as it was written out key by key, kept
    as the oracle for the payload built from the report's fields.
    """
    return {
        "target_author": report.target_author,
        "seed": report.seed,
        "corpus_fingerprint": report.corpus_fingerprint,
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
            for r in report.records
        ],
        "skipped": [list(s) for s in report.skipped],
        "full_text_only_count": report.full_text_only_count,
        "contingency": {
            "tp": report.table.tp,
            "fp": report.table.fp,
            "fn": report.table.fn,
            "tn": report.table.tn,
        },
        "f1": report.f1,
        "soft_f1": report.soft_f1,
        "vanilla_accuracy": report.vanilla_accuracy,
        "hardest_texts": [list(row) for row in report.hardest_texts()],
    }


@pytest.fixture(scope="module")
def studies(small_corpus):
    """Each study's ``LooStudy`` and its records, captured from ``run_folds``."""
    real_run_folds = evaluation.run_folds
    captured = {}

    def capturing(study, *args, **kwargs):
        folds, outcomes, instances = real_run_folds(study, *args, **kwargs)
        captured[study.seed_label] = (study, [record for record, _, _ in outcomes[0]])
        return folds, outcomes, instances

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
