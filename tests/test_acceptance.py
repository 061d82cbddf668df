"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Criterion 8 needs a real corpus and an expected-results file
and is skipped unless the STYLAUTH_CORPUS_CONFIG / STYLAUTH_EXPECTED
environment variables point at them (see README).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import chisquare

from stylauth.config import load_run_config
from stylauth.corpus import build_document, load_corpus, segment
from stylauth.dro import (
    DroConfig,
    extend,
    extended_to_csr,
    fit_profiles,
    oversample,
    sample_latent_counts,
    synthetic_positive_count,
)
from stylauth.evaluation import loo_run
from stylauth.experiments import ABLATION_EXACT, ablate, attribute_disputed, rank_similar
from stylauth.features import FeatureBlock, FeatureConfig, fit_feature_space
from stylauth.learner import TrainConfig, binary_objective, multiclass_objective
from stylauth.metrics import ContingencyTable, f1, macro_f1, soft_f1, vanilla_accuracy
from stylauth.pipeline import PipelineConfig, SegmentationConfig, document_instances
from stylauth.rng import spawn_rng, stable_seed

from conftest import (
    held_out_segment_ids, make_imbalanced_corpus, make_orthogonal_corpus, make_styled_corpus,
)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"runtime {elapsed:.1f}s exceeds the {budget_seconds:.0f}s budget"
        )
    except BaseException:
        print(f"\nACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({label}): PASS [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# 1. Metric oracle equivalence
# ---------------------------------------------------------------------------


def _oracle_f1(tp, fp, fn):
    if tp + fp == 0 and tp + fn == 0:
        return 1.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def test_criterion_1_metric_oracles():
    with criterion(1, "metric oracle equivalence", 1.0):
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 60, size=4))
            table = ContingencyTable(tp=tp, fp=fp, fn=fn, tn=tn)
            assert abs(f1(table) - _oracle_f1(tp, fp, fn)) <= 1e-12
            if table.total:
                assert abs(vanilla_accuracy(table) - (tp + tn) / table.total) <= 1e-12

        for _ in range(1000):
            n = int(rng.integers(1, 25))
            y = rng.integers(0, 2, size=n)
            p = rng.uniform(0, 1, size=n)
            stp = float(np.sum(p[y == 1]))
            sfn = float(np.sum(1 - p[y == 1]))
            sfp = float(np.sum(p[y == 0]))
            assert abs(soft_f1(y.tolist(), p.tolist()) - _oracle_f1(stp, sfp, sfn)) <= 1e-12

        per_class = [
            ContingencyTable(tp=3, fp=1, fn=0, tn=6),
            ContingencyTable(tp=2, fp=0, fn=2, tn=6),
        ]
        expected = np.mean([_oracle_f1(3, 1, 0), _oracle_f1(2, 0, 2)])
        assert abs(macro_f1(per_class) - expected) <= 1e-12

        # arithmetic anchors
        assert round(f1(ContingencyTable(tp=16, fp=1, fn=0, tn=313)), 3) == 0.970
        assert f1(ContingencyTable(tp=4, fp=0, fn=12, tn=314)) == pytest.approx(0.400)
        assert round(vanilla_accuracy(ContingencyTable(16, 1, 0, 313)), 3) == 0.997
        assert round(vanilla_accuracy(ContingencyTable(285, 22, 0, 0)), 3) == 0.928


# ---------------------------------------------------------------------------
# 2. Gradient correctness
# ---------------------------------------------------------------------------


def _central_diff(fun, params, h=1e-6):
    grad = np.empty_like(params)
    for i in range(params.size):
        step = np.zeros_like(params)
        step[i] = h
        grad[i] = (fun(params + step)[0] - fun(params - step)[0]) / (2 * h)
    return grad


def test_criterion_2_gradients():
    with criterion(2, "analytic gradients vs finite differences", 5.0):
        rng = np.random.default_rng(2002)
        for trial in range(20):
            n = int(rng.integers(3, 11))
            d = int(rng.integers(2, 17))
            X = rng.normal(size=(n, d))
            C = float(rng.uniform(0.05, 20.0))
            if trial % 2 == 0:
                y = rng.integers(0, 2, size=n).astype(float)
                params = rng.normal(scale=0.5, size=d + 1)
                fun = lambda p: binary_objective(p, X, y, C)
            else:
                k = int(rng.integers(2, 5))
                y_idx = rng.integers(0, k, size=n)
                params = rng.normal(scale=0.5, size=k * (d + 1))
                fun = lambda p: multiclass_objective(p, X, y_idx, k, C)
            _, analytic = fun(params)
            numeric = _central_diff(fun, params)
            scale = np.maximum(1.0, np.abs(numeric))
            assert float(np.max(np.abs(analytic - numeric) / scale)) <= 1e-5


# ---------------------------------------------------------------------------
# 3. DRO contracts
# ---------------------------------------------------------------------------


def _random_rows(rng, n, d) -> sp.csr_matrix:
    rows = []
    for _ in range(n):
        nnz = int(rng.integers(1, d))
        idx = np.sort(rng.choice(d, size=nnz, replace=False))
        vals = np.abs(rng.normal(size=nnz)) + 0.01
        vals /= np.sqrt((vals**2).sum())
        rows.append(sp.csr_matrix((vals, idx, [0, nnz]), shape=(1, d)))
    return sp.vstack(rows, format="csr")


def test_criterion_3_dro_contracts():
    with criterion(3, "oversampling contracts", 10.0):
        rng = np.random.default_rng(3003)

        # (b) arithmetic: the reference imbalance reproduces exactly
        assert synthetic_positive_count(121, 5309, 0.20) == 1206
        assert 121 + 1206 == 1327 and 1327 + 5309 == 6636

        # live run on a small set
        X = _random_rows(rng, 24, 8)
        labels = [1] * 4 + [0] * 20
        ids = [f"inst-{i}" for i in range(24)]
        profiles = fit_profiles(X)
        out = oversample(
            X, labels, ids, [40] * 24, profiles, DroConfig(target_positive_ratio=0.2), 9
        )
        n_pos = sum(ex.label for ex in out)
        n_neg = len(out) - n_pos
        assert n_neg == 20
        bound = 0.2 * n_neg / 0.8
        assert bound - 1.0 <= n_pos <= bound + 1.0

        # (a) natural blocks byte-exact, originals and synthetics alike
        M, _ = extended_to_csr(X, out, profiles.latent_dim)
        for i, ex in enumerate(out):
            source = X[ids.index(ex.source_id)]
            assert M[i, :8].data.tobytes() == source.data.tobytes()
            assert M[i, :8].indices.tobytes() == source.indices.tobytes()

        # (c) point-mass profile forces a deterministic latent unit vector
        X_pm = np.zeros((5, 1))
        X_pm[2, 0] = 1.0
        pm_profiles = fit_profiles(sp.csr_matrix(X_pm))
        one_feature = sp.csr_matrix(np.array([[1.0]]))
        for m in (1, 10, 1000):
            ext = extend(one_feature, pm_profiles, m, spawn_rng(m, "pm"))
            assert (ext.indices[1:] - 1).tolist() == [2]
            assert ext.data[1:].tolist() == [1.0]

        # (d) empirical latent distribution converges to the profile
        weights = np.array([0.05, 0.1, 0.15, 0.2, 0.2, 0.3])
        prof = fit_profiles(sp.csr_matrix(weights.reshape(6, 1)))
        counts = sample_latent_counts(one_feature, prof, 10_000, spawn_rng(3003, "chi"))
        assert chisquare(counts, f_exp=weights * 10_000).pvalue > 0.01


# ---------------------------------------------------------------------------
# 4. LOO leakage and determinism
# ---------------------------------------------------------------------------


def _fast_config(target: str, dro: bool) -> PipelineConfig:
    return PipelineConfig(
        features=FeatureConfig(
            enabled_blocks={FeatureBlock.CHAR_NGRAMS, FeatureBlock.TOKEN_LENGTHS},
            ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 2, 3}},
        ),
        segmentation=SegmentationConfig(min_tokens=60),
        learner=TrainConfig(C_grid=(1.0,), inner_folds=3),
        dro=DroConfig(target_positive_ratio=0.3) if dro else None,
        target_author=target,
    )


def test_criterion_4_loo_leakage_and_determinism(tmp_path, fold_fits):
    with criterion(4, "LOO leakage and determinism", 30.0):
        manifest = make_styled_corpus(
            tmp_path, {"Aldus": 4, "Benno": 4, "Castor": 4}, n_tokens=260, seed=5
        )
        # plant a marker trigram unique to one text
        marked = tmp_path / "corpus" / "benno-01.txt"
        marked.write_text("qqq " + marked.read_text(encoding="utf-8"), encoding="utf-8")
        corpus = load_corpus(manifest)
        config = _fast_config("Aldus", dro=True)

        report = loo_run(corpus, config, seed=13)
        assert len(report.records) == 12
        spaces = {}
        for doc in corpus.labelled():
            (fitted,) = fold_fits[stable_seed(13, "loo", doc.id)]
            spaces[doc.id] = fitted.space
            training = set(fitted.training_instance_ids)
            forbidden = held_out_segment_ids(doc, config.segmentation.min_tokens)
            assert not (forbidden & training), f"{doc.id} leaked into its own fold"
            assert all(t.split("#")[0] != doc.id for t in training)
            originals = [t for t in training if "#" not in t]
            assert fitted.space.n_instances == len(originals)
            assert fitted.profiles.latent_dim == len(originals)
        marker = "qqq"
        assert marker not in spaces["benno-01"].vocab[FeatureBlock.CHAR_NGRAMS]
        assert marker in spaces["benno-00"].vocab[FeatureBlock.CHAR_NGRAMS]

        serial = loo_run(corpus, config, seed=13, threads=1)
        threaded = loo_run(corpus, config, seed=13, threads=4)
        assert json.dumps(serial.canonical_dict(), sort_keys=True) == json.dumps(
            threaded.canonical_dict(), sort_keys=True
        )


# ---------------------------------------------------------------------------
# 5. End-to-end synthetic recovery
# ---------------------------------------------------------------------------


def test_criterion_5_synthetic_recovery(tmp_path):
    with criterion(5, "synthetic minority recovery with oversampling", 300.0):
        manifest = make_imbalanced_corpus(tmp_path, seed=101)
        corpus = load_corpus(manifest)
        assert len(corpus.labelled()) == 40
        assert corpus.authors()["Aldus"] == 4

        def config(dro: bool) -> PipelineConfig:
            return PipelineConfig(
                features=FeatureConfig(
                    enabled_blocks={FeatureBlock.CHAR_NGRAMS, FeatureBlock.TOKEN_LENGTHS},
                    ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 2, 3}},
                ),
                segmentation=SegmentationConfig(min_tokens=150),
                learner=TrainConfig(C_grid=(0.1, 1.0, 10.0), inner_folds=3),
                dro=DroConfig(target_positive_ratio=0.2) if dro else None,
                target_author="Aldus",
            )

        with_dro = loo_run(corpus, config(True), seed=42)
        without_dro = loo_run(corpus, config(False), seed=42)
        print(
            f"\n  with oversampling:    F1={with_dro.f1:.3f} "
            f"(TP={with_dro.table.tp} FP={with_dro.table.fp} FN={with_dro.table.fn})"
            f"\n  without oversampling: F1={without_dro.f1:.3f} "
            f"(TP={without_dro.table.tp} FP={without_dro.table.fp} FN={without_dro.table.fn})"
        )
        assert with_dro.f1 >= 0.9
        assert without_dro.f1 < with_dro.f1


# ---------------------------------------------------------------------------
# 6. Segmentation properties
# ---------------------------------------------------------------------------


def test_criterion_6_segmentation_properties():
    with criterion(6, "segmentation properties", 1.0):
        rng = np.random.default_rng(6006)
        for _ in range(50):
            n_sentences = int(rng.integers(1, 30))
            sentences = [
                " ".join(["uerbum"] * int(rng.integers(1, 120))) + "."
                for _ in range(n_sentences)
            ]
            doc = build_document("doc", "a", "T", " ".join(sentences))
            segs = segment(doc, min_tokens=400)
            assert sum(s.token_count for s in segs) == doc.token_count
            starts = {s for s, _ in doc.sentences}
            ends = {e for _, e in doc.sentences}
            cursor = 0
            for seg_ in segs:
                assert seg_.token_range[0] == cursor
                assert seg_.token_range[0] in starts
                assert seg_.token_range[1] in ends
                cursor = seg_.token_range[1]
            for seg_ in segs[:-1]:
                assert seg_.token_count >= 400

        long_doc = build_document("long", "a", "T", " ".join(["uerbum"] * 777) + ".")
        segs = segment(long_doc, min_tokens=400)
        assert len(segs) == 1 and segs[0].token_count == 778


# ---------------------------------------------------------------------------
# 7. Ablation driver
# ---------------------------------------------------------------------------


def test_criterion_7_ablation_removes_noise_block(tmp_path):
    with criterion(7, "greedy ablation drops the useless block", 120.0):
        corpus = load_corpus(make_orthogonal_corpus(tmp_path))
        pool = (
            FeatureBlock.TOKEN_LENGTHS,
            FeatureBlock.POS_NGRAMS,
            FeatureBlock.CHAR_NGRAMS,
        )
        config = PipelineConfig(
            features=FeatureConfig(
                enabled_blocks=set(pool),
                ngram_orders={
                    FeatureBlock.CHAR_NGRAMS: {1, 2, 3},
                    FeatureBlock.POS_NGRAMS: {1, 2},
                },
            ),
            segmentation=SegmentationConfig(min_tokens=40),
            learner=TrainConfig(C_grid=(1.0,)),
            dro=None,
            target_author="A",
        )
        report = ablate(corpus, pool, config, mode=ABLATION_EXACT, seed=4)
        # exactly the noise block goes, then the loop stops
        assert [it.removed for it in report.iterations] == [FeatureBlock.TOKEN_LENGTHS]
        assert set(report.final_pool) == {FeatureBlock.POS_NGRAMS, FeatureBlock.CHAR_NGRAMS}
        # removal rule: a block is only removed when the score does not drop
        for it in report.iterations:
            assert it.removed_score >= it.pool_score
            best = max(it.candidate_scores.values())
            assert it.candidate_scores[it.removed] == best
        # and the stop is justified: every remaining candidate scores worse
        for score in report.stop_candidate_scores.values():
            assert score < report.final_score


# ---------------------------------------------------------------------------
# 8. Full-corpus reproduction (optional-extended)
# ---------------------------------------------------------------------------

CORPUS_CONFIG_VAR = "STYLAUTH_CORPUS_CONFIG"
EXPECTED_VAR = "STYLAUTH_EXPECTED"


@pytest.mark.skipif(
    not (os.environ.get(CORPUS_CONFIG_VAR) and os.environ.get(EXPECTED_VAR)),
    reason=f"set {CORPUS_CONFIG_VAR} and {EXPECTED_VAR} to run the full-corpus study",
)
def test_criterion_8_full_corpus_reproduction():
    with criterion(8, "full-corpus reproduction", 2 * 24 * 3600.0):
        run = load_run_config(os.environ[CORPUS_CONFIG_VAR])
        expected = json.loads(Path(os.environ[EXPECTED_VAR]).read_text(encoding="utf-8"))
        corpus = load_corpus(run.manifest)

        counts = expected.get("feature_block_counts")
        if counts:
            docs = [d for d in corpus.labelled()]
            instances = document_instances(docs, run.pipeline.segmentation)
            space = fit_feature_space(instances, run.pipeline.features)
            for block_name, expected_count in counts.items():
                actual = len(space.vocab[FeatureBlock(block_name)])
                assert abs(actual - expected_count) <= 0.05 * expected_count, (
                    f"{block_name}: {actual} columns vs expected {expected_count}"
                )

        loo_expected = expected.get("loo")
        if loo_expected:
            report = loo_run(corpus, run.pipeline, run.seed, threads=run.threads)
            assert abs(report.f1 - loo_expected["f1"]) <= loo_expected.get("tolerance", 0.02)
            fp_ids = sorted(
                r.text_id
                for r in report.records
                if r.predicted_class == report.target_author
                and r.true_class != report.target_author
            )
            if "false_positive_ids" in loo_expected:
                assert fp_ids == sorted(loo_expected["false_positive_ids"])

        attribution_expected = expected.get("attribution")
        if attribution_expected:
            result = attribute_disputed(
                corpus,
                run.disputed_id,
                run.pipeline,
                min_texts_per_author=attribution_expected.get("min_texts", 1),
                seed=run.seed,
            )
            assert result.ranking[0][0] == attribution_expected["top_author"]

        similarity_expected = expected.get("similarity")
        if similarity_expected:
            ranking = rank_similar(corpus, run.disputed_id, run.pipeline, top_k=10)
            assert ranking.entries[0][0] == similarity_expected["top_text_id"]
