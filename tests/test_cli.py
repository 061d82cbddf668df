"""Command-line front end: exit codes, report files, determinism."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from stylauth import pipeline
from stylauth.cli import (
    EXIT_CONFIG,
    EXIT_CORPUS,
    EXIT_EXPERIMENT,
    EXIT_OK,
    main,
)
from stylauth.config import load_run_config
from stylauth.corpus import load_corpus
from stylauth.pipeline import SegmentationConfig

from conftest import make_styled_corpus


def write_config(
    tmp_path: Path,
    manifest: Path,
    *,
    target="Aldus",
    disputed=None,
    dro=False,
    seed=5,
    extra=None,
) -> Path:
    config = {
        "manifest": str(manifest.relative_to(tmp_path)),
        "target_author": target,
        "seed": seed,
        "output_dir": "out",
        "features": {
            "blocks": ["char_ngrams", "token_lengths"],
            "ngram_orders": {"char_ngrams": [1, 2, 3]},
        },
        "segmentation": {"min_tokens": 60, "include_full_texts": True},
        "dro": {"enabled": dro, "target_positive_ratio": 0.3},
        "learner": {"C_grid": [1.0], "inner_folds": 3},
    }
    if disputed:
        config["disputed_id"] = disputed
    if extra:
        config.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.fixture
def corpus_dir(tmp_path):
    manifest = make_styled_corpus(
        tmp_path,
        {"Aldus": 3, "Benno": 3},
        n_tokens=200,
        seed=19,
        disputed_from="Aldus",
    )
    return tmp_path, manifest


class TestExitCodes:
    def test_loo_succeeds(self, corpus_dir, capsys):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest)
        assert main(["loo", "--config", str(config)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "F1=" in out
        assert (tmp / "out" / "loo_report.json").is_file()
        assert (tmp / "out" / "loo_per_text.csv").is_file()
        assert (tmp / "out" / "loo_hardest.csv").is_file()

    def test_missing_manifest_is_corpus_error(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "absent.csv")
        assert main(["loo", "--config", str(config)]) == EXIT_CORPUS

    def test_invalid_config_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["loo", "--config", str(path)]) == EXIT_CONFIG

    def test_missing_required_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1}), encoding="utf-8")
        assert main(["loo", "--config", str(path)]) == EXIT_CONFIG

    def test_unknown_block_rejected(self, corpus_dir):
        tmp, manifest = corpus_dir
        config = write_config(
            tmp, manifest, extra={"features": {"blocks": ["nonexistent_block"]}}
        )
        assert main(["loo", "--config", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "section, key, dro",
        [
            (None, "threds", False),
            ("features", "ngram_order", False),
            ("segmentation", "min_token", False),
            ("dro", "target_positve_ratio", True),
            ("dro", "target_positve_ratio", False),
            ("dro", "latent_dimension", True),
            ("dro", "samples_per_extension", False),
            ("learner", "c_grid", False),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, section, key, dro):
        path = write_config(tmp_path, tmp_path / "manifest.csv", dro=dro)
        config = json.loads(path.read_text(encoding="utf-8"))
        (config[section] if section else config)[key] = 1
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["loo", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert repr(key) in err
        assert (section or "config") in err

    @pytest.mark.parametrize(
        "extra, flags", [({"threads": 0}, []), ({"threads": -3}, []), ({}, ["--threads", "0"])]
    )
    def test_threads_below_one_rejected(self, tmp_path, capsys, extra, flags):
        config = write_config(tmp_path, tmp_path / "manifest.csv", extra=extra)
        assert main(["loo", "--config", str(config), *flags]) == EXIT_CONFIG
        assert "threads must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "verify", "attribute", "similar"])
    def test_threads_offered_only_to_fold_commands(self, tmp_path, command):
        config = write_config(tmp_path, tmp_path / "manifest.csv")
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", str(config), "--threads", "2"])
        assert exit_info.value.code == EXIT_CONFIG

    def test_verify_without_disputed_text_fails(self, tmp_path):
        manifest = make_styled_corpus(tmp_path, {"Aldus": 2, "Benno": 2}, n_tokens=150)
        config = write_config(tmp_path, manifest, disputed="nope")
        assert main(["verify", "--config", str(config)]) == EXIT_EXPERIMENT

    def test_verify_without_disputed_id_in_config_fails(self, corpus_dir):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest)  # no disputed_id key
        assert main(["verify", "--config", str(config)]) == EXIT_EXPERIMENT

    @pytest.mark.parametrize(
        "extra, flags",
        [({}, ["--top-k", "0"]), ({}, ["--top-k", "-1"]), ({"similar_top_k": 0}, [])],
    )
    def test_similar_top_k_below_one_rejected(self, corpus_dir, capsys, extra, flags):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest, disputed="disputed-text", extra=extra)
        assert main(["similar", "--config", str(config), *flags]) == EXIT_CONFIG
        assert "at least 1" in capsys.readouterr().err
        assert not (tmp / "out" / "similarity_report.json").exists()

    @pytest.mark.parametrize("replicas", ["0", "-1"])
    def test_verify_replicas_below_one_rejected(self, corpus_dir, capsys, replicas):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest, disputed="disputed-text")
        assert main(["verify", "--config", str(config), "--replicas", replicas]) == EXIT_CONFIG
        assert "at least 1" in capsys.readouterr().err
        assert not (tmp / "out" / "verdict.json").exists()


class TestCommands:
    def test_ingest_writes_summary_and_no_cache(self, corpus_dir, capsys):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest)
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        report = json.loads((tmp / "out" / "ingest_report.json").read_text())
        assert report["results"]["document_count"] == 7
        assert report["results"]["labelled_count"] == 6
        assert report["results"]["disputed_ids"] == ["disputed-text"]
        assert "cache_path" not in report["results"]
        assert not (tmp / "out" / "corpus_cache.pkl").exists()
        assert main(["loo", "--config", str(config)]) == EXIT_OK

    def test_loo_reads_text_edited_after_ingest(self, tmp_path):
        make_styled_corpus(tmp_path, {"Aldus": 3, "Benno": 3}, n_tokens=200, seed=19)
        # a manifest in its own directory, naming texts outside it
        manifest = tmp_path / "lists" / "manifest.csv"
        manifest.parent.mkdir()
        rows = (tmp_path / "manifest.csv").read_text(encoding="utf-8")
        manifest.write_text(rows.replace("corpus/", "../corpus/"), encoding="utf-8")
        config = write_config(tmp_path, manifest)
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        ingested = json.loads((tmp_path / "out" / "ingest_report.json").read_text())

        text = tmp_path / "corpus" / "aldus-00.txt"
        text.write_text(text.read_text(encoding="utf-8") + " et in ad non.\n", encoding="utf-8")
        assert main(["loo", "--config", str(config)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "loo_report.json").read_text())
        fingerprint = report["meta"]["corpus_fingerprint"]
        assert fingerprint == load_corpus(manifest).fingerprint()
        assert fingerprint != ingested["meta"]["corpus_fingerprint"]
        assert report["results"]["corpus_fingerprint"] == fingerprint

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_ablate_extracts_each_instance_once(self, corpus_dir, monkeypatch, threads):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest)
        calls: Counter[str] = Counter()
        real_extract_all = pipeline.extract_all

        def counting_extract_all(instance, features):
            calls[instance.instance_id] += 1
            return real_extract_all(instance, features)

        monkeypatch.setattr(pipeline, "extract_all", counting_extract_all)
        argv = ["ablate", "--config", str(config), "--mode", "hardest10"]
        assert main([*argv, "--threads", str(threads)]) == EXIT_OK
        corpus = load_corpus(manifest)
        expected = {
            inst.instance_id
            for inst in pipeline.document_instances(corpus.labelled(), SegmentationConfig(60))
        }
        assert len(expected) > len(corpus.labelled())  # segments are extracted too
        assert set(calls) == expected
        assert set(calls.values()) == {1}

    def test_verify_writes_verdict(self, corpus_dir):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest, disputed="disputed-text", dro=True)
        assert main(["verify", "--config", str(config), "--replicas", "3"]) == EXIT_OK
        verdict = json.loads((tmp / "out" / "verdict.json").read_text())
        assert len(verdict["results"]["replica_posteriors"]) == 3
        assert verdict["meta"]["command"] == "verify"
        assert verdict["meta"]["seed"] == 5
        assert verdict["meta"]["toolkit_version"]
        assert verdict["meta"]["corpus_fingerprint"]
        assert verdict["meta"]["config"]["target_author"] == "Aldus"

    def test_attribute_writes_ranking(self, corpus_dir):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest, disputed="disputed-text")
        assert main(["attribute", "--config", str(config), "--min-texts", "2"]) == EXIT_OK
        report = json.loads((tmp / "out" / "attribution_report.json").read_text())
        ranking = report["results"]["ranking"]
        assert ranking[0][0] == "Aldus"
        assert (tmp / "out" / "attribution_ranking.csv").is_file()

    def test_attribute_with_loo_contingency(self, corpus_dir):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest, disputed="disputed-text")
        code = main(
            ["attribute", "--config", str(config), "--min-texts", "2", "--with-loo"]
        )
        assert code == EXIT_OK
        report = json.loads((tmp / "out" / "attribution_report.json").read_text())
        assert "loo" in report["results"]
        assert (tmp / "out" / "attribution_contingency.csv").is_file()

    def test_similar_writes_ranking(self, corpus_dir):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest, disputed="disputed-text")
        assert main(["similar", "--config", str(config), "--top-k", "4"]) == EXIT_OK
        report = json.loads((tmp / "out" / "similarity_report.json").read_text())
        assert len(report["results"]["entries"]) == 4
        assert report["results"]["entries"][0][1] == "Aldus"

    def test_ablate_writes_report(self, corpus_dir):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest)
        assert main(["ablate", "--config", str(config), "--mode", "exact"]) == EXIT_OK
        report = json.loads((tmp / "out" / "ablation_report.json").read_text())
        assert report["results"]["mode"] == "exact"
        assert (tmp / "out" / "ablation_scores.csv").is_file()


class TestFullFeatureStack:
    def test_all_nine_blocks_through_config(self, tmp_path):
        from conftest import make_orthogonal_corpus

        manifest = make_orthogonal_corpus(tmp_path)
        (tmp_path / "function_words.txt").write_text("bra\ngno\nmon\n", encoding="utf-8")
        (tmp_path / "verbal_endings.txt").write_text("phi\nzel\ntes\n", encoding="utf-8")
        config = {
            "manifest": str(manifest.relative_to(tmp_path)),
            "target_author": "A",
            "seed": 3,
            "output_dir": "out",
            "features": {
                "blocks": [
                    "token_lengths",
                    "function_words",
                    "sentence_lengths",
                    "pos_ngrams",
                    "char_ngrams",
                    "dep_ngrams",
                    "verbal_endings",
                    "masked_dvma",
                    "masked_dvex",
                ],
                "ngram_orders": {
                    "pos_ngrams": [1, 2],
                    "char_ngrams": [1, 2, 3],
                    "dep_ngrams": [1],
                    "masked_dvma": [2, 3],
                    "masked_dvex": [2, 3],
                },
                "function_word_list": "function_words.txt",
                "verbal_ending_list": "verbal_endings.txt",
            },
            "segmentation": {"min_tokens": 40},
            "dro": {"enabled": True, "target_positive_ratio": 0.3},
            "learner": {"C_grid": [1.0], "inner_folds": 2},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["ingest", "--config", str(path)]) == EXIT_OK
        assert main(["loo", "--config", str(path)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "loo_report.json").read_text())
        assert len(report["results"]["records"]) == 15
        assert report["results"]["f1"] == 1.0


class TestDeterminism:
    def _payload(self, path: Path) -> dict:
        data = json.loads(path.read_text())
        data.pop("timing", None)
        return data

    def test_identical_runs_identical_payloads(self, tmp_path):
        manifest = make_styled_corpus(
            tmp_path, {"Aldus": 3, "Benno": 3}, n_tokens=200, seed=19
        )
        config = write_config(tmp_path, manifest, dro=True)
        assert main(["loo", "--config", str(config), "--output-dir", str(tmp_path / "r1")]) == EXIT_OK
        assert main(["loo", "--config", str(config), "--output-dir", str(tmp_path / "r2")]) == EXIT_OK
        a = self._payload(tmp_path / "r1" / "loo_report.json")
        b = self._payload(tmp_path / "r2" / "loo_report.json")
        assert a == b

    def test_seed_override_changes_payload(self, tmp_path):
        manifest = make_styled_corpus(
            tmp_path, {"Aldus": 3, "Benno": 3}, n_tokens=200, seed=19
        )
        config = write_config(tmp_path, manifest, dro=True)
        main(["loo", "--config", str(config), "--output-dir", str(tmp_path / "r1")])
        main(["loo", "--config", str(config), "--seed", "77", "--output-dir", str(tmp_path / "r2")])
        a = self._payload(tmp_path / "r1" / "loo_report.json")
        b = self._payload(tmp_path / "r2" / "loo_report.json")
        assert a != b
        assert b["meta"]["seed"] == 77


def test_readme_run_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Run configuration") :]
    start = section.index("```json\n") + len("```json\n")
    example = json.loads(section[start : section.index("```", start)])
    for key in ("function_word_list", "verbal_ending_list"):
        resource = tmp_path / example["features"][key]
        resource.parent.mkdir(parents=True, exist_ok=True)
        resource.write_text("et\nin\n", encoding="utf-8")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(example), encoding="utf-8")
    run = load_run_config(path)
    assert run.raw == example
    assert run.manifest == tmp_path / example["manifest"]
    assert run.threads == example["threads"]
    assert run.pipeline.features.function_words == ("et", "in")
    assert run.pipeline.dro.target_positive_ratio == example["dro"]["target_positive_ratio"]
