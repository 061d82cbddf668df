"""Command-line front end: exit codes, report files, determinism."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import stylauth
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
from stylauth.dro import DroConfig
from stylauth.learner import TrainConfig
from stylauth.pipeline import SegmentationConfig

from conftest import make_styled_corpus, write_corpus


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


def _run_python(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process that imports this checkout."""
    src = str(Path(stylauth.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _run_cli(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """``python -m stylauth.cli`` in a fresh process that imports this checkout."""
    return _run_python("-m", "stylauth.cli", *argv, env=env)


def _append_invalid_utf8(path: Path) -> None:
    path.write_bytes(path.read_bytes() + b"\xff\n")


def _set_first_record(key: str, value):
    def edit(manifest: Path) -> None:
        records = json.loads(manifest.read_text(encoding="utf-8"))
        records[0][key] = value
        manifest.write_text(json.dumps(records), encoding="utf-8")

    return edit


# case: (manifest format, the file to spoil, how, exit code)
UNREADABLE_INPUTS = {
    "json-manifest-unparsable": (
        "json", "manifest.json", lambda path: path.write_text("[{", encoding="utf-8"), EXIT_CORPUS
    ),
    "json-id-not-a-string": ("json", "manifest.json", _set_first_record("id", 5), EXIT_CORPUS),
    "json-title-not-a-string": ("json", "manifest.json", _set_first_record("title", 7), EXIT_CORPUS),
    "csv-manifest-not-utf8": ("csv", "manifest.csv", _append_invalid_utf8, EXIT_CORPUS),
    "text-not-utf8": ("csv", "corpus/a.txt", _append_invalid_utf8, EXIT_CORPUS),
    "annotations-not-utf8": ("csv", "corpus/a.tsv", _append_invalid_utf8, EXIT_CORPUS),
    "word-list-not-utf8": ("csv", "words.txt", _append_invalid_utf8, EXIT_CONFIG),
    "config-not-utf8": ("csv", "run.json", _append_invalid_utf8, EXIT_CONFIG),
}


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
        "section, extra",
        [
            ("segmentation", {"segmentation": {"min_tokens": 0}}),
            ("segmentation", {"segmentation": {"min_tokens": -5}}),
            ("features", {"features": {
                "blocks": ["char_ngrams", "token_lengths"],
                "ngram_orders": {"char_ngrams": [1], "token_lengths": [1]},
            }}),
        ],
    )
    def test_invalid_section_value_rejected(self, tmp_path, capsys, section, extra):
        config = write_config(tmp_path, tmp_path / "manifest.csv", extra=extra)
        assert main(["loo", "--config", str(config)]) == EXIT_CONFIG
        assert f"error: {section}: " in capsys.readouterr().err

    @pytest.mark.parametrize("orders", [[True, 2], [1, False], "1", [1.5], {"1": 1}])
    def test_ngram_orders_that_are_not_integers_rejected(self, tmp_path, capsys, orders):
        features = {"blocks": ["char_ngrams"], "ngram_orders": {"char_ngrams": orders}}
        config = write_config(tmp_path, tmp_path / "manifest.csv", extra={"features": features})
        assert main(["loo", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "features.ngram_orders.char_ngrams: must be a list of integers" in err

    @pytest.mark.parametrize(
        "learner, message",
        [
            ({"C_grid": [0.1, float("nan"), 1.0]}, "C_grid must be a nonempty list of positive"),
            ({"C_grid": [1.0, float("inf")]}, "C_grid must be a nonempty list of positive"),
            ({"tolerance": float("inf")}, "tolerance must be positive and finite, got inf"),
            ({"C": float("nan")}, "C must be positive and finite, got nan"),
            ({"C_grid": [1.0, 0.1, 1.0]}, "C_grid repeats 1.0"),
        ],
    )
    def test_non_finite_or_repeated_learner_value_rejected(
        self, tmp_path, capsys, learner, message
    ):
        # json.dumps writes NaN and Infinity, which json.loads reads back
        extra = {"learner": {"inner_folds": 3, **learner}}
        config = write_config(tmp_path, tmp_path / "manifest.csv", extra=extra)
        assert main(["loo", "--config", str(config)]) == EXIT_CONFIG
        assert f"error: learner: {message}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("case", UNREADABLE_INPUTS)
    def test_unreadable_input_exits_with_its_code(self, tmp_path, case):
        fmt, spoiled, spoil, code = UNREADABLE_INPUTS[case]
        rows = [("aqua", "N", "root"), ("et", "C", "cc"), ("terra", "N", "sub")]
        docs = [
            {"id": "a", "author": "X", "text": "aqua et terra.", "annotations": {"rows": rows}},
            {"id": "b", "author": "Y", "text": "terra et aqua."},
        ]
        manifest = write_corpus(tmp_path, docs, fmt=fmt)
        (tmp_path / "words.txt").write_text("et\n", encoding="utf-8")
        features = {"blocks": ["function_words"], "function_word_list": "words.txt"}
        config = write_config(tmp_path, manifest, extra={"features": features})
        assert _run_cli("ingest", "--config", str(config)).returncode == EXIT_OK
        spoil(tmp_path / spoiled)
        result = _run_cli("ingest", "--config", str(config))
        assert result.returncode == code
        assert "Traceback" not in result.stderr
        prefix = "corpus error: " if code == EXIT_CORPUS else "config error: "
        assert result.stderr.startswith(prefix)
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("output_dir", ["a-file", "a-file/out"])
    def test_output_dir_that_cannot_be_made_is_a_config_error(
        self, corpus_dir, capsys, output_dir
    ):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest)
        (tmp / "a-file").write_text("", encoding="utf-8")
        path = tmp / output_dir
        assert main(["ingest", "--config", str(config), "--output-dir", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {path}: ")
        assert err.count("\n") == 1

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

    def test_similar_top_k_below_one_rejected_by_every_command(self, corpus_dir, capsys):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest, extra={"similar_top_k": 0})
        assert main(["loo", "--config", str(config)]) == EXIT_CONFIG
        assert "similar_top_k must be at least 1" in capsys.readouterr().err
        assert not (tmp / "out" / "loo_report.json").exists()

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

    @pytest.mark.parametrize("include_full_texts, expected", [(True, 6), (False, 0)])
    def test_texts_training_only_in_full_are_counted(self, corpus_dir, include_full_texts,
                                                      expected):
        tmp, manifest = corpus_dir
        # every 200-token text is shorter than min_tokens, so it yields one segment
        segmentation = {"min_tokens": 1000, "include_full_texts": include_full_texts}
        config = str(write_config(tmp, manifest, extra={"segmentation": segmentation}))
        for command in ("ingest", "loo"):
            assert main([command, "--config", config]) == EXIT_OK
            report = json.loads((tmp / "out" / f"{command}_report.json").read_text())
            assert report["results"]["full_text_only_count"] == expected, command
        # one row per training text, not two
        assert {r["training_rows"] for r in report["results"]["records"]} == {5}

    def test_manifest_with_byte_order_mark_ingests(self, corpus_dir):
        tmp, manifest = corpus_dir
        manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        config = write_config(tmp, manifest)
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        report = json.loads((tmp / "out" / "ingest_report.json").read_text())
        assert report["results"]["document_count"] == 7

    def test_text_with_byte_order_mark_reads_as_without(self, tmp_path):
        docs = [
            {"id": "a", "author": "X", "text": "aqua et terra."},
            {"id": "b", "author": "Y", "text": "terra et aqua."},
        ]
        manifest = write_corpus(tmp_path, docs)
        plain = {d.id: d for d in load_corpus(manifest)}["a"]
        text = tmp_path / "corpus" / "a.txt"
        text.write_bytes(b"\xef\xbb\xbf" + text.read_bytes())
        marked = {d.id: d for d in load_corpus(manifest)}["a"]
        assert marked.tokens == plain.tokens
        assert marked.text_sha256() == plain.text_sha256()

    @pytest.mark.parametrize("copy_author", ["Y", "UNKNOWN"])
    def test_duplicate_texts_are_a_corpus_error(self, tmp_path, capsys, copy_author):
        docs = [
            {"id": "a", "author": "X", "text": "Aqua et terra."},
            {"id": "b", "author": "Y", "text": "terra et aqua."},
            # the same normalized text: case and a quoted span do not count
            {"id": "c", "author": copy_author, "text": "aqua {q:manet}et terra."},
        ]
        config = write_config(tmp_path, write_corpus(tmp_path, docs))
        assert main(["ingest", "--config", str(config)]) == EXIT_CORPUS
        err = capsys.readouterr().err
        assert err.startswith("corpus error: ")
        assert "documents 'a' and 'c' have the same normalized text" in err

    def test_texts_differing_only_in_whitespace_are_a_corpus_error(self, tmp_path, capsys):
        docs = [
            {"id": "spaced", "author": "X", "text": "bra gno phi zel. " * 30},
            {"id": "other", "author": "Y", "text": "mon tes val cor. " * 30},
            {"id": "wrapped", "author": "Y", "text": "bra gno phi zel.\n" * 30},
        ]
        manifest = write_corpus(tmp_path, docs)
        config = write_config(tmp_path, manifest)
        assert main(["ingest", "--config", str(config)]) == EXIT_CORPUS
        err = capsys.readouterr().err
        assert err.startswith("corpus error: ")
        assert "documents 'spaced' and 'wrapped' have the same normalized text" in err

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
        instances = pipeline.document_instances(corpus.labelled(), SegmentationConfig(60))
        # every text trains beside its segments, so its counts are summed from theirs
        segments = [inst for inst in instances if inst.segment is not None]
        assert {inst.doc.id for inst in segments} == {doc.id for doc in corpus.labelled()}
        assert set(calls) == {inst.instance_id for inst in segments}
        assert set(calls.values()) == {1}

    def test_loo_segments_each_labelled_text_once(self, corpus_dir, monkeypatch):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest)
        calls: Counter[str] = Counter()
        real_segment = pipeline.segment

        def counting_segment(doc, min_tokens):
            calls[doc.id] += 1
            return real_segment(doc, min_tokens)

        monkeypatch.setattr(pipeline, "segment", counting_segment)
        assert main(["loo", "--config", str(config)]) == EXIT_OK
        assert calls == Counter(doc.id for doc in load_corpus(manifest).labelled())

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

    def test_ablation_csv_holds_the_stop_step(self, corpus_dir):
        tmp, manifest = corpus_dir
        features = {
            "blocks": ["char_ngrams", "token_lengths", "sentence_lengths"],
            "ngram_orders": {"char_ngrams": [1, 2, 3]},
        }
        config = write_config(tmp, manifest, seed=0, extra={"features": features})
        assert main(["ablate", "--config", str(config), "--mode", "hardest10"]) == EXIT_OK
        results = json.loads((tmp / "out" / "ablation_report.json").read_text())["results"]
        with (tmp / "out" / "ablation_scores.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        steps = sum(len(it["candidate_scores"]) for it in results["iterations"])
        stop = results["stop_candidate_scores"]
        assert stop  # the search stopped with more than one block left
        assert len(rows) == steps + len(stop)
        assert [int(r["row"]) for r in rows] == list(range(len(rows)))
        final_pool = "|".join(results["final_pool"])
        assert {r["removed_block"]: [float(r["score"]), float(r["tiebreak"])]
                for r in rows[steps:] if r["pool"] == final_pool} == stop

    def test_exact_ablation_csv_has_one_score_column(self, corpus_dir):
        tmp, manifest = corpus_dir
        config = write_config(tmp, manifest)
        assert main(["ablate", "--config", str(config), "--mode", "exact"]) == EXIT_OK
        with (tmp / "out" / "ablation_scores.csv").open(encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["row", "pool", "removed_block", "score"]
        assert rows and all(len(row) == len(header) for row in rows)

    def test_payload_key_sets_are_pinned(self, corpus_dir):
        # A payload is its report's fields, so a new field shows up here.
        tmp, manifest = corpus_dir
        # three blocks, so that ablation removes at least one
        features = {
            "blocks": ["char_ngrams", "token_lengths", "sentence_lengths"],
            "ngram_orders": {"char_ngrams": [1, 2, 3]},
        }
        config = str(
            write_config(tmp, manifest, disputed="disputed-text", dro=True,
                         extra={"features": features})
        )
        for argv in (
            ["verify", "--replicas", "2"],
            ["attribute", "--min-texts", "2", "--with-loo"],
            ["similar"],
            ["ablate", "--mode", "exact"],
        ):
            assert main([argv[0], "--config", config, *argv[1:]]) == EXIT_OK

        def results(name: str) -> dict:
            report = json.loads((tmp / "out" / name).read_text(encoding="utf-8"))
            assert set(report) == {"meta", "results"}
            return report["results"]

        assert set(results("verdict.json")) == {
            "disputed_id", "target_author", "replica_posteriors", "median_posterior",
            "predicted_class", "seed", "corpus_fingerprint",
        }
        attribution = results("attribution_report.json")
        assert set(attribution) == {
            "disputed_id", "min_texts_per_author", "candidate_authors", "ranking",
            "fitted_C", "seed", "corpus_fingerprint", "loo",
        }
        assert set(attribution["loo"]) == {
            "authors", "records", "seed", "corpus_fingerprint", "matrix", "macro_f1",
            "vanilla_accuracy", "correct_count", "total_count",
        }
        assert set(results("similarity_report.json")) == {
            "disputed_id", "entries", "corpus_fingerprint",
        }
        ablation = results("ablation_report.json")
        assert set(ablation) == {
            "mode", "seed", "initial_pool", "final_pool", "final_score", "iterations",
            "stop_candidate_scores", "hardest_text_ids",
        }
        assert ablation["iterations"]
        for iteration in ablation["iterations"]:
            assert set(iteration) == {
                "pool", "pool_score", "candidate_scores", "removed", "removed_score",
            }


def test_loo_at_a_tight_tolerance_converges_from_a_working_precision_start(
    tmp_path, monkeypatch, caplog
):
    # The tiny tier of the bench's loo-dro workload, seed 1, at tolerance
    # 1e-10: a final fit starts from a Newton solution that stopped at
    # working precision (gradient about 3e-9), where L-BFGS-B's first line
    # search finds no decrease.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import synth

    spec = synth.CorpusSpec((("Aldus", 3), ("Benno", 3), ("Castor", 3)), 120)
    synth.write_corpus(tmp_path / "corpus", spec, 1)
    config = {
        "manifest": "corpus/manifest.csv",
        "target_author": "Aldus",
        "seed": 1,
        "features": {
            "blocks": ["token_lengths", "function_words", "sentence_lengths", "char_ngrams"],
            "function_word_list": "corpus/function_words.txt",
        },
        "segmentation": {"min_tokens": 60, "include_full_texts": True},
        "dro": {"enabled": True, "target_positive_ratio": 0.3},
        "learner": {"tolerance": 1e-10},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with caplog.at_level("WARNING", logger="stylauth.learner"):
        assert main(["loo", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert not [r for r in caplog.records if "stopped after 0 iterations" in r.getMessage()]
    report = json.loads((tmp_path / "out" / "loo_report.json").read_text(encoding="utf-8"))
    records = report["results"]["records"]
    assert len(records) == 9
    assert all(r["converged"] for r in records)
    assert any(r["n_iter"] == 0 for r in records)


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
        # fresh processes with different string hashing agree too
        for hash_seed in ("0", "1"):
            out = tmp_path / f"hash{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = _run_cli("loo", "--config", str(config), "--output-dir", str(out), env=env)
            assert result.returncode == EXIT_OK, result.stderr
            assert self._payload(out / "loo_report.json") == a

    def test_manifest_row_order_changes_no_report(self, tmp_path):
        commands = (
            ["ingest"],
            ["loo"],
            ["ablate"],
            ["verify", "--replicas", "3"],
            ["attribute", "--min-texts", "2", "--with-loo"],
            ["similar"],
        )
        outputs = []
        for order in ("given", "reversed"):
            root = tmp_path / order
            manifest = make_styled_corpus(
                root, {"Aldus": 3, "Benno": 3, "Castor": 2}, n_tokens=200, seed=19,
                disputed_from="Aldus",
            )
            if order == "reversed":
                header, *rows = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
                manifest.write_text(header + "".join(reversed(rows)), encoding="utf-8")
            config = write_config(root, manifest, disputed="disputed-text", dro=True)
            for command, *flags in commands:
                assert main([command, "--config", str(config), *flags]) == EXIT_OK
            outputs.append(root / "out")
        given, reversed_ = outputs
        names = sorted(path.name for path in given.iterdir())
        assert names == sorted(path.name for path in reversed_.iterdir())
        assert len(names) == 12
        for name in names:
            if name.endswith(".json"):
                assert self._payload(given / name) == self._payload(reversed_ / name), name
            else:
                assert (given / name).read_bytes() == (reversed_ / name).read_bytes(), name

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


def _minimal_pipeline(tmp_path: Path, sections: dict):
    """The pipeline config of a file with the required keys and ``sections``."""
    path = tmp_path / "run.json"
    config = {"manifest": "m.csv", "features": {"blocks": ["char_ngrams"]}, **sections}
    path.write_text(json.dumps(config), encoding="utf-8")
    return load_run_config(path).pipeline


@pytest.mark.parametrize(
    "sections",
    [
        {},
        {"segmentation": None, "learner": None, "dro": None},
        {
            "segmentation": {"min_tokens": None, "include_full_texts": None},
            "learner": dict.fromkeys(["C", "C_grid", "inner_folds", "tolerance", "max_iterations"]),
            "dro": {"enabled": False, "target_positive_ratio": None},
        },
    ],
)
def test_absent_or_null_keys_take_the_dataclass_defaults(tmp_path, sections):
    pipeline_config = _minimal_pipeline(tmp_path, sections)
    assert pipeline_config.segmentation == SegmentationConfig()
    assert pipeline_config.learner == TrainConfig()
    assert pipeline_config.dro is None


@pytest.mark.parametrize(
    "dro", [{}, {"enabled": True}, {"enabled": None, "target_positive_ratio": None}]
)
def test_an_enabled_dro_section_takes_the_dataclass_defaults(tmp_path, dro):
    assert _minimal_pipeline(tmp_path, {"dro": dro}).dro == DroConfig()


# Which of a fresh process's steps have loaded scipy.optimize: first the
# modules every fit uses, then the CLI, a DRO ``loo`` on the default C grid
# (its fits take the Gram/Newton path), and an ``attribute`` (multinomial
# fits, which run L-BFGS-B).
_STARTUP_SCRIPT = """
import json, sys
import numpy, scipy.linalg.lapack, scipy.sparse, scipy.special
seen = {"baseline": "scipy.optimize" in sys.modules}
from stylauth import cli
seen["import"] = "scipy.optimize" in sys.modules
assert cli.main(["loo", "--config", sys.argv[1]]) == 0
seen["loo"] = "scipy.optimize" in sys.modules
assert cli.main(["attribute", "--config", sys.argv[1], "--min-texts", "2"]) == 0
seen["attribute"] = "scipy.optimize" in sys.modules
print(json.dumps(seen))
"""


def test_scipy_optimize_is_imported_only_by_a_fit_that_runs_lbfgsb(corpus_dir):
    # measured against the baseline, so a scipy that loads scipy.optimize
    # through numpy's or its own fit-path modules cannot fail the test
    tmp, manifest = corpus_dir
    config = write_config(
        tmp, manifest, disputed="disputed-text", dro=True, extra={"learner": {"inner_folds": 3}}
    )
    done = _run_python("-c", _STARTUP_SCRIPT, str(config))
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["import"] == seen["baseline"]
    assert seen["loo"] == seen["baseline"]
    assert seen["attribute"]


# the BLAS thread variables that importing stylauth defaults to 1
_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _blas_env(**preset: str) -> dict:
    """This process's environment with no BLAS thread variable but ``preset``."""
    env = {key: value for key, value in os.environ.items() if key not in _BLAS_VARS}
    return {**env, **preset}


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_importing_stylauth_defaults_blas_threads_to_one(preset):
    script = f"import json, os, stylauth; print(json.dumps([os.environ[v] for v in {_BLAS_VARS}]))"
    done = _run_python("-c", script, env=_blas_env(**preset))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [preset.get(var, "1") for var in _BLAS_VARS]


def test_loo_payload_does_not_depend_on_unset_blas_threads(tmp_path):
    # large enough for OpenBLAS to thread its products: on a machine with
    # more than one CPU, threaded BLAS moves these posteriors in their last bits
    manifest = make_styled_corpus(
        tmp_path, {"Aldus": 2, "Benno": 2, "Castor": 2}, n_tokens=1200, seed=2
    )
    config = write_config(
        tmp_path, manifest, extra={"segmentation": {"min_tokens": 60}, "learner": {}}
    )
    payloads = []
    for env in (_blas_env(), _blas_env(**dict.fromkeys(_BLAS_VARS, "1"))):
        done = _run_cli("loo", "--config", str(config), env=env)
        assert done.returncode == EXIT_OK, done.stderr
        payload = json.loads((tmp_path / "out" / "loo_report.json").read_text())
        payload.pop("timing")
        payloads.append(payload)
    assert payloads[0] == payloads[1]
