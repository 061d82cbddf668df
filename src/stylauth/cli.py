"""Batch command-line front end.

Commands: ingest, loo, ablate, verify, attribute, similar. Every command
reads a JSON run config, executes one study, and writes a self-describing
JSON report (plus CSV tables where a tabular view helps). Exit codes:
0 success, 2 invalid config, 3 corpus error, 4 experiment/runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_run_config
from .corpus import Corpus, load_corpus, segment
from .errors import ConfigError, CorpusError, StylauthError
from .evaluation import loo_run
from .experiments import (
    ABLATION_EXACT,
    ABLATION_HARDEST10,
    ablate,
    attribute_disputed,
    attribution_contingency,
    rank_similar,
    verify_disputed,
)
from .pipeline import CountsCache, full_text_only_count, text_instances

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CORPUS = 3
EXIT_EXPERIMENT = 4

def _report_meta(command: str, run: RunConfig, corpus: Corpus | None) -> dict:
    return {
        "command": command,
        "toolkit_version": __version__,
        "seed": run.seed,
        "config": run.raw,
        "corpus_fingerprint": corpus.fingerprint() if corpus is not None else None,
    }


def _json_array(value: object) -> list:
    """``json.dumps``'s hook for what it cannot write itself: NumPy arrays only."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"a report cannot hold {type(value).__name__} values")


def write_report(path: Path, meta: dict, results: dict, timing: dict | None = None) -> None:
    """Deterministic payload plus a separate, non-deterministic timing section."""
    payload = {"meta": meta, "results": results}
    if timing is not None:
        payload["timing"] = timing
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False, default=_json_array)
        + "\n",
        encoding="utf-8",
    )
    log.info("wrote %s", path)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(run: RunConfig, args: argparse.Namespace) -> int:
    corpus = load_corpus(run.manifest)
    seg_config = run.pipeline.segmentation
    docs = []
    for doc in corpus:
        segs = segment(doc, seg_config.min_tokens)
        docs.append(
            {
                "id": doc.id,
                "author": doc.author,
                "title": doc.title,
                "genre": doc.genre,
                "token_count": doc.token_count,
                "word_token_count": doc.word_token_count,
                "sentence_count": len(doc.sentences),
                "segment_count": len(segs),
                "has_annotations": doc.annotations is not None,
            }
        )
    results = {
        "documents": docs,
        "document_count": len(corpus),
        "labelled_count": len(corpus.labelled()),
        "full_text_only_count": full_text_only_count(
            text_instances(corpus.labelled(), seg_config)
        ),
        "disputed_ids": [d.id for d in corpus.disputed()],
        "authors": corpus.authors(),
    }
    write_report(run.output_dir / "ingest_report.json", _report_meta("ingest", run, corpus), results)
    print(
        f"ingested {len(corpus)} documents "
        f"({len(corpus.labelled())} labelled, {len(corpus.disputed())} disputed)"
    )
    return EXIT_OK


def cmd_loo(run: RunConfig, args: argparse.Namespace) -> int:
    corpus = load_corpus(run.manifest)
    start = time.perf_counter()
    report = loo_run(corpus, run.pipeline, run.seed, threads=run.threads)
    elapsed = time.perf_counter() - start
    results = report.canonical_dict()
    timing = {"total_seconds": elapsed, "fold_seconds": report.fold_seconds}
    write_report(run.output_dir / "loo_report.json", _report_meta("loo", run, corpus), results, timing)
    write_csv(
        run.output_dir / "loo_per_text.csv",
        ["text_id", "author", "true_class", "predicted_class", "positive_posterior", "fitted_C"],
        [
            [r.text_id, r.author, r.true_class, r.predicted_class, f"{r.positive_posterior:.6f}", r.fitted_C]
            for r in report.records
        ],
    )
    write_csv(
        run.output_dir / "loo_hardest.csv",
        ["text_id", "author", "correct", "confidence_in_true_class"],
        [[i, a, c, f"{p:.6f}"] for i, a, c, p in report.hardest_texts()],
    )
    print(
        f"LOO over {len(report.records)} texts: "
        f"F1={report.f1:.3f} softF1={report.soft_f1:.3f} VA={report.vanilla_accuracy:.3f} "
        f"(TP={report.table.tp} FP={report.table.fp} FN={report.table.fn} TN={report.table.tn})"
    )
    return EXIT_OK


def cmd_ablate(run: RunConfig, args: argparse.Namespace) -> int:
    corpus = load_corpus(run.manifest)
    pool = run.pipeline.features.blocks_in_order()
    mode = ABLATION_HARDEST10 if args.mode == "hardest10" else ABLATION_EXACT
    report = ablate(corpus, pool, run.pipeline, mode=mode, seed=run.seed, threads=run.threads)
    write_report(
        run.output_dir / "ablation_report.json",
        _report_meta("ablate", run, corpus),
        asdict(report),
    )
    # each removal step's candidates, then those of the step that stopped the search
    steps = [(it.pool, it.candidate_scores) for it in report.iterations]
    steps.append((report.final_pool, report.stop_candidate_scores or {}))
    rows = []
    for pool, candidate_scores in steps:
        for block, score in candidate_scores.items():
            rows.append([len(rows), "|".join(b.value for b in pool), block.value, *score])
    scores = ["score", "tiebreak"] if mode == ABLATION_HARDEST10 else ["score"]
    write_csv(run.output_dir / "ablation_scores.csv", ["row", "pool", "removed_block", *scores], rows)
    print(
        f"ablation ({mode}): kept {[b.value for b in report.final_pool]} "
        f"after {len(report.iterations)} removal(s)"
    )
    return EXIT_OK


def cmd_verify(run: RunConfig, args: argparse.Namespace) -> int:
    if args.replicas < 1:
        raise ConfigError(f"--replicas must be at least 1, got {args.replicas}")
    corpus = load_corpus(run.manifest)
    if run.disputed_id is None:
        raise StylauthError("config has no disputed_id; nothing to verify")
    verdict = verify_disputed(
        corpus, run.disputed_id, run.pipeline, n_replicas=args.replicas, seed=run.seed
    )
    write_report(
        run.output_dir / "verdict.json", _report_meta("verify", run, corpus), asdict(verdict)
    )
    print(
        f"{verdict.disputed_id}: predicted {verdict.predicted_class!r} "
        f"(median posterior {verdict.median_posterior:.9f} over {verdict.n_replicas} replicas)"
    )
    return EXIT_OK


def cmd_attribute(run: RunConfig, args: argparse.Namespace) -> int:
    corpus = load_corpus(run.manifest)
    if run.disputed_id is None:
        raise StylauthError("config has no disputed_id; nothing to attribute")
    cache = CountsCache(run.pipeline.features)
    result = attribute_disputed(
        corpus,
        run.disputed_id,
        run.pipeline,
        min_texts_per_author=args.min_texts,
        seed=run.seed,
        cache=cache,
    )
    results = asdict(result)
    if args.with_loo:
        min_texts = max(2, args.min_texts)
        loo = attribution_contingency(
            corpus, run.pipeline, min_texts_per_author=min_texts, seed=run.seed, cache=cache
        )
        results["loo"] = asdict(loo)
        write_csv(
            run.output_dir / "attribution_contingency.csv",
            ["true_author", *loo.authors],
            [[author, *row] for author, row in zip(loo.authors, loo.matrix.tolist())],
        )
    write_report(
        run.output_dir / "attribution_report.json",
        _report_meta("attribute", run, corpus),
        results,
    )
    write_csv(
        run.output_dir / "attribution_ranking.csv",
        ["rank", "author", "posterior"],
        [[i + 1, a, f"{p:.6f}"] for i, (a, p) in enumerate(result.ranking)],
    )
    top_author, top_p = result.ranking[0]
    print(
        f"{result.disputed_id}: top candidate {top_author!r} with posterior {top_p:.3f} "
        f"({len(result.candidate_authors)} candidates)"
    )
    return EXIT_OK


def cmd_similar(run: RunConfig, args: argparse.Namespace) -> int:
    corpus = load_corpus(run.manifest)
    if run.disputed_id is None:
        raise StylauthError("config has no disputed_id; nothing to rank against")
    ranking = rank_similar(corpus, run.disputed_id, run.pipeline, top_k=run.similar_top_k)
    write_report(
        run.output_dir / "similarity_report.json",
        _report_meta("similar", run, corpus),
        asdict(ranking),
    )
    write_csv(
        run.output_dir / "similarity_ranking.csv",
        ["rank", "text_id", "author", "title", "cosine"],
        [[i + 1, t, a, title, f"{c:.4f}"] for i, (t, a, title, c) in enumerate(ranking.entries)],
    )
    top = ranking.entries[0]
    print(f"most similar to {ranking.disputed_id}: {top[0]} ({top[1]}) cosine {top[3]:.4f}")
    return EXIT_OK


COMMANDS = {
    "ingest": cmd_ingest,
    "loo": cmd_loo,
    "ablate": cmd_ablate,
    "verify": cmd_verify,
    "attribute": cmd_attribute,
    "similar": cmd_similar,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stylauth",
        description="Stylometric authorship verification and attribution toolkit",
    )
    parser.add_argument("--version", action="version", version=f"stylauth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, threaded: bool = False) -> None:
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if threaded:
            p.add_argument("--threads", type=int, default=None,
                           help="fold worker threads, at least 1; capped at CPUs and folds")
        p.add_argument("--output-dir", type=Path, default=None,
                       help="override the config output dir")
        p.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")

    common(sub.add_parser("ingest", help="validate and summarise the corpus"))
    common(sub.add_parser("loo", help="leave-one-out evaluation of the verifier"), threaded=True)
    p = sub.add_parser("ablate", help="greedy feature-block ablation")
    common(p, threaded=True)
    p.add_argument("--mode", choices=["exact", "hardest10"], default="exact")
    p = sub.add_parser("verify", help="verify the disputed text")
    common(p)
    p.add_argument("--replicas", type=int, default=10, help="oversampling replicas")
    p = sub.add_parser("attribute", help="rank candidate authors for the disputed text")
    common(p)
    p.add_argument("--min-texts", type=int, choices=[1, 2], default=1)
    p.add_argument("--with-loo", action="store_true", help="also run the LOO contingency study")
    p = sub.add_parser("similar", help="rank texts by similarity to the disputed text")
    common(p)
    p.add_argument("--top-k", dest="similar_top_k", metavar="TOP_K", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        # the flags' dests are RunConfig's field names; replace runs its
        # checks on every override
        overrides = {name: getattr(args, name, None)
                     for name in ("seed", "threads", "similar_top_k", "output_dir")}
        run = replace(load_run_config(args.config),
                      **{name: value for name, value in overrides.items() if value is not None})
        try:
            run.output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {run.output_dir}: {exc.strerror or exc}"
            ) from None
        return COMMANDS[args.command](run, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CorpusError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return EXIT_CORPUS
    except StylauthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT


if __name__ == "__main__":
    sys.exit(main())
