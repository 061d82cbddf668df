"""Output checks: determinism within a run and agreement with a recorded reference.

A run repeats its workload several times on one generated corpus. Every
repetition must write the same deterministic payload (each JSON report
without its ``timing`` section, and every CSV table). Where the reference
file holds an entry for the workload and seed, the outputs must also
match it: on the random-number-free ablation the final pool, the ten
hardest ids and every pool score; on the DRO workloads only the
predicted classes, so that a change to the oversampling random stream
shows in the quality metric instead of as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

SCORE_TOLERANCE = 1e-9


def read_reports(out_dir: Path) -> dict[str, dict]:
    return {
        p.name: json.loads(p.read_text(encoding="utf-8")) for p in sorted(out_dir.glob("*.json"))
    }


def payload_digest(out_dir: Path) -> str:
    """Hash of every report with ``timing`` removed, plus every CSV table."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".json":
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload.pop("timing", None)
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
        else:
            data = path.read_bytes()
        h.update(path.name.encode("utf-8") + b"\0" + data + b"\0")
    return h.hexdigest()


def inspect(workload: str, reports: dict[str, dict], labelled: int) -> tuple[int, list[str], float]:
    """(outer fits attempted, failures, headline score) of one repetition's reports.

    Raises KeyError, IndexError or TypeError when a report is missing or
    malformed.
    """
    failures: list[str] = []
    if workload == "loo-dro":
        results = reports["loo_report.json"]["results"]
        attempted = len(results["records"]) + len(results["skipped"])
        failures += [f"skipped fold {text_id}: {why}" for text_id, why in results["skipped"]]
        if attempted != labelled:
            failures.append(f"loo covered {attempted} of {labelled} texts")
        return attempted, failures, results["soft_f1"]
    if workload == "ablate-hardest10":
        results = reports["ablation_report.json"]["results"]
        hardest = results["hardest_text_ids"]
        pools = 1 + sum(len(it["candidate_scores"]) for it in results["iterations"])
        pools += len(results["stop_candidate_scores"] or {})
        if len(hardest) != min(10, labelled):
            failures.append(f"{len(hardest)} hardest texts for {labelled} labelled")
        # one full LOO picks the hardest texts, then each pool is scored on them
        return labelled + pools * len(hardest), failures, results["final_score"][1]
    if workload == "disputed":
        verdict = reports["verdict.json"]["results"]
        aa_loo = reports["attribution_report.json"]["results"]["loo"]
        similar = reports["similarity_report.json"]["results"]
        if len(verdict["replica_posteriors"]) != 10:
            failures.append("verify did not produce 10 replicas")
        if aa_loo["total_count"] != labelled:
            failures.append(f"attribution LOO covered {aa_loo['total_count']} of {labelled}")
        if not similar["entries"]:
            failures.append("similarity ranking is empty")
        # verify, attribute and similar fit once each, attribution LOO once per text
        return 3 + aa_loo["total_count"], failures, aa_loo["macro_f1"]
    raise ValueError(f"unknown workload {workload!r}")


def summarize(workload: str, reports: dict[str, dict]) -> dict:
    """The parts of a workload's reports that the reference pins down."""
    if workload == "loo-dro":
        results = reports["loo_report.json"]["results"]
        return {"predicted": {r["text_id"]: r["predicted_class"] for r in results["records"]}}
    if workload == "ablate-hardest10":
        results = reports["ablation_report.json"]["results"]
        pools = [[it["pool"], it["pool_score"], it["candidate_scores"]] for it in results["iterations"]]
        return {
            "final_pool": results["final_pool"],
            "hardest_text_ids": results["hardest_text_ids"],
            "final_score": results["final_score"],
            "pools": pools,
            "stop_candidate_scores": results["stop_candidate_scores"],
        }
    if workload == "disputed":
        attribution = reports["attribution_report.json"]["results"]
        return {
            "verify": reports["verdict.json"]["results"]["predicted_class"],
            "attribute": attribution["ranking"][0][0],
            "attribution_loo": {r[0]: r[2] for r in attribution["loo"]["records"]},
            "similar_top": reports["similarity_report.json"]["results"]["entries"][0][0],
        }
    raise ValueError(f"unknown workload {workload!r}")


def _same(actual, expected) -> bool:
    """Structural equality, with floats equal within SCORE_TOLERANCE."""
    if isinstance(expected, float) or isinstance(actual, float):
        return (
            isinstance(actual, (int, float))
            and isinstance(expected, (int, float))
            and math.isclose(actual, expected, rel_tol=0.0, abs_tol=SCORE_TOLERANCE)
        )
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(_same(actual[k], expected[k]) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(_same(a, e) for a, e in zip(actual, expected))
        )
    return actual == expected


def compare_to_reference(summary: dict, expected: dict) -> list[str]:
    """Names of the summary fields that differ from the reference."""
    return sorted(k for k in expected.keys() | summary.keys()
                  if not _same(summary.get(k), expected.get(k)))


def load_reference(path: Path, workload: str, seed: int) -> dict | None:
    if not path.is_file():
        return None
    table = json.loads(path.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))
