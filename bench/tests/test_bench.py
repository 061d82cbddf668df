"""Self-tests of the benchmark, on the tiny tier of each workload.

Run from the root of the repository:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import synth  # noqa: E402
import stylauth.cli as cli  # noqa: E402
from stylauth.experiments import HARDEST_POOL_SIZE  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str, tmp_path: Path, trace: bool = False) -> run.RunResult:
    return run.run(name, 3, 0.0, trace, tier="tiny", work_dir=tmp_path / name)


def files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_generator_writes_identical_files_for_a_seed(tmp_path):
    spec = run.WORKLOADS["disputed"].tiers["tiny"].spec
    synth.write_corpus(tmp_path / "a", spec, 5)
    synth.write_corpus(tmp_path / "b", spec, 5)
    synth.write_corpus(tmp_path / "c", spec, 6)
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_tier_passes_its_checks(name, tmp_path):
    result = tiny(name, tmp_path)
    assert result.failures() == []
    assert len(result.walls) == 2 and result.attempted > 0
    refs = result.speed_refs
    assert len(refs) == 1 + 2 * len(result.walls)
    assert result.wall_refs == [(refs[2 * i] + refs[2 * i + 1]) / 2 for i in range(2)]
    assert result.setup_refs == [(refs[2 * i + 1] + refs[2 * i + 2]) / 2 for i in range(2)]
    metrics = run.end_to_end(result)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]][1] == m["unit"]
        assert metrics[m["name"]][0] > 0


@pytest.mark.parametrize("name", ["loo-dro", "ablate-hardest10"])
def test_traced_self_times_add_up_to_traced_wall(name, tmp_path):
    result = tiny(name, tmp_path, trace=True)
    assert result.failures() == []
    metrics = run.per_layer(result)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"]

    spans = result.trace_records
    duration = [s["end"] - s["start"] for s in spans]
    own = list(duration)
    for s, d in zip(spans, duration):
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["thread"] == s["thread"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            own[s["parent"]] -= d
    wall = result.layer_metrics[-1]["trace.wall_s"]
    tolerance = layers.SELF_TIME_TOLERANCE * wall
    assert min(own) >= -tolerance
    per_thread: dict[int, float] = defaultdict(float)
    roots: dict[int, float] = defaultdict(float)
    for s, d, o in zip(spans, duration, own):
        per_thread[s["thread"]] += o
        if s["parent"] is None:
            roots[s["thread"]] += d
    (main,) = [s["thread"] for s in spans if s["name"] == "bench.workload"]
    assert per_thread[main] == pytest.approx(wall, abs=tolerance)
    for thread, total in per_thread.items():
        assert total == pytest.approx(roots[thread], abs=tolerance)
    assert metrics["trace.leaf_share"][0] > 0.5


def test_times_are_scaled_by_the_reference_work_around_them():
    slow = 2 * speed.REFERENCE_S
    assert run.at_reference_speed([4.0, 6.0, 5.0], [slow, slow, speed.REFERENCE_S]) == 3.0


def test_full_ablation_tier_restricts_to_a_strict_subset():
    spec = run.WORKLOADS["ablate-hardest10"].tiers["full"].spec
    assert run.labelled_count(spec) > HARDEST_POOL_SIZE


def test_ablation_reports_are_byte_identical_at_one_and_two_threads(tmp_path):
    prepared = run.prepare(run.WORKLOADS["ablate-hardest10"], "tiny", 4, tmp_path / "w")
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"out{threads}"
        _, codes = run.run_commands(cli, prepared.argv(out, threads), out)
        assert codes == [0]
        outputs.append(files(out))
    assert outputs[0] == outputs[1]


def run_once(name: str, tmp_path: Path) -> tuple[run.Prepared, Path]:
    prepared = run.prepare(run.WORKLOADS[name], "tiny", 2, tmp_path / "w")
    out = tmp_path / "out"
    _, codes = run.run_commands(cli, prepared.argv(out, 1), out)
    assert codes == [0] * len(prepared.workload.commands)
    return prepared, out


def rewrite(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload["results"])
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_checks_fail_on_a_corrupted_loo_report(tmp_path):
    prepared, out = run_once("loo-dro", tmp_path)
    good = run.check_outputs(prepared, out, [0], None)
    assert good.failures == []
    assert run.check_outputs(prepared, out, [0], good.summary).failures == []
    assert run.check_outputs(prepared, out, [4], good.summary).failures == ["loo exited 4"]

    def flip(results):
        record = results["records"][0]
        record["predicted_class"] = "someone else"

    rewrite(out / "loo_report.json", flip)
    bad = run.check_outputs(prepared, out, [0], good.summary)
    assert bad.failures == ["differs from the reference in predicted"]
    assert bad.digest != good.digest

    rewrite(out / "loo_report.json", lambda results: results["skipped"].append(["x", "why"]))
    assert any("skipped fold x" in f for f in run.check_outputs(prepared, out, [0], None).failures)

    (out / "loo_report.json").unlink()
    assert "missing or malformed report" in run.check_outputs(prepared, out, [0], None).failures[0]


def test_checks_compare_ablation_scores_within_tolerance(tmp_path):
    prepared, out = run_once("ablate-hardest10", tmp_path)
    good = run.check_outputs(prepared, out, [0], None)
    assert good.failures == []

    def nudge(amount):
        def edit(results):
            results["final_score"][1] += amount
        return edit

    rewrite(out / "ablation_report.json", nudge(checks.SCORE_TOLERANCE / 10))
    assert run.check_outputs(prepared, out, [0], good.summary).failures == []
    rewrite(out / "ablation_report.json", nudge(checks.SCORE_TOLERANCE * 10))
    assert run.check_outputs(prepared, out, [0], good.summary).failures == [
        "differs from the reference in final_score"
    ]


def test_checks_fail_on_a_corrupted_disputed_report(tmp_path):
    prepared, out = run_once("disputed", tmp_path)
    good = run.check_outputs(prepared, out, [0, 0, 0], None)
    assert good.failures == []
    rewrite(out / "verdict.json", lambda results: results["replica_posteriors"].pop())
    assert run.check_outputs(prepared, out, [0, 0, 0], good.summary).failures == [
        "verify did not produce 10 replicas"
    ]


def test_reference_covers_every_workload():
    table = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    assert sorted(table) == sorted(run.WORKLOADS)
    assert all(table[name] for name in table)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "loo-dro", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
