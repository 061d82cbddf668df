"""tools/compare_reports.py: a checkout's reports equal its own, and a change shows;
tools/bench_pairs.py: alternating runs and their summary."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "compare_reports.py"


def _compare(parent: Path, change: Path, tmp_path: Path, *options: str) -> subprocess.CompletedProcess:
    """The script on the tiny ``loo-dro`` corpus of seed 0, working under ``tmp_path``."""
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(parent), "--change", str(change),
         "--seeds", "0", "--tier", "tiny", "--workloads", "loo-dro", *options],
        env=dict(os.environ, TMPDIR=str(tmp_path)), cwd=ROOT, capture_output=True, text=True,
    )


def _edited_tree(tmp_path: Path, module: str, old: str, new: str) -> Path:
    """A copy of this checkout's ``src`` with ``old`` replaced by ``new`` in one module."""
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tree / "src" / "stylauth" / module
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    return tree


def test_a_checkout_equals_itself(tmp_path):
    done = _compare(ROOT, ROOT, tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    # loo_report.json, loo_per_text.csv and loo_hardest.csv
    assert done.stdout.splitlines()[-1].startswith("3 of 3 files equal")
    assert not list(tmp_path.iterdir())  # the work files are gone


def test_a_changed_report_fails_the_comparison(tmp_path):
    tree = _edited_tree(tmp_path, "__init__.py", '__version__ = "', '__version__ = "changed-')
    done = _compare(ROOT, tree, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    # only the report's meta names the version; the CSVs stay equal
    assert "loo-dro seed 0 loo_report.json: largest numeric difference 0, and non-numeric " \
        "differences" in done.stdout
    assert done.stdout.splitlines()[-1].startswith("2 of 3 files equal")


def test_numbers_within_the_tolerance_count_as_equal(tmp_path):
    # soft F1 is written only to loo_report.json, which moves by 1e-12
    tree = _edited_tree(
        tmp_path, "evaluation.py", "self.soft_f1 = soft_f1(", "self.soft_f1 = 1e-12 + soft_f1("
    )
    exact = _compare(ROOT, tree, tmp_path)
    assert exact.returncode == 1, exact.stdout + exact.stderr
    assert exact.stdout.splitlines()[-1].startswith("2 of 3 files equal (")
    within = _compare(ROOT, tree, tmp_path, "--tolerance", "1e-9")
    assert within.returncode == 0, within.stdout + within.stderr
    (line,) = [line for line in within.stdout.splitlines() if "loo_report.json" in line]
    assert line.startswith("loo-dro seed 0 loo_report.json: largest numeric difference 1e-12")
    assert line.endswith(", within 1e-09")
    assert within.stdout.splitlines()[-1].startswith("3 of 3 files equal within 1e-09 (")
    assert not [p for p in tmp_path.iterdir() if p.name != "tree"]


# tools/bench_pairs.py: the summary of alternating bench runs, on hand-made
# run records and stand-in bench scripts; no bench run goes in this suite.

PAIRS_SCRIPT = ROOT / "tools" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _record(wall: float, score: float = 0.8, correct: bool = True, failed: int = 0) -> dict:
    """A run's last line as ``bench/run.py`` prints it."""
    return {"correct": correct, "attempted": 3, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "study_score": {"value": score, "unit": "ratio"},
    }}


def test_bench_pairs_summary_counts_wins_and_compares_the_gap_with_the_iqr():
    tool = _bench_pairs()
    parent = [1.0, 1.1, 1.2, 1.3]
    change = [0.7, 1.1, 0.8, 0.9]  # wins pairs 0, 2 and 3; pair 1 ties
    pairs = [(_record(p), _record(c)) for p, c in zip(parent, change)]
    wall, score = tool.summarize(pairs, {"wall_s": "lower", "study_score": "higher"})
    assert (wall.name, wall.unit, wall.better) == ("wall_s", "s", "lower")
    assert wall.wins == 3 and wall.pairs == 4
    assert wall.parent == pytest.approx((1.075, 1.15, 1.225))
    assert wall.change == pytest.approx((0.775, 0.85, 0.95))
    assert wall.gap == pytest.approx(-0.3)
    assert wall.verdict == "better by more than the parent's IQR"
    # equal in every run: no pair won, and no gap
    assert (score.wins, score.gap, score.verdict) == (0, 0.0, "within the parent's IQR")
    (line, _) = tool.describe([wall, score])
    assert line.startswith("wall_s (s, lower is better): parent 1.15 [1.075, 1.225], change 0.85")
    assert "change won 3 of 4" in line


def test_bench_pairs_verdict_follows_the_metric_direction():
    tool = _bench_pairs()
    pairs = [(_record(1.0, score=s), _record(1.0, score=s - 0.2)) for s in (0.8, 0.81, 0.82)]
    (score,) = tool.summarize(pairs, {"study_score": "higher", "wall_s": "lower"})[1:]
    assert score.wins == 0 and score.verdict == "worse by more than the parent's IQR"
    (wall,) = tool.summarize(pairs[:1], {})[:1]  # one pair; unlisted metrics are lower-better
    assert wall.parent == wall.change == (1.0, 1.0, 1.0) and wall.wins == 0


def _stand_in_tree(tmp_path: Path, name: str, wall: float, log: Path, correct: bool = True) -> Path:
    """A tree whose bench/run.py logs its call and prints one fixed record."""
    bench_dir = tmp_path / name / "bench"
    bench_dir.mkdir(parents=True)
    record = json.dumps(_record(wall, correct=correct))
    (bench_dir / "run.py").write_text(
        "import sys\n"
        f"with open({str(log)!r}, 'a') as fh:\n"
        f"    fh.write({name!r} + ' ' + ' '.join(sys.argv[1:]) + '\\n')\n"
        f"print('metrics follow')\nprint({record!r})\n",
        encoding="utf-8",
    )
    return bench_dir.parent


@pytest.mark.parametrize("correct", [True, False])
def test_bench_pairs_alternates_the_trees_and_fails_on_an_incorrect_run(tmp_path, correct):
    log = tmp_path / "calls.log"
    parent = _stand_in_tree(tmp_path, "parent", 1.0, log)
    change = _stand_in_tree(tmp_path, "change", 0.9, log, correct=correct)
    done = subprocess.run(
        [sys.executable, str(PAIRS_SCRIPT), "--parent", str(parent), "--change", str(change),
         "--workload", "loo-dro", "--seed", "7", "--pairs", "3", "--seconds", "2"],
        cwd=ROOT, capture_output=True, text=True,
    )
    calls = log.read_text(encoding="utf-8").splitlines()
    assert [c.split()[0] for c in calls] == ["parent", "change", "change", "parent", "parent",
                                             "change"]
    assert set(c.split(" ", 1)[1] for c in calls) == {
        "--workload loo-dro --seed 7 --seconds 2.0 --trace 0"
    }
    assert done.returncode == (0 if correct else 1), done.stdout + done.stderr
    if correct:
        assert "wall_s (s, lower is better): parent 1 [1, 1], change 0.9 [0.9, 0.9]; " \
            "change won 3 of 3" in done.stdout
    else:
        assert "pair 0 change: not correct" in done.stdout
