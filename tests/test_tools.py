"""tools/compare_reports.py: a checkout's reports equal its own, and a change shows."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

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
