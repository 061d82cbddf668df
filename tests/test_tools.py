"""tools/compare_reports.py: a checkout's reports equal its own, and a change shows."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "compare_reports.py"


def _compare(parent: Path, change: Path, tmp_path: Path) -> subprocess.CompletedProcess:
    """The script on the tiny ``loo-dro`` corpus of seed 0, working under ``tmp_path``."""
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(parent), "--change", str(change),
         "--seeds", "0", "--tier", "tiny", "--workloads", "loo-dro"],
        env=dict(os.environ, TMPDIR=str(tmp_path)), cwd=ROOT, capture_output=True, text=True,
    )


def test_a_checkout_equals_itself(tmp_path):
    done = _compare(ROOT, ROOT, tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    # loo_report.json, loo_per_text.csv and loo_hardest.csv
    assert done.stdout.splitlines()[-1].startswith("3 of 3 files equal")
    assert not list(tmp_path.iterdir())  # the work files are gone


def test_a_changed_report_fails_the_comparison(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    init = tree / "src" / "stylauth" / "__init__.py"
    text = init.read_text(encoding="utf-8")
    assert '__version__ = "' in text
    init.write_text(text.replace('__version__ = "', '__version__ = "changed-'), encoding="utf-8")
    done = _compare(ROOT, tree, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    # only the report's meta names the version; the CSVs stay equal
    assert "loo-dro seed 0 loo_report.json: largest numeric difference 0, and non-numeric " \
        "differences" in done.stdout
    assert done.stdout.splitlines()[-1].startswith("2 of 3 files equal")
