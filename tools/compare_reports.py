"""Compare the reports that two checkouts write on the bench's workloads.

Usage, from the root of a checkout:

    python3 tools/compare_reports.py --parent ../before --change . \
        --seeds 0-29 --workloads loo-dro ablate-hardest10 disputed --tier full

For each workload and seed, the corpus and run config are written once,
with ``prepare`` from ``bench/run.py`` (this checkout's ``bench/``, which
is only read). Each tree then runs the workload's commands, and
``ingest`` of its corpus (whose report holds the token, word and sentence
counts), each in a fresh ``python3 -m stylauth.cli`` process with
``PYTHONPATH=<tree>/src``, at the bench's thread count. JSON reports are
compared without their ``timing`` section, and every other file byte for
byte. For each file that differs, the script prints the largest absolute
difference between numbers in the same place. ``--tolerance ABS`` counts
a file whose only differences are numbers at most ABS apart as equal, and
still prints its largest difference. It exits 1 on any other difference
and 0 when every file is equal. Work files go to a temporary directory
(``TMPDIR``), removed at the end.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402  (bench/run.py; pins BLAS to one thread)


def parse_seeds(text: str) -> list[int]:
    """Seeds from "0-29", "1,4,7" or a mix of both."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def differences(a, b) -> tuple[float, bool]:
    """(largest absolute difference between numbers in the same place, and
    whether anything else differs) of two parsed reports or table cells.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        found = [differences(a[key], b[key]) for key in a.keys() & b.keys()]
        return max((d for d, _ in found), default=0.0), a.keys() != b.keys() or any(
            other for _, other in found
        )
    if isinstance(a, list) and isinstance(b, list):
        found = [differences(x, y) for x, y in zip(a, b)]
        return max((d for d, _ in found), default=0.0), len(a) != len(b) or any(
            other for _, other in found
        )
    x, y = _number(a), _number(b)
    if x is not None and y is not None and a != b:
        if math.isnan(x) and math.isnan(y):
            return 0.0, False
        return abs(x - y), False
    return 0.0, a != b


def compare_file(parent: Path, change: Path) -> tuple[float, bool] | None:
    """None when the two files are equal, else ``differences`` of their contents."""
    if parent.suffix == ".json":
        a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (parent, change))
        for report in (a, b):
            report.pop("timing", None)
        found = differences(a, b)
        return None if found == (0.0, False) else found
    if parent.read_bytes() == change.read_bytes():
        return None
    a, b = (list(csv.reader(io.StringIO(p.read_text(encoding="utf-8")))) for p in (parent, change))
    largest, other = differences(a, b)
    return largest, other or largest == 0.0  # equal cells in different bytes differ too


def run_tree(tree: Path, prepared: bench.Prepared, out_dir: Path, threads: int) -> list[str]:
    """Run the workload's commands and ``ingest`` with ``tree``'s stylauth;
    returns failure messages.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    ingest = ["ingest", "--config", str(prepared.config), "--output-dir", str(out_dir)]
    failures = []
    for argv in [*prepared.argv(out_dir, threads), ingest]:
        done = subprocess.run(
            [sys.executable, "-m", "stylauth.cli", *argv],
            env=env, cwd=prepared.work_dir, capture_output=True, text=True,
        )
        if done.returncode != 0:
            failures.append(f"{argv[0]} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return failures


def compare(trees: dict[str, Path], workloads: list[str], seeds: list[int], tier: str,
            work: Path, tolerance: float = 0.0) -> int:
    """Print every difference; returns how many files (or runs) differ by
    more than numbers within ``tolerance``.
    """
    differing = checked = 0
    for name in workloads:
        workload = bench.WORKLOADS[name]
        threads = bench.workload_threads(workload)
        for seed in seeds:
            prepared = bench.prepare(workload, tier, seed, work / f"{name}-{seed}")
            outs = {label: prepared.work_dir / f"out-{label}" for label in trees}
            failed = False
            for label, tree in trees.items():
                for failure in run_tree(tree, prepared, outs[label], threads):
                    print(f"{name} seed {seed}: {label} {failure}")
                    failed = True
            if failed:
                differing += 1
                continue
            files = sorted({p.relative_to(out).as_posix()
                            for out in outs.values() for p in out.rglob("*") if p.is_file()})
            for rel in files:
                checked += 1
                parent, change = (outs[label] / rel for label in trees)
                if not (parent.is_file() and change.is_file()):
                    side = "parent" if parent.is_file() else "change"
                    print(f"{name} seed {seed} {rel}: only in {side}")
                    differing += 1
                    continue
                found = compare_file(parent, change)
                if found is not None:
                    largest, other = found
                    within = not other and largest <= tolerance
                    print(f"{name} seed {seed} {rel}: largest numeric difference {largest:.3g}"
                          + (", and non-numeric differences" if other else "")
                          + (f", within {tolerance:g}" if within else ""))
                    differing += not within
    print(f"{checked - differing} of {checked} files equal"
          + (f" within {tolerance:g}" if tolerance else "")
          + f" ({', '.join(workloads)}; {len(seeds)} seed(s); tier {tier})")
    return differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the checkout before")
    parser.add_argument("--change", required=True, type=Path, help="the checkout after")
    parser.add_argument("--seeds", default="0-29", help='e.g. "0-29" or "1,4" (default 0-29)')
    parser.add_argument("--workloads", nargs="+", choices=sorted(bench.WORKLOADS),
                        default=sorted(bench.WORKLOADS))
    parser.add_argument("--tier", choices=["full", "tiny"], default="full")
    parser.add_argument("--tolerance", type=float, default=0.0, metavar="ABS",
                        help="numbers at most ABS apart count as equal (default 0)")
    args = parser.parse_args(argv)
    if not args.tolerance >= 0.0:
        parser.error(f"--tolerance must be a number at least 0, got {args.tolerance}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for label, tree in trees.items():
        if not (tree / "src" / "stylauth" / "__init__.py").is_file():
            print(f"error: no stylauth source under {tree / 'src'} ({label})", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as work:
        differing = compare(trees, args.workloads, parse_seeds(args.seeds), args.tier, Path(work),
                            args.tolerance)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
