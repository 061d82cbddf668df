"""Time two checkouts on one bench workload in alternating pairs.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent ../before --change . \
        --workload ablate-hardest10 --seed 1 --pairs 10 --seconds 60

Each pair runs ``python3 bench/run.py --workload W --seed N --seconds S
--trace 0`` once with each tree's own ``bench/run.py``, which is only
run, never changed: the parent first in even pairs (counting from 0) and
the change first in odd ones. Every run's end-to-end metrics are printed
as it ends. Then, for each metric: each side's median and quartiles, the
pairs the change won (in the direction ``BENCHMARK.json`` gives; ties
count for neither), whether the gap between the medians exceeds the
parent's interquartile range, and the gate's reading of the gap against
the metric's relative ``bound`` in ``BENCHMARK.json``: "worse beyond the
bound" where the change's median is worse than the parent's by more than
that share of it, "unresolved" where the parent's interquartile range is
a larger share of its median than the bound (unless every run of the
change beats every run of the parent), and "within the bound" otherwise.
It exits 1 if any run was not correct, had failures or printed no
metrics, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class MetricSummary:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    parent: tuple[float, float, float]  # first quartile, median, third quartile
    change: tuple[float, float, float]
    wins: int  # pairs in which the change was better
    pairs: int
    bound: float | None = None  # the worsening the gate allows, as a share of the parent's median
    separated: bool = False  # every run of the change beat every run of the parent

    @property
    def gap(self) -> float:
        """The change's median minus the parent's."""
        return self.change[1] - self.parent[1]

    @property
    def verdict(self) -> str:
        """Whether the gap between the medians exceeds the parent's interquartile range."""
        if abs(self.gap) <= self.parent[2] - self.parent[0]:
            return "within the parent's IQR"
        improved = self.gap < 0 if self.better == "lower" else self.gap > 0
        return f"{'better' if improved else 'worse'} by more than the parent's IQR"

    @property
    def gate(self) -> str:
        """The gate's reading of the gap against the relative bound."""
        if self.bound is None:
            return "no bound"
        scale = abs(self.parent[1]) * self.bound
        if self.parent[2] - self.parent[0] > scale and not self.separated:
            return "unresolved"
        worse = self.gap > 0 if self.better == "lower" else self.gap < 0
        return "worse beyond the bound" if worse and abs(self.gap) > scale else "within the bound"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    pairs: list[tuple[dict, dict]], better: dict[str, str], bounds: dict[str, float] | None = None
) -> list[MetricSummary]:
    """One summary per metric that every run reports, in the first run's order.

    Each pair is (parent run, change run), each the JSON object that
    ``bench/run.py`` prints last. A metric missing from ``better`` is
    taken as lower-is-better, and one missing from ``bounds`` has no gate.
    """
    names = [name for name in pairs[0][0]["metrics"]
             if all(name in run["metrics"] for pair in pairs for run in pair)]
    out = []
    for name in names:
        direction = better.get(name, "lower")
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs]
        wins = sum(c < p if direction == "lower" else c > p for p, c in values)
        parents, changes = [p for p, _ in values], [c for _, c in values]
        separated = (max(changes) < min(parents) if direction == "lower"
                     else min(changes) > max(parents))
        out.append(MetricSummary(
            name, pairs[0][0]["metrics"][name]["unit"], direction,
            quartiles(parents), quartiles(changes), wins, len(pairs),
            (bounds or {}).get(name), separated,
        ))
    return out


def describe(summaries: list[MetricSummary]) -> list[str]:
    lines = []
    for s in summaries:
        lines.append(
            f"{s.name} ({s.unit}, {s.better} is better): "
            f"parent {s.parent[1]:.6g} [{s.parent[0]:.6g}, {s.parent[2]:.6g}], "
            f"change {s.change[1]:.6g} [{s.change[0]:.6g}, {s.change[2]:.6g}]; "
            f"change won {s.wins} of {s.pairs}; gap {s.gap:+.6g}, {s.verdict}; "
            f"gate: {s.gate}"
        )
    return lines


def ok(run: dict | None) -> bool:
    """Whether a run printed its metrics, was correct and had no failures."""
    return run is not None and bool(run.get("correct")) and run.get("failed") == 0


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The last-line JSON object of one ``bench/run.py`` run in ``tree``, or None."""
    done = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if done.returncode == 0 and lines else None
    except json.JSONDecodeError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the checkout before")
    parser.add_argument("--change", required=True, type=Path, help="the checkout after")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for label, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            print(f"error: no bench/run.py under {tree} ({label})", file=sys.stderr)
            return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}

    pairs, failed = [], False
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        runs = {}
        for label in order:
            runs[label] = run = run_tree(trees[label], args.workload, args.seed, args.seconds)
            if not ok(run):
                failed = True
                print(f"pair {i} {label}: not correct, failed or no metrics: {run}")
                continue
            values = ", ".join(f"{name} {m['value']:.6g}" for name, m in run["metrics"].items())
            print(f"pair {i} {label}: {values}", flush=True)
        if ok(runs["parent"]) and ok(runs["change"]):
            pairs.append((runs["parent"], runs["change"]))
    if pairs:
        print(f"{args.workload}, seed {args.seed}, {len(pairs)} pair(s) of {args.seconds:g}-s runs:")
        for line in describe(summarize(pairs, better, bounds)):
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
