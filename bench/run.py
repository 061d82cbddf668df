"""Benchmark for the stylauth toolkit.

Usage, from the root of a checkout:

    python3 bench/run.py --workload loo-dro --seed 1 --seconds 60 --trace 0

The benchmark writes a synthetic corpus made from ``--seed``, runs the
workload's commands through ``stylauth.cli.main`` in this process again
and again for about ``--seconds`` seconds, checks every report they
write, and prints each metric by name and unit. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, measured with no tracing (the timings are
rescaled to a reference machine speed, see ``speed.py``); with ``--trace 1``
they are per-layer numbers from runs that wrap stylauth's functions (see
``layers.py``), alternated with untraced runs to give the overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# Pin BLAS to one thread before anything imports numpy.
_BLAS_ENV = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(_BLAS_ENV)

import checks  # noqa: E402
import speed  # noqa: E402
import synth  # noqa: E402  (imports numpy)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
REFERENCE = BENCH_DIR / "reference.json"

# Untraced repetitions per run, whatever --seconds says: two, so that the
# payloads can be compared, and no more, so that a slow machine still ends
# a run near --seconds.
MIN_ITERATIONS = 2

MAX_THREADS = 2

BASE_BLOCKS = ["token_lengths", "function_words", "sentence_lengths", "char_ngrams"]


@dataclass(frozen=True)
class Tier:
    spec: synth.CorpusSpec
    min_tokens: int


@dataclass(frozen=True)
class Workload:
    """One study as a user runs it: a corpus shape, a run config and commands."""

    name: str
    why: str
    tiers: dict[str, Tier]
    config: dict
    commands: tuple[tuple[str, ...], ...]
    threaded: bool = False  # passes --threads, capped at nproc and MAX_THREADS
    quality: str = ""  # name of the study's headline score in the reports


def _authors(a: int, b: int, c: int) -> tuple[tuple[str, int], ...]:
    return (("Aldus", a), ("Benno", b), ("Castor", c))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="loo-dro",
            why="the paper's core study, serial: DRO sampling and binary C tuning do the work",
            tiers={
                "full": Tier(synth.CorpusSpec(_authors(3, 4, 4), 400), 200),
                "tiny": Tier(synth.CorpusSpec(_authors(3, 3, 3), 120), 60),
            },
            config={
                "features": {"blocks": BASE_BLOCKS},
                "dro": {"enabled": True, "target_positive_ratio": 0.3},
            },
            commands=(("loo",),),
            quality="loo_soft_f1",
        ),
        Workload(
            name="ablate-hardest10",
            why="extraction and vectorizing do the work, DRO and C tuning none; runs the fold pool",
            tiers={
                "full": Tier(synth.CorpusSpec(_authors(4, 4, 4), 100), 50),
                "tiny": Tier(synth.CorpusSpec(_authors(2, 2, 2), 80), 40),
            },
            config={
                "features": {"blocks": BASE_BLOCKS + ["masked_dvma", "masked_dvex"]},
                "dro": {"enabled": False},
                "learner": {"C_grid": [1.0]},
            },
            commands=(("ablate", "--mode", "hardest10"),),
            threaded=True,
            quality="ablate_final_confidence",
        ),
        Workload(
            name="disputed",
            why="multinomial C tuning in attribution LOO, test-time DRO replicas and similarity",
            tiers={
                "full": Tier(synth.CorpusSpec(_authors(3, 3, 3), 400, "Aldus"), 200),
                "tiny": Tier(synth.CorpusSpec(_authors(3, 3, 3), 120, "Aldus"), 60),
            },
            config={
                "features": {"blocks": BASE_BLOCKS},
                "dro": {"enabled": True, "target_positive_ratio": 0.2},
            },
            commands=(
                ("verify", "--replicas", "10"),
                ("attribute", "--min-texts", "2", "--with-loo"),
                ("similar",),
            ),
            quality="aa_macro_f1",
        ),
    )
}


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def workload_threads(workload: Workload) -> int:
    return min(MAX_THREADS, cpu_count()) if workload.threaded else 1


@dataclass
class Prepared:
    workload: Workload
    tier: Tier
    seed: int
    work_dir: Path
    manifest: Path
    config: Path

    def argv(self, out_dir: Path, threads: int) -> list[list[str]]:
        """Command lines for one repetition, writing into ``out_dir``."""
        lines = []
        for command in self.workload.commands:
            argv = [command[0], "--config", str(self.config), "--output-dir", str(out_dir)]
            argv += list(command[1:])
            if self.workload.threaded:
                argv += ["--threads", str(threads)]
            lines.append(argv)
        return lines


def prepare(workload: Workload, tier_name: str, seed: int, work_dir: Path) -> Prepared:
    """Write the corpus and run config for one workload, tier and seed."""
    tier = workload.tiers[tier_name]
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    manifest = synth.write_corpus(work_dir / "corpus", tier.spec, seed)
    config = json.loads(json.dumps(workload.config))
    config.update(
        {
            "manifest": "corpus/manifest.csv",
            "target_author": "Aldus",
            "seed": seed,
            "output_dir": "out",
            "segmentation": {"min_tokens": tier.min_tokens, "include_full_texts": True},
        }
    )
    config["features"]["function_word_list"] = "corpus/function_words.txt"
    if tier.spec.disputed_from is not None:
        config["disputed_id"] = synth.DISPUTED_ID
    path = work_dir / "run.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return Prepared(workload, tier, seed, work_dir, manifest, path)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Checks of one repetition's reports."""

    attempted: int
    failures: list[str] = field(default_factory=list)
    quality: float | None = None
    digest: str = ""
    summary: dict | None = None


def labelled_count(spec: synth.CorpusSpec) -> int:
    return sum(n for _, n in spec.texts_per_author)


def check_outputs(
    prepared: Prepared, out_dir: Path, codes: list[int], expected: dict | None
) -> Outcome:
    """Check one repetition's exit codes and reports, against ``expected`` if given."""
    name = prepared.workload.name
    labelled = labelled_count(prepared.tier.spec)
    failures = [f"{argv[0]} exited {code}" for argv, code in
                zip(prepared.workload.commands, codes) if code != 0]
    try:
        reports = checks.read_reports(out_dir)
        attempted, found, quality = checks.inspect(name, reports, labelled)
        summary = checks.summarize(name, reports)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        failures.append(f"missing or malformed report: {exc!r}")
        return Outcome(labelled, failures)
    failures += found
    if expected is not None:
        failures += [f"differs from the reference in {k}"
                     for k in checks.compare_to_reference(summary, expected)]
    return Outcome(attempted, failures, float(quality), checks.payload_digest(out_dir), summary)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


SETUP_CODE = """
import sys, time
start = time.perf_counter()
import stylauth.cli
from stylauth.corpus import load_corpus
corpus = load_corpus(sys.argv[1])
elapsed = time.perf_counter() - start
assert len(corpus) > 0
print(repr(elapsed))
"""


def setup_seconds(manifest: Path) -> float:
    """Seconds to import stylauth.cli and load the corpus, in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(manifest)],
        env=dict(os.environ, PYTHONPATH=str(SRC), **_BLAS_ENV),
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_commands(cli, argvs: list[list[str]], out_dir: Path) -> tuple[float, list[int]]:
    """Run one repetition through cli.main; return (wall seconds, exit codes)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except Exception:  # a crash is a failed command, reported below
                traceback.print_exc()
                codes.append(-1)
    return time.perf_counter() - start, codes


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class RunResult:
    prepared: Prepared
    threads: int
    setup_s: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    speed_refs: list[float] = field(default_factory=list)  # speed.reference_seconds(), in order
    # the mean of the two references timed right before and right after each
    # wall or set-up time
    wall_refs: list[float] = field(default_factory=list)
    setup_refs: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    layer_metrics: list[dict] = field(default_factory=list)
    module_self: dict[str, float] = field(default_factory=dict)  # last traced repetition
    outcomes: list[Outcome] = field(default_factory=list)
    reference_checked: bool = False
    peak_rss_mb: float = 0.0
    trace_records: list[dict] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    def failures(self) -> list[str]:
        found = [f for o in self.outcomes for f in o.failures]
        digests = {o.digest for o in self.outcomes if o.digest}
        if len(digests) > 1:
            found.append(f"report payloads differ across repetitions ({len(digests)} digests)")
        return found


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tier: str = "full",
    work_dir: Path | None = None,
) -> RunResult:
    import stylauth.cli as cli

    workload = WORKLOADS[workload_name]
    work_dir = work_dir or WORK / f"{workload_name}-{tier}-{seed}"
    prepared = prepare(workload, tier, seed, work_dir)
    threads = workload_threads(workload)
    result = RunResult(prepared, threads)
    argvs = prepared.argv(work_dir / "out", threads)
    expected = checks.load_reference(REFERENCE, workload_name, seed) if tier == "full" else None
    result.reference_checked = expected is not None

    def record(codes: list[int]) -> None:
        result.outcomes.append(check_outputs(prepared, work_dir / "out", codes, expected))

    start = time.perf_counter()
    if not trace:
        setup_seconds(prepared.manifest)  # compiles bytecode, which users pay once
        refs = result.speed_refs
        refs.append(speed.reference_seconds())
        cycle_s: list[float] = []
        while len(result.walls) < MIN_ITERATIONS or (
            time.perf_counter() - start + statistics.median(cycle_s) <= seconds
        ):
            cycle_start = time.perf_counter()
            wall, codes = run_commands(cli, argvs, work_dir / "out")
            refs.append(speed.reference_seconds())
            result.walls.append(wall)
            result.wall_refs.append((refs[-2] + refs[-1]) / 2.0)
            # one set-up per repetition spreads them over the run as the walls are
            result.setup_s.append(setup_seconds(prepared.manifest))
            refs.append(speed.reference_seconds())
            result.setup_refs.append((refs[-2] + refs[-1]) / 2.0)
            record(codes)
            cycle_s.append(time.perf_counter() - cycle_start)
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        pair_s: list[float] = []
        while not pair_s or time.perf_counter() - start + statistics.median(pair_s) <= seconds:
            pair_start = time.perf_counter()
            wall, codes = run_commands(cli, argvs, work_dir / "out")
            result.walls.append(wall)
            record(codes)
            tracer.reset()
            layers.install(tracer)
            try:
                cpu_start = cpu_seconds()
                root = tracer.open("bench.workload")
                _, codes = run_commands(cli, argvs, work_dir / "out")
                tracer.close(root)
                cpu = cpu_seconds() - cpu_start
            finally:
                tracer.uninstall()
            span = tracer.spans[root]
            traced_wall = span.end - span.start
            result.traced_walls.append(traced_wall)
            result.layer_metrics.append(layers.metrics(tracer, traced_wall, cpu, threads))
            result.module_self = layers.module_self_seconds(tracer)
            record(codes)
            pair_s.append(time.perf_counter() - pair_start)
        result.trace_records = tracer.to_records()
        (work_dir / "trace.json").write_text(json.dumps(result.trace_records), encoding="utf-8")
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", "_s_sum")):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def at_reference_speed(times: list[float], refs: list[float]) -> float:
    """Median of the times, each scaled to the reference machine speed."""
    return statistics.median(t * speed.REFERENCE_S / r for t, r in zip(times, refs, strict=True))


def end_to_end(result: RunResult) -> dict[str, tuple[float, str]]:
    qualities = [o.quality for o in result.outcomes if o.quality is not None]
    return {
        "wall_s": (at_reference_speed(result.walls, result.wall_refs), "s"),
        "setup_s": (at_reference_speed(result.setup_s, result.setup_refs), "s"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
        "study_score": (statistics.median(qualities) if qualities else 0.0, "ratio"),
    }


def per_layer(result: RunResult) -> dict[str, tuple[float, str]]:
    names = result.layer_metrics[0].keys()
    out = {
        name: (statistics.median(m[name] for m in result.layer_metrics), unit_of(name))
        for name in names
    }
    out["trace.overhead_ratio"] = (
        statistics.median(result.traced_walls) / statistics.median(result.walls), "ratio"
    )
    return out


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def describe(result: RunResult, trace: bool) -> list[str]:
    import numpy
    import scipy

    p = result.prepared
    spec = p.tier.spec
    shape = "/".join(str(n) for _, n in spec.texts_per_author)
    lines = [
        f"workload {p.workload.name}: {p.workload.why}",
        f"environment: python {platform.python_version()}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, nproc {cpu_count()}, threads {result.threads}, "
        f"BLAS threads 1, seed {p.seed}, commit {git_commit()}",
        f"corpus: {shape} texts of {spec.n_tokens} tokens"
        + (" plus one disputed text" if spec.disputed_from else "")
        + f", min_tokens {p.tier.min_tokens}",
    ]
    walls = result.walls
    failures = result.failures()
    lines.append(
        f"raw wall     {statistics.median(walls):.4f} s   median of {len(walls)} repetitions "
        f"(min {min(walls):.4f}, max {max(walls):.4f})"
    )
    if not trace:
        refs = result.speed_refs
        lines += [
            f"speed work   {statistics.median(refs):.4f} s   median of {len(refs)} "
            f"(min {min(refs):.4f}, max {max(refs):.4f}), "
            f"{speed.REFERENCE_S:.2f} s at the reference speed on one thread",
            f"wall_s       {at_reference_speed(walls, result.wall_refs):.4f} s   "
            "median of the repetitions at the reference speed",
            f"raw setup    {statistics.median(result.setup_s):.4f} s   "
            f"median of {len(result.setup_s)} fresh processes",
            f"setup_s      {at_reference_speed(result.setup_s, result.setup_refs):.4f} s   "
            "median of the set-ups at the reference speed",
            f"peak_rss_mb  {result.peak_rss_mb:.1f} MB",
        ]
    qualities = [o.quality for o in result.outcomes if o.quality is not None]
    lines += [
        f"study_score  {statistics.median(qualities) if qualities else 0.0:.6f} ratio   "
        f"({p.workload.quality})",
        f"error_rate   {len(failures) / max(1, result.attempted):.4f}   "
        f"({len(failures)} failed of {result.attempted} outer fits)",
        f"checks: {len(result.outcomes)} repetitions, "
        f"{len({o.digest for o in result.outcomes})} distinct payload(s); "
        "reference: " + ("checked" if result.reference_checked
                         else "none recorded for this workload, tier and seed"),
    ]
    lines += [f"FAILED: {f}" for f in failures[:20]]
    if trace:
        lines.append(f"traced repetitions: {len(result.traced_walls)}; per-layer metrics:")
        for name, (value, unit) in per_layer(result).items():
            lines.append(f"  {name:34s} {value:14.6f} {unit}")
        lines.append("self seconds by module, all threads (last traced repetition):")
        for module, self_s in sorted(result.module_self.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {module:12s} {self_s:10.4f} s")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stylauth" / "__init__.py").is_file():
        print(f"error: no stylauth source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stylauth

    if not Path(stylauth.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported stylauth from {stylauth.__file__}, not {SRC}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    result = run(args.workload, args.seed, args.seconds, trace)
    for line in describe(result, trace):
        print(line)
    metrics = per_layer(result) if trace else end_to_end(result)
    failed = len(result.failures())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
