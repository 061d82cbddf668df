"""Record the reference outputs that the benchmark's checks compare against.

Run from the root of a checkout, only when a change is meant to alter
the pinned outputs (and say so in CHANGES.md):

    python3 bench/record_reference.py --seeds 0-29

For every workload and seed it runs the full tier once and stores the
summary that ``checks.summarize`` extracts in ``bench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-29", help="inclusive range, e.g. 0-29")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import stylauth.cli as cli

    table: dict[str, dict[str, dict]] = {}
    for name, workload in run.WORKLOADS.items():
        threads = run.workload_threads(workload)
        for seed in parse_seeds(args.seeds):
            prepared = run.prepare(workload, "full", seed, run.WORK / "reference")
            out = prepared.work_dir / "out"
            _, codes = run.run_commands(cli, prepared.argv(out, threads), out)
            outcome = run.check_outputs(prepared, out, codes, None)
            if outcome.failures:
                print(f"{name} seed {seed}: {outcome.failures}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = outcome.summary
            print(f"{name} seed {seed}: recorded", flush=True)
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
