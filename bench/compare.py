"""Compare two ``BENCH_<name>.json`` files written by ``bench/record.py``.

    python3 bench/compare.py OLD NEW

Prints, per workload, the NEW/OLD ratio of each end-to-end metric of the
untraced runs and marks a metric that is worse than its bound in this
checkout's ``BENCHMARK.json``. Errors: a run that exited nonzero or has no
result, ``failed`` above 0, ``correct: false`` (with the run's
``checks``), output digests that differ between OLD and NEW in any
batch that both ran, and a workload or traced run in only one file.
Exits 1 if any breach or error was found, else 0. Uses only the standard
library.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def runs_by_key(bench: dict) -> dict[tuple[str, int], dict]:
    return {(run["workload"], run["trace"]): run for run in bench["runs"]}


def run_errors(label: str, run: dict) -> list[str]:
    name = f"{label} {run['workload']} trace={run['trace']}"
    result = run["result"]
    if run["exit_code"] != 0 or result is None:
        return [f"{name}: exit {run['exit_code']}, no result: {run['stderr'][-300:]}"]
    errors = []
    if result["failed"] > 0:
        errors.append(f"{name}: failed {result['failed']} of {result['attempted']}")
    if not result["correct"]:
        errors.append(f"{name}: correct false, checks {run['report'].get('checks')}")
    return errors


def breached(old: float, new: float, better: str, bound: float) -> bool:
    return new < old * (1.0 - bound) if better == "higher" else new > old * (1.0 + bound)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    old, new = (runs_by_key(json.loads(path.read_text())) for path in (args.old, args.new))

    problems = []
    for label, runs in (("OLD", old), ("NEW", new)):
        for run in runs.values():
            problems += run_errors(label, run)
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        workload, trace = key
        name = f"{workload} trace={trace}"
        if a["result"] is None or b["result"] is None:
            continue
        # one digest entry per batch, and batch i runs the same inputs on both sides
        pairs = list(zip(a["report"]["digests"], b["report"]["digests"]))
        differ = [i for i, (x, y) in enumerate(pairs) if x != y]
        if differ or not pairs:
            problems.append(f"{name}: digests differ in batches {differ} of {len(pairs)}")
        if trace:
            continue
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            x, y = a["result"]["metrics"][m]["value"], b["result"]["metrics"][m]["value"]
            ratio = y / x if x else float("inf")
            mark = "BREACH" if breached(x, y, metric["better"], bound) else ""
            if mark:
                problems.append(f"{workload} {m}: {x:.6g} -> {y:.6g}, worse than its bound {bound}")
            print(
                f"{workload:6} {m:12} {x:12.6g} -> {y:12.6g} {metric['unit']:3}  x{ratio:.3f} "
                f"({metric['better']} is better) {mark}"
            )
    for key in sorted(old.keys() ^ new.keys()):
        problems.append(f"{key[0]} trace={key[1]}: in {'OLD' if key in old else 'NEW'} only")
    for problem in problems:
        print(f"ERROR {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
