"""Record the perfbench runs of one checkout in a ``BENCH_<name>.json`` file.

    python3 bench/record.py --out BENCH_27.json [--seconds 25] [--seed N]
                            [--root CHECKOUT]

For each workload of the checkout's ``BENCHMARK.json`` it runs
``perfbench/run.py`` untraced and then traced, from the root of
``CHECKOUT`` (default: the checkout holding this script), and keeps the
parsed report and result of every run: each report line before the last
is ``key: <JSON>`` (a line that does not parse is kept as text), the last
line is the JSON result. It also keeps the command, the run length, the
exit code, the wall time and whether ``src/flyspin`` had a valid bytecode
cache, since without one ``setup_s`` includes the compile. Uses only the
standard library; run ``bench/compare.py OLD NEW`` on two such files.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_output(stdout: str) -> tuple[dict, dict | None]:
    """The report lines as a dict and the result line, or None if it is missing."""
    lines = stdout.strip().splitlines()
    report = {}
    for line in lines[:-1]:
        key, _, value = line.partition(": ")
        try:
            report[key] = json.loads(value)
        except json.JSONDecodeError:
            report[key] = value
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return report, result


def bytecode_cache(src: Path) -> dict:
    """How many modules of ``src/flyspin`` have a cached .pyc that matches the source."""
    sources = sorted((src / "flyspin").glob("*.py"))
    valid = 0
    for path in sources:
        pyc = Path(importlib.util.cache_from_source(str(path)))
        try:
            header = pyc.read_bytes()[:16]
        except OSError:
            continue
        stat = path.stat()
        # timestamp-based pyc: magic, flags 0, source mtime, source size
        valid += (
            header[:4] == importlib.util.MAGIC_NUMBER
            and int.from_bytes(header[4:8], "little") == 0
            and int.from_bytes(header[8:12], "little") == int(stat.st_mtime) & 0xFFFFFFFF
            and int.from_bytes(header[12:16], "little") == stat.st_size & 0xFFFFFFFF
        )
    return {"valid": valid, "modules": len(sources)}


def record(root: Path, workload: str, trace: int, seconds: float, seed: int | None) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        command += ["--seed", str(seed)]
    cache = bytecode_cache(root / "src")
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - start
    report, result = parse_output(proc.stdout)
    return {
        "workload": workload,
        "trace": trace,
        "command": ["python3", *command[1:]],
        "seconds": seconds,
        "exit_code": proc.returncode,
        "wall_s": wall,
        "bytecode_cache": cache,
        "report": report,
        "result": result,
        "stderr": proc.stderr.strip(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--root", type=Path, default=HERE.parent)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            run = record(root, workload, trace, seconds, args.seed)
            runs.append(run)
            result = run["result"] or {}
            verdict = {k: result.get(k) for k in ("correct", "attempted", "failed")}
            print(f"{workload} trace={trace}: exit {run['exit_code']}, {verdict}", flush=True)
    bench = {"seconds": seconds, "seed": args.seed, "runs": runs}
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0 if all(r["exit_code"] == 0 and r["result"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
