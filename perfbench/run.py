"""flyspin benchmark: one workload per run, oracle-checked, with an optional trace.

    python3 perfbench/run.py --workload {sweep,pump,eo,chain} [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
``src`` directory. Load model: closed loop with one client. Every CLI
invocation starts when the previous one returns, inside one fresh worker
interpreter with every BLAS thread count set to 1.

With ``--trace 0`` the run prints the end-to-end metrics of
``BENCHMARK.json``: ``setup_s`` is the median time of fresh interpreters
that import ``flyspin.cli`` and make one minimal invocation;
``items_per_s`` is the median over batches measured for ``--seconds`` in a
warm worker; ``peak_rss_mb`` is that worker's peak resident set. Both
times are scaled to a reference machine speed (see ``calibration.py``). With
``--trace 1`` it prints the per-layer metrics of a traced batch (see
``tracer.py``). Every output is checked against ``oracles.py``; the last
stdout line is the JSON result, the lines before it a report with the
environment and the sha256 digests of the outputs.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# before numpy loads: the calibration kernel in this process runs on one thread too
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
from tracer import LAYERS
from workloads import DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"

SETUP_RUNS = 11
SETUP_CALIBRATION_S = 0.1
SETUP_CODE = "import sys; from flyspin.cli import main; sys.exit(main(sys.argv[1:]))"
# the whole run must end within 180 s
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(worker_env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **worker_env,
        "thread_env": {var: "1" for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_lines": {
            path.name: len(path.read_text().splitlines())
            for path in sorted((SRC / "flyspin").glob("*.py"))
        },
    }


def measure_setup(workload, workdir: Path, env: dict, deadline: float) -> tuple[list[dict], list[str]]:
    """Wall times of fresh interpreters running the minimal invocation.

    Each run is bracketed by calibration kernels, like the batches.
    """
    runs, failures = [], []
    argv = workload.minimal.argv
    before = calibration.kernel_seconds(SETUP_CALIBRATION_S)
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *argv],
            cwd=workdir,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=deadline - time.perf_counter(),
        )
        seconds = time.perf_counter() - start
        after = calibration.kernel_seconds(SETUP_CALIBRATION_S)
        runs.append({"seconds": seconds, "kernel_s": (before + after) / 2.0})
        before = after
        if proc.returncode != 0:
            failures.append(f"setup {' '.join(argv)}: exit {proc.returncode}: {proc.stderr.strip()}")
    return runs, failures


def scaled(timed: dict) -> float:
    """Seconds scaled to the reference machine speed (see calibration.py)."""
    return timed["seconds"] * calibration.REFERENCE_S / timed["kernel_s"]


def run_worker(args, workdir: Path, env: dict, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--src", str(SRC),
    ]
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    missing = [
        f"src/flyspin/{layer}.py" for layer in LAYERS if not (SRC / "flyspin" / f"{layer}.py").is_file()
    ]
    if missing:
        print(f"not a flyspin checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = child_env()
    deadline = started + DEADLINE_S
    try:
        try:
            setup_runs, failures = [], []
            if not args.trace:
                setup_runs, failures = measure_setup(workload, workdir, env, deadline)
            result = run_worker(args, workdir, env, deadline - time.perf_counter())
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark worker failed: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures += result["failures"]
    report = {
        "workload": args.workload,
        "why": {w["name"]: w["why"] for w in spec["workloads"]}[args.workload],
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "load": "closed loop, 1 client, 1 worker process, BLAS threads 1",
        "environment": environment(result["environment"]),
    }
    if args.trace:
        values = result["metrics"]
        report["traced_batch_s"] = result["traced_seconds"]
    else:
        batches = result["batches"]
        values = {
            "items_per_s": statistics.median(b["items"] / scaled(b) for b in batches),
            "setup_s": statistics.median(scaled(r) for r in setup_runs),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        report["raw_items_per_s"] = statistics.median(b["items"] / b["seconds"] for b in batches)
        report["raw_setup_s"] = statistics.median(r["seconds"] for r in setup_runs)
        report["setup"] = setup_runs
        report["batches"] = batches
    report.update(digests=result["digests"], failures=failures, checks=result["checks"])
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")
    out = {
        "correct": not failures and not result["checks"],
        "attempted": result["attempted"] + len(setup_runs),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
