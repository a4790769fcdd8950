"""Run one workload in this fresh interpreter; print a JSON summary as the last line.

Started by ``run.py`` with the working directory set to a scratch directory,
``PYTHONPATH`` pointing at the checkout's ``src`` and every BLAS thread
count fixed to 1. Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --src DIR
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibration
import oracles
import tracer as tracing
from workloads import WORKLOADS, Invocation, Workload

# the untraced loop always measures at least this many batches
MIN_BATCHES = 3
# calibration time after a batch, as a share of the batch's time
CALIBRATION_SHARE = 0.2
FIRST_CALIBRATION_S = 0.2
# the layer self times must cover the traced wall time to within this share
ACCOUNTING_TOLERANCE = 0.02


class Batch:
    """Outputs, timings and verdicts of one batch of invocations."""

    def __init__(self, items: int) -> None:
        self.items = items
        self.seconds = 0.0
        self.kernel_s = 0.0
        self.invocations = 0
        self.failures: list[str] = []
        self.output_bytes = 0
        self.pump_rounds = 0
        self.pump_useful_rounds = 0
        self._hashes = {kind: hashlib.sha256() for kind in ("stdout", "csv", "config")}

    def digests(self) -> dict[str, str]:
        return {kind: h.hexdigest() for kind, h in self._hashes.items()}

    def add(self, kind: str, data: bytes) -> None:
        self._hashes[kind].update(data)
        self.output_bytes += len(data)


def invoke(main, inv: Invocation) -> tuple[object, str, dict, float]:
    """Call the CLI once; returns (exit code or error text, stdout, files, seconds)."""
    out_files = (inv.out, inv.out + ".config") if inv.out else ()
    for path in out_files:
        Path(path).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = main(inv.argv)
        except Exception:  # a crash in the program under test is a failed invocation
            code = traceback.format_exc()
        seconds = time.perf_counter() - start
    if code != 0 and stderr.getvalue():
        code = f"{code}: {stderr.getvalue().strip()}"
    files = {}
    for kind, path in zip(("csv", "config"), out_files):
        if Path(path).exists():
            files[kind] = Path(path).read_bytes()
    return code, stdout.getvalue(), files, seconds


def run_batch(main, workload: Workload, seed: int, index: int) -> Batch:
    batch = Batch(workload.items_per_batch)
    for inv in workload.batch(seed, index):
        code, stdout, files, seconds = invoke(main, inv)
        batch.seconds += seconds
        batch.invocations += 1
        batch.add("stdout", stdout.encode())
        for kind, data in files.items():
            batch.add(kind, data)
        if code != 0:
            errors = [f"exit {code}"]
        else:
            errors = oracles.ORACLES[inv.command](inv.params, stdout, files)
        if errors:
            batch.failures.append(f"{' '.join(inv.argv)}: {'; '.join(errors)}")
        elif inv.command == "pump-sim":
            for _, rounds, _, converged in oracles.pump_rows(files):
                batch.pump_rounds += rounds
                batch.pump_useful_rounds += rounds * converged
    return batch


def warm_up(main, workload: Workload) -> list[str]:
    code, _, _, _ = invoke(main, workload.minimal)
    return [] if code == 0 else [f"warm-up {' '.join(workload.minimal.argv)}: exit {code}"]


def untraced(main, workload: Workload, seed: int, seconds: float) -> dict:
    """Batches for ``seconds``, each bracketed by calibration kernels."""
    batches = []
    before = calibration.kernel_seconds(FIRST_CALIBRATION_S)
    start = time.perf_counter()
    while len(batches) < MIN_BATCHES or time.perf_counter() - start < seconds:
        batch = run_batch(main, workload, seed, len(batches))
        after = calibration.kernel_seconds(CALIBRATION_SHARE * batch.seconds)
        batch.kernel_s = (before + after) / 2.0
        before = after
        batches.append(batch)
    return {
        "batches": [{"items": b.items, "seconds": b.seconds, "kernel_s": b.kernel_s} for b in batches],
        "digests": [b.digests() for b in batches],
        "attempted": sum(b.invocations for b in batches),
        "failures": [f for b in batches for f in b.failures],
        "checks": [],
    }


def per_layer(t: tracing.Tracer, batch: Batch) -> dict[str, float]:
    """The per-layer metrics of one traced batch."""
    m = {f"{layer}.self_s": t.layer_self(layer) for layer in tracing.LAYERS}
    ops = ("density_matrix", "embed_operator", "apply_unitary", "apply_channel",
           "partial_trace", "measure", "tensor_dm")
    for op in ops:
        m[f"qcore.{op}.count"] = t.count(f"qcore.{op}")
        m[f"qcore.{op}.self_s"] = t.self_s(f"qcore.{op}")
    m["qcore.eigvalsh.count"] = t.eigvalsh.get("qcore", 0)
    m["qcore.max_qubits"] = t.max_qubits.get("qcore", 0)
    m["scattering.forward_unitary.count"] = t.count("scattering.forward_unitary")
    m["channels.count"] = t.layer_count("channels")
    for fn in ("generate_resource", "parity_success_output", "chain_report", "pump_until"):
        m[f"protocol.{fn}.count"] = t.count(f"protocol.{fn}")
        m[f"protocol.{fn}.self_s"] = t.self_s(f"protocol.{fn}")
    m["protocol.pump_step.count"] = t.count("protocol.pump_step")
    m["protocol.pump_rounds"] = batch.pump_rounds
    m["protocol.pump_useful_frac"] = batch.pump_useful_rounds / max(batch.pump_rounds, 1)
    m["metrics.concurrence.count"] = t.count("metrics.concurrence")
    m["rng.trial_rng.count"] = t.count("rng.trial_rng")
    m["cli.count"] = t.count("cli.main")
    m["cli.output_bytes"] = batch.output_bytes
    return m


def traced(workload: Workload, seed: int, seconds: float, layers: dict, namespaces) -> dict:
    """Alternate untraced and traced runs of batch 0 for ``seconds``.

    Counts come from the first traced run and must repeat exactly; self
    times and the overhead are medians over the traced runs.
    """
    checks = tracing.self_test(layers, namespaces)
    plain, spans, runs = [], [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        plain.append(run_batch(layers["cli"].main, workload, seed, 0))
        before = tracing.bindings(namespaces)
        t = tracing.Tracer()
        t.install(layers, namespaces)
        try:
            batch = run_batch(layers["cli"].main, workload, seed, 0)
        finally:
            t.uninstall()
        checks += tracing.restore_errors(before, namespaces)
        runs.append(batch)
        spans.append(per_layer(t, batch))
        accounted = sum(t.layer_self(layer) for layer in tracing.LAYERS) / batch.seconds
        if abs(accounted - 1.0) > ACCOUNTING_TOLERANCE:
            checks.append(f"layer self times cover {accounted:.4f} of the traced wall time")
    batches = plain + runs
    if any(b.digests() != plain[0].digests() for b in batches):
        checks.append("traced and untraced outputs differ")
    metrics = {}
    for name, first in spans[0].items():
        if name.endswith("self_s"):
            metrics[name] = statistics.median(s[name] for s in spans)
        else:
            metrics[name] = first
            if any(s[name] != first for s in spans):
                checks.append(f"{name} differs between traced runs of one input")
    wall = statistics.median(b.seconds for b in runs)
    metrics["trace.overhead_frac"] = wall / statistics.median(b.seconds for b in plain) - 1.0
    return {
        "metrics": metrics,
        "traced_seconds": wall,
        "digests": [plain[0].digests()],
        "attempted": sum(b.invocations for b in batches),
        "failures": [f for b in batches for f in b.failures],
        "checks": checks,
    }


def blas_info() -> dict:
    """numpy version, BLAS build and the thread count the loaded OpenBLAS reports."""
    info = {"numpy": np.__version__, "blas": "unknown", "blas_threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as maps:
            lib = next(line.split()[-1] for line in maps if "openblas" in line)
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                getter = getattr(dll, symbol)
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                break
    except (OSError, StopIteration):
        pass
    return info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()

    layers = {layer: importlib.import_module(f"flyspin.{layer}") for layer in tracing.LAYERS}
    package = importlib.import_module("flyspin")
    src = Path(args.src).resolve()
    if src not in Path(package.__file__).resolve().parents:
        print(f"flyspin imported from {package.__file__}, not from {src}", file=sys.stderr)
        return 2
    namespaces = [package, *layers.values()]
    workload = WORKLOADS[args.workload]

    failures = warm_up(layers["cli"].main, workload)
    if args.trace:
        result = traced(workload, args.seed, args.seconds, layers, namespaces)
    else:
        result = untraced(layers["cli"].main, workload, args.seed, args.seconds)
    result["failures"] = failures + result["failures"]
    result["attempted"] += 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = blas_info()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
