"""Machine-speed calibration for the timed metrics.

On a shared machine the speed of one core can drift by 30% and more over
tens of seconds, so raw rates of two runs of the same code disagree by
more than any useful regression bound. The benchmark therefore times a fixed
kernel, which never touches flyspin, right before and right after each
timed stretch. It scales the stretch to the speed the kernel measures:

    scaled seconds = seconds * REFERENCE_S / kernel seconds

The kernel mixes the kinds of work the workloads do: a pure-Python loop
over floats and frozen dataclasses, argparse parsers like the CLI's,
small complex numpy ops (kron, reshape and transpose, eigvalsh at 8x8),
Philox generator construction with a ``choice`` draw, and 64x64 products
and eigvalsh. A change to flyspin does not change the kernel, so a scaled
time moves only with the program.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

import numpy as np

# kernel seconds on the machine the bounds were set on (2 cores, Intel Xeon)
REFERENCE_S = 0.050


@dataclass(frozen=True)
class _Record:
    index: int
    value: float


def _python(n: int = 6000) -> str:
    records = []
    f = 0.8
    for i in range(n):
        p = f * 0.9 + (1.0 - f) * 0.1
        f = min(f * 0.9 / p, 1.0) if i % 3 else 0.8
        records.append(_Record(i, f))
    return ",".join(f"{r.value:.17g}" for r in records[:500])


_SMALL_A = np.eye(4, dtype=complex)
_SMALL_B = np.ones((2, 2), dtype=complex)


def _small_numpy(n: int = 250) -> None:
    for _ in range(n):
        m = np.kron(_SMALL_B, _SMALL_A)
        np.linalg.eigvalsh(m @ m.conj().T)
        float(np.max(np.abs(m - m.conj().T)))
        np.ascontiguousarray(m.reshape([2] * 6).transpose(1, 0, 2, 4, 3, 5))


_PROBS = np.full(4, 0.25)


def _generators(n: int = 400) -> None:
    for i in range(n):
        rng = np.random.Generator(np.random.Philox(key=np.array([7, i], dtype=np.uint64)))
        rng.choice(4, p=_PROBS)


_LARGE = np.eye(64, dtype=complex) + 0.01


def _large_numpy(n: int = 25) -> None:
    for _ in range(n):
        np.linalg.eigvalsh(_LARGE @ _LARGE @ _LARGE.conj().T)


def _argparse(n: int = 12) -> None:
    for i in range(n):
        parser = argparse.ArgumentParser(prog="kernel")
        sub = parser.add_subparsers(dest="command", required=True)
        for name in ("alpha", "beta"):
            p = sub.add_parser(name)
            for flag in ("--theta1", "--theta2", "--eps", "--seed", "--out"):
                p.add_argument(flag)
        parser.parse_args(["alpha", "--theta1", f"{i / 12:g}", "--seed", str(i)])


def kernel_seconds(at_least: float) -> float:
    """Mean wall time of one kernel pass, repeating passes for ``at_least`` seconds."""
    passes = 0
    start = time.perf_counter()
    while True:
        _python()
        _argparse()
        _small_numpy()
        _generators()
        _large_numpy()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= at_least:
            return elapsed / passes
