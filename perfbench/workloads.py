"""The four benchmark workloads, as lists of ``flyspin`` CLI invocations.

A workload runs in batches. One batch is a fixed amount of work whose
items are counted for ``items_per_s``: a 41x41 sweep grid (1681 points), a
2500-trial ``pump-sim``, a 10000-trial ``eo-run``, or the 210
``chain-demo`` invocations of every chain configuration. ``pump-sim``
batches hold 2500 trials rather than 10000 so that a run measures about
ten of them: at ~7 s per 10000 trials a run would get three, too few for
a steady median. The sweep and chain inputs are fixed; ``pump-sim`` and
``eo-run`` take a CLI seed derived from the workload seed and the batch
index, so one workload seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

DEFAULT_SEED = 20110215
HOLDOUT_SEED = 90210

NOISE = {"eps_init": 0.01, "eps_z": 0.089, "eps_relax": 0.02}
PUMP = {"eps_z": 0.089, "target_fidelity": 0.9999, "max_rounds": 1000}
EO = {"theta1": "0.25", "theta2": "0.5", "eps_z": 0.089}
PUMP_TRIALS = 2500
# seed of the one-trial minimal runs; its single pump trial converges, so
# the minimal pump-sim exits 0
MINIMAL_SEED = 1


@dataclass(frozen=True)
class Invocation:
    """One CLI call: the command, its flags (typed, for the oracle) and the output path."""

    command: str
    params: dict = field(default_factory=dict)

    @property
    def out(self) -> Optional[str]:
        return self.params.get("out")

    @property
    def argv(self) -> list[str]:
        argv = [self.command]
        for key, value in self.params.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    items_per_batch: int
    batch: Callable[[int, int], list[Invocation]]
    minimal: Invocation


def cli_seed(seed: int, batch: int) -> int:
    """64-bit CLI seed for one batch of a workload seed."""
    digest = hashlib.sha256(f"{seed}:{batch}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _sweep(seed: int, batch: int) -> list[Invocation]:
    grid = {"theta1": "0:1:41", "theta2": "0:1:41"}
    return [Invocation("sweep-concurrence", {**grid, **NOISE, "out": "sweep.csv"})]


def _pump(seed: int, batch: int) -> list[Invocation]:
    params = {**PUMP, "trials": PUMP_TRIALS, "seed": cli_seed(seed, batch), "out": "pump.csv"}
    return [Invocation("pump-sim", params)]


def _eo(seed: int, batch: int) -> list[Invocation]:
    params = {**EO, "trials": 10000, "seed": cli_seed(seed, batch), "out": "eo.csv"}
    return [Invocation("eo-run", params)]


_CHAIN = [
    Invocation(
        "chain-demo",
        {"chain_size": n, "target_pair": pair, "theta1": f"{k / 20:g}", "theta2": "0.5"},
    )
    for n in range(2, 6)
    for pair in range(n - 1)
    for k in range(21)
]


def _chain(seed: int, batch: int) -> list[Invocation]:
    return _CHAIN


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            41 * 41,
            _sweep,
            Invocation(
                "sweep-concurrence",
                {"theta1": "0:1:2", "theta2": "0:1:2", **NOISE, "out": "sweep.csv"},
            ),
        ),
        Workload(
            "pump",
            PUMP_TRIALS,
            _pump,
            Invocation("pump-sim", {**PUMP, "trials": 1, "seed": MINIMAL_SEED, "out": "pump.csv"}),
        ),
        Workload(
            "eo",
            10000,
            _eo,
            Invocation("eo-run", {**EO, "trials": 1, "seed": MINIMAL_SEED, "out": "eo.csv"}),
        ),
        Workload(
            "chain",
            len(_CHAIN),
            _chain,
            Invocation("chain-demo", {"chain_size": 5, "target_pair": 1, "theta1": "0.25", "theta2": "0.5"}),
        ),
    )
}
