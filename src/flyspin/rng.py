"""Deterministic random streams for trial-parallel experiments.

The package uses numpy's Philox bit generator (Philox-4x64-10, a
counter-based generator with a 128-bit key). Each Monte Carlo trial draws
from its own stream keyed statelessly by (master_seed, trial_index), so
results never depend on execution order or thread scheduling and any trial
can be reproduced in isolation.

Reference draws, frozen as regression vectors (see tests):

    trial_rng(42, 0).integers(0, 2**64, 4, dtype=np.uint64)
        -> 15129985323320379406, 3490965594592278910,
           16005516994917231875, 7278743398533373529
    trial_rng(42, 1).integers(0, 2**64, 4, dtype=np.uint64)
        -> 8185685891515899014, 15059776042128308896,
           9389875783783897555, 7150301906005111658
"""

from __future__ import annotations

import numpy as np

_U64 = 2**64


def _check_u64(name: str, value: int) -> int:
    v = int(value)
    if not (0 <= v < _U64):
        raise ValueError(f"{name} must be a 64-bit unsigned value, got {value}")
    return v


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent stream for one trial, keyed by (master_seed, trial_index)."""
    key = np.array(
        [_check_u64("master_seed", master_seed), _check_u64("trial_index", trial_index)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))
