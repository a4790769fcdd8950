"""Two-spin scattering gates between a flying and a static spin.

Two levels of modelling are provided. ``forward_unitary`` covers the
reflection-free regime, where the interaction reduces to a two-spin
unitary fixed by the singlet and triplet transmission phases theta_S and
theta_T. In that regime the gate acts as

    U|ud> = cos t |ud> + i sin t |du>
    U|du> = i sin t |ud> + cos t |du>
    U|uu> = e^{i t} |uu>,   U|dd> = e^{i t} |dd>

with t = (theta_T - theta_S)/2. The physical gate carries one more factor
e^{i (theta_T + theta_S)/2} on every entry; that global phase cancels in
every state U rho U^dagger, so it is left out. Parallel spins only pick up
a phase; anti-parallel spins mix without spin flips, conserving total
magnetization. A gate is given by its plain angle t, a float or an array;
``_gate_angle`` is the one place that checks it and reduces it mod 2 pi.

``full_scatter`` keeps the reflected branch of the outgoing electron as an
extra two-level direction mode (transmitted/reflected), so that heralding
on a charge detection can postselect the transmitted branch exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, MeasurementBranch, measure, _per_state, _require

_TWO_PI = 2.0 * math.pi

# projectors onto the singlet and triplet sectors of two spins
_SINGLET = np.zeros((4, 4), dtype=complex)
_SINGLET[1, 1] = _SINGLET[2, 2] = 0.5
_SINGLET[1, 2] = _SINGLET[2, 1] = -0.5
_TRIPLET = np.eye(4, dtype=complex) - _SINGLET


@dataclass(frozen=True)
class FullScatterParams:
    """Complex transmission/reflection amplitudes for the heralded model."""

    t_s: complex
    r_s: complex
    t_t: complex
    r_t: complex

    def __post_init__(self) -> None:
        for label, t, r in (("singlet", self.t_s, self.r_s), ("triplet", self.t_t, self.r_t)):
            total = abs(t) ** 2 + abs(r) ** 2
            if not abs(total - 1.0) <= 1e-12:
                raise ValueError(f"{label} amplitudes not normalized: |t|^2+|r|^2 = {total}")


def _gate_angle(theta: float | np.ndarray) -> float | np.ndarray:
    """The finite gate angle ``theta`` mod 2*pi: a Python float for a scalar, else an array."""
    val = np.asarray(theta, dtype=float)
    _require(np.isfinite(val), "theta must be finite, got {}", val)
    return _per_state(val % _TWO_PI)


def forward_unitary(theta: float | np.ndarray) -> np.ndarray:
    """4x4 unitary on (flying, static) at mixing angle ``theta``, reduced mod 2*pi.

    An array angle gives a stack of unitaries, shape ``theta.shape + (4, 4)``.
    """
    t = _gate_angle(theta)
    c = np.cos(t)
    u = np.zeros(np.shape(c) + (4, 4), dtype=complex)
    u[..., 0, 0] = u[..., 3, 3] = np.exp(1j * t)
    u[..., 1, 1] = u[..., 2, 2] = c
    u[..., 1, 2] = u[..., 2, 1] = 1j * np.sin(t)
    return u


def full_scatter(spin_state: DensityMatrix, p: FullScatterParams) -> DensityMatrix:
    """Scatter with reflection, appending a direction mode as a third qubit.

    The singlet component of the two-spin state acquires the amplitude pair
    (t_s, r_s) on the (transmitted, reflected) levels and the triplet
    components acquire (t_t, r_t). Interference between the transmitted and
    reflected sectors is kept until heralding.
    """
    if spin_state.n != 2:
        raise ValueError("full_scatter expects a (flying, static) two-qubit state")
    dir_s = np.array([[p.t_s], [p.r_s]], dtype=complex)
    dir_t = np.array([[p.t_t], [p.r_t]], dtype=complex)
    iso = np.kron(_SINGLET, dir_s) + np.kron(_TRIPLET, dir_t)
    return DensityMatrix(iso @ spin_state.mat @ iso.conj().T)


def herald_transmission(state: DensityMatrix) -> MeasurementBranch:
    """Measure the trailing direction mode and keep the "transmitted" outcome.

    Returns the Born probability of the herald and the conditional spin
    state. A zero-probability herald is flagged by returning ``None`` for
    the state. ``state`` is a single state.
    """
    if state.mat.ndim != 2:
        shape = state.mat.shape[:-2]
        raise ValueError(f"herald_transmission takes a single state, got a stack of {shape}")
    return measure(state, (state.n - 1,))[0]
