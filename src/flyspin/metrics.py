"""Entanglement and fidelity diagnostics for two-qubit states."""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

from .qcore import DensityMatrix, _per_state

# Y x Y has one entry a row, (Y x Y)[i, 3 - i] = s_i with s = (-1, 1, 1, -1),
# so (Y x Y) m (Y x Y) is s_i s_j m[3 - i, 3 - j]
_SPIN_FLIP_SIGN = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])
_EIG_CLAMP = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class BellLabel(enum.Enum):
    """The four Bell states; psi_pm = (|ud> +- |du>)/sqrt(2)."""

    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"


_BELL_VECTORS = {
    BellLabel.PSI_PLUS: np.array([0.0, _INV_SQRT2, _INV_SQRT2, 0.0], dtype=complex),
    BellLabel.PSI_MINUS: np.array([0.0, _INV_SQRT2, -_INV_SQRT2, 0.0], dtype=complex),
    BellLabel.PHI_PLUS: np.array([_INV_SQRT2, 0.0, 0.0, _INV_SQRT2], dtype=complex),
    BellLabel.PHI_MINUS: np.array([_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2], dtype=complex),
}


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.n != 2:
        raise ValueError(f"expected a two-qubit state, got {rho.n} qubits")


def concurrence(rho: DensityMatrix):
    """Wootters concurrence of a two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) with the l_i the decreasingly sorted
    square roots of the eigenvalues of rho (Y x Y) rho* (Y x Y). The
    eigenvalues are computed through the Hermitian-equivalent form
    sqrt(rho) rho_tilde sqrt(rho), which shares the spectrum of the
    non-Hermitian product but avoids complex spectral noise. A single
    state gives a float, a stack of states an array of the stack's shape
    (one stacked ``eigh`` and one stacked ``eigvalsh``).
    """
    _require_two_qubits(rho)
    m = rho.mat
    rho_tilde = _SPIN_FLIP_SIGN * m.conj()[..., ::-1, ::-1]
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    sqrt_rho = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    lam = np.linalg.eigvalsh(sqrt_rho @ rho_tilde @ sqrt_rho)
    lam = np.where(lam < _EIG_CLAMP, 0.0, lam)
    lam = np.sqrt(lam)[..., ::-1]
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return _per_state(np.minimum(np.maximum(c, 0.0), 1.0))


def bell_fidelity(rho: DensityMatrix, label: BellLabel) -> float:
    """Overlap <bell| rho |bell> of a single two-qubit state."""
    _require_two_qubits(rho)
    if rho.mat.ndim != 2:
        raise ValueError(f"bell_fidelity takes a single state, got a stack of shape {rho.mat.shape[:-2]}")
    v = _BELL_VECTORS[label]
    return float(np.real(v.conj() @ rho.mat @ v))


def success_stats(outcomes: Sequence[bool] | np.ndarray) -> tuple[float, float]:
    """Sample mean and binomial standard error of a list or array of success flags."""
    if len(outcomes) == 0:
        raise ValueError("outcome list is empty")
    n = len(outcomes)
    p = int(np.count_nonzero(outcomes)) / n
    se = math.sqrt(p * (1.0 - p) / n)
    return p, se
