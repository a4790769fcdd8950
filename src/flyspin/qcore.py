"""Dense linear-algebra substrate for few-qubit density-matrix simulation.

Conventions used by the whole package:

* Qubit 0 is the most significant bit of the computational basis index.
* Spin up maps to bit 0, spin down to bit 1. For three qubits the ket
  "udd" therefore sits at basis index 0b011 = 3.
* Registers hold at most ``MAX_QUBITS`` qubits, so every matrix is a
  small dense array (at most 64 x 64).
* Every operator is a local k-qubit matrix plus ``targets`` (axis j acts on
  ``targets[j]``), put on the register by one tensor contraction; a unitary
  is applied as a one-operator channel, and ``measure`` takes targets too.

All values are immutable after construction and every operation is a pure
function returning a new value, so states can be shared freely between
threads.
"""

from __future__ import annotations

import string
from typing import NamedTuple, Optional, Sequence

import numpy as np

MAX_QUBITS = 6

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
NORM_ATOL = 1e-12
COMPLETENESS_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
ZERO_PROBABILITY_ATOL = 1e-12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def _qubit_count(dim: int, what: str) -> int:
    n = int(dim).bit_length() - 1
    if dim != 2**n or n < 1:
        raise ValueError(f"{what} dimension {dim} is not a power of two >= 2")
    if n > MAX_QUBITS:
        raise ValueError(f"{what} needs {n} qubits, register ceiling is {MAX_QUBITS}")
    return n


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class PureState:
    """Normalized state vector on 1..6 qubits."""

    def __init__(self, amplitudes) -> None:
        vec = np.array(amplitudes, dtype=complex).reshape(-1)
        self._n = _qubit_count(vec.size, "state vector")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state vector norm {norm} differs from 1 beyond {NORM_ATOL}")
        self._vec = _frozen(vec)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._vec

    @property
    def n(self) -> int:
        return self._n

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self._vec, self._vec.conj()))

    def __repr__(self) -> str:  # pragma: no cover
        return f"PureState(n={self._n})"


def ket(spins: str) -> PureState:
    """Computational basis ket from a spin string, e.g. ket("udd").

    'u' (up) is bit 0, 'd' (down) is bit 1; the first character is the most
    significant qubit.
    """
    idx = 0
    for c in spins:
        if c not in "ud":
            raise ValueError(f"spin string may only contain 'u' and 'd', got {spins!r}")
        idx = 2 * idx + (1 if c == "d" else 0)
    vec = np.zeros(2 ** len(spins), dtype=complex)
    vec[idx] = 1.0
    return PureState(vec)


class DensityMatrix:
    """Trace-one positive Hermitian operator on an n-qubit register.

    Construction validates Hermiticity and unit trace to 1e-12 and rejects
    eigenvalues below -1e-10; violations raise instead of being clipped.
    """

    def __init__(self, mat) -> None:
        m = np.array(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        self._n = _qubit_count(m.shape[0], "density matrix")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr} differs from 1 beyond {TRACE_ATOL}")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {lo} below {EIGENVALUE_FLOOR}")
        self._mat = _frozen(m)

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def n(self) -> int:
        return self._n

    def purity(self) -> float:
        return float(np.real(np.trace(self._mat @ self._mat)))

    def expectation(self, op) -> float:
        """Expectation value of a Hermitian observable."""
        val = complex(np.trace(np.asarray(op, dtype=complex) @ self._mat))
        return float(val.real)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityMatrix(n={self._n})"


def tensor_dm(*parts: DensityMatrix) -> DensityMatrix:
    """Tensor product of density matrices, first argument most significant."""
    out = np.array([[1.0 + 0.0j]])
    for p in parts:
        out = np.kron(out, p.mat)
    return DensityMatrix(out)


def _check_targets(targets: Sequence[int], k: int, n: int) -> tuple[int, ...]:
    t = tuple(int(q) for q in targets)
    if len(t) != k:
        raise ValueError(f"operator acts on {k} qubits but {len(t)} targets given")
    if len(set(t)) != len(t):
        raise ValueError(f"duplicate targets {t}")
    if any(q < 0 or q >= n for q in t):
        raise ValueError(f"targets {t} out of range for {n} qubits")
    return t


def _on_targets(op: np.ndarray, m: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """``op @ m``, the k-qubit ``op`` acting on the row qubits ``targets`` of 2^n x 2^n ``m``."""
    k, n = len(targets), m.shape[0].bit_length() - 1
    # bring the target row axes of the (2,)*2n tensor to the front, contract, move them back
    perm = targets + tuple(q for q in range(2 * n) if q not in targets)
    front = m.reshape((2,) * (2 * n)).transpose(perm).reshape(2**k, -1)
    back = [perm.index(q) for q in range(2 * n)]
    return (op @ front).reshape((2,) * (2 * n)).transpose(back).reshape(m.shape)


def embed_operator(op, targets: Sequence[int], n: int) -> np.ndarray:
    """Lift a k-qubit matrix to the full n-qubit register.

    Axis j of ``op`` acts on ``targets[j]``; all other qubits get identity.
    No unitarity is required (also used for Kraus operators and projectors).
    """
    m = np.asarray(op, dtype=complex)
    k = _qubit_count(m.shape[0], "operator")
    if m.shape != (2**k, 2**k):
        raise ValueError(f"operator must be square, got shape {m.shape}")
    targets = _check_targets(targets, k, n)
    return _on_targets(m, np.eye(2**n, dtype=complex), targets)


def apply_unitary(state: DensityMatrix, u, targets: Sequence[int]) -> DensityMatrix:
    """Conjugate the state by a unitary acting on the given qubits."""
    return apply_channel(state, KrausChannel([u]), targets)


def partial_trace(state: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every qubit not listed in ``keep``.

    Qubit j of the reduced state corresponds to ``keep[j]``.
    """
    n = state.n
    wanted = tuple(keep)
    kept = _check_targets(wanted, len(wanted), n)
    if not kept:
        raise ValueError("keep set must be nonempty")
    letters = string.ascii_lowercase
    row = [letters[q] for q in range(n)]
    col = [letters[q].upper() if q in kept else letters[q] for q in range(n)]
    sub_out = "".join(row[q] for q in kept) + "".join(col[q] for q in kept)
    tens = state.mat.reshape([2] * (2 * n))
    red = np.einsum("".join(row) + "".join(col) + "->" + sub_out, tens)
    return DensityMatrix(red.reshape(2 ** len(kept), 2 ** len(kept)))


class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    def __init__(self, operators) -> None:
        ops = tuple(np.array(k, dtype=complex) for k in operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim = ops[0].shape[0] if ops[0].ndim == 2 else -1
        for k in ops:
            if k.shape != (dim, dim):
                raise ValueError("all Kraus operators must share one square shape")
        self._k = _qubit_count(dim, "Kraus operator")
        total = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(total - np.eye(dim))) > COMPLETENESS_ATOL:
            raise ValueError("Kraus operators do not satisfy completeness within 1e-12")
        self._ops = tuple(_frozen(k) for k in ops)

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        return self._ops

    @property
    def n(self) -> int:
        return self._k


def apply_channel(state: DensityMatrix, channel: KrausChannel, targets: Sequence[int]) -> DensityMatrix:
    """Apply a Kraus channel to the given qubits of the state."""
    t = _check_targets(targets, channel.n, state.n)
    out = np.zeros_like(state.mat)
    for k in channel.operators:
        # K rho K^dagger = (conj(K) (K rho)^T)^T
        out = out + _on_targets(k.conj(), _on_targets(k, state.mat, t).T, t).T
    return DensityMatrix(out)


class Projector:
    """Hermitian idempotent matrix used for projective measurement."""

    def __init__(self, mat) -> None:
        m = np.array(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"projector must be square, got shape {m.shape}")
        self._n = _qubit_count(m.shape[0], "projector")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
            raise ValueError("projector is not Hermitian within 1e-12")
        if np.max(np.abs(m @ m - m)) > HERMITICITY_ATOL:
            raise ValueError("projector is not idempotent within 1e-12")
        self._mat = _frozen(m)

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def n(self) -> int:
        return self._n


class MeasurementBranch(NamedTuple):
    """One measurement outcome; ``state`` is None for flagged zero-probability branches."""

    probability: float
    state: Optional[DensityMatrix]


def measure(
    state: DensityMatrix, projectors: Sequence[Projector], targets: Sequence[int]
) -> list[MeasurementBranch]:
    """Projective measurement of the qubits ``targets`` over a complete orthogonal set.

    The k-qubit projectors must sum to the 2^k identity. Returns Born
    probabilities and renormalized whole-register post-measurement states
    in the order the projectors were given. Branches whose probability
    falls below 1e-12 are flagged with ``state=None`` instead of being
    divided by a vanishing norm.
    """
    projs = list(projectors)
    if not projs:
        raise ValueError("projector set is empty")
    k = projs[0].n
    for p in projs:
        if p.n != k:
            raise ValueError(f"projectors act on {p.n} and {k} qubits; one set needs one size")
    t = _check_targets(targets, k, state.n)
    total = sum(p.mat for p in projs)
    if np.max(np.abs(total - np.eye(2**k))) > COMPLETENESS_ATOL:
        raise ValueError("projectors do not sum to the identity within 1e-12")
    branches = []
    for p in projs:
        p_rho = _on_targets(p.mat, state.mat, t)
        prob = float(np.real(np.trace(p_rho)))
        if prob <= ZERO_PROBABILITY_ATOL:
            branches.append(MeasurementBranch(max(prob, 0.0), None))
        else:
            post = _on_targets(p.mat.conj(), p_rho.T, t).T / prob
            branches.append(MeasurementBranch(prob, DensityMatrix(post)))
    return branches
