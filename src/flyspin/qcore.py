"""Dense linear-algebra substrate for few-qubit density-matrix simulation.

Conventions used by the whole package:

* Qubit 0 is the most significant bit of the computational basis index.
* Spin up maps to bit 0, spin down to bit 1. For three qubits the ket
  "udd" therefore sits at basis index 0b011 = 3.
* Registers hold at most ``MAX_QUBITS`` qubits, so every matrix is a
  small dense array (at most 64 x 64).
* Every state is a ``DensityMatrix``; ``ket`` builds basis states as one.
* Every operator is a local k-qubit matrix plus ``targets`` (axis j acts on
  ``targets[j]``); a unitary is applied as a one-operator channel. Every
  operation puts the register's rows and columns in ``(targets, rest)``
  order once and works on the leading block: Kraus operators multiply its
  rows, ``partial_trace`` traces it out (its targets are the qubits it
  drops), and ``measure`` returns, per computational-basis outcome of the
  targets, the diagonal block as the reduced state of the other qubits.
* Density matrices, Kraus operators and the operations on them take a
  stack of matrices, shape ``(..., d, d)``, in the manner of numpy's
  ``matmul`` and ``eigvalsh``: the leading axes broadcast, and a single
  state is a stack of shape ``()``. Every validation runs on every state
  of a stack and an error names the first failing stack index. From
  ``SUPPORT_MIN_DIM`` (32) on, a stack that is exactly zero outside its
  support (the basis states with a nonzero diagonal entry in some state)
  is checked on that support block; the rows left out are exact zero
  eigenvalues.
  ``measure`` leaves at least one qubit. On a stack it returns nested
  lists, one branch list per stack index, and validates the branch states
  of the whole stack at once; each state it returns is a view of that one
  validated stack.

All values are immutable after construction and every operation is a pure
function returning a new value, so states can be shared freely between
threads.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Optional, Sequence

import numpy as np

MAX_QUBITS = 6

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
COMPLETENESS_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
ZERO_PROBABILITY_ATOL = 1e-12
# Dimension from which DensityMatrix checks a stack on its support block.
# Measured on chain-demo states (2 shared cores, numpy 2.4.6): a 6-qubit
# state with 3 support states validates in 35-40 us instead of 200-218 us;
# at d = 32 the block saves a little (27 us against 34-37 us); at d = 16 the
# detour costs more than it saves (24 us against 20-22 us), and the eo-run
# parity-tree states fill 9-12 of their 16 basis states besides.
SUPPORT_MIN_DIM = 32

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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


# the identity on k qubits, for the completeness check of k-qubit Kraus operators
_IDENTITY = {k: _frozen(np.eye(2**k)) for k in range(1, MAX_QUBITS + 1)}
# the maximally mixed state of k qubits, which a cut measurement branch validates as
_MIXED = {k: _frozen(np.eye(2**k) / 2**k) for k in range(1, MAX_QUBITS + 1)}


def _require(ok, message: str, *values) -> None:
    """Raise ``ValueError`` unless ``ok`` holds at every stack index.

    ``message`` is formatted with each of ``values`` taken at the first
    failing index, and a stacked check names that index.
    """
    # a single state's check is one numpy bool, which needs no reduction
    if ok.all() if isinstance(ok, np.ndarray) else ok:
        return
    ok = np.asarray(ok)
    idx = tuple(int(i) for i in np.argwhere(~ok)[0])
    text = message.format(*(np.asarray(v)[idx] for v in values))
    raise ValueError(text + (f" at stack index {idx}" if idx else ""))


def _support_block(m: np.ndarray) -> np.ndarray:
    """The rows and columns of the stack ``m`` on which its states live, or ``m`` itself.

    The support is every basis state whose diagonal entry is nonzero in some
    state of the stack. It is split off only for ``d >= SUPPORT_MIN_DIM``
    and only when every entry outside it is exactly zero, so that each row
    left out is an exact zero eigenvalue of every state.
    """
    d = m.shape[-1]
    if d < SUPPORT_MIN_DIM:
        return m
    support = m.diagonal(axis1=-2, axis2=-1).reshape(-1, d).any(axis=0).nonzero()[0]
    if not 0 < support.size < d:
        return m
    block = m[..., support[:, None], support]
    return block if np.count_nonzero(block) == np.count_nonzero(m) else m


def _per_state(x: np.ndarray):
    """A per-state value: a Python float for a single state, else an array."""
    return float(x) if x.ndim == 0 else x


def ket(spins: str) -> DensityMatrix:
    """Computational basis state |spins><spins| from a spin string, e.g. ket("udd").

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
    return DensityMatrix(np.outer(vec, vec.conj()))


class DensityMatrix:
    """Trace-one positive Hermitian operator on an n-qubit register.

    ``mat`` is a stack of 2^n x 2^n matrices, shape ``(..., d, d)``; a single
    state has stack shape ``()``. Construction validates every state of the
    stack: Hermiticity and unit trace to 1e-12, and no eigenvalue below
    -1e-10 (one stacked ``eigvalsh``). Violations raise, naming the first
    failing stack index, instead of being clipped. For ``d >=
    SUPPORT_MIN_DIM``, a stack that is exactly zero outside its support runs
    the Hermiticity check and the ``eigvalsh`` on the support block alone,
    and its lowest eigenvalue is min(block lowest, 0).
    """

    def __init__(self, mat) -> None:
        m = np.array(mat, dtype=complex)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        self._n = _qubit_count(m.shape[-1], "density matrix")
        block = _support_block(m)
        herm = abs(block - block.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        _require(herm <= HERMITICITY_ATOL, "density matrix is not Hermitian within 1e-12")
        # the trace sums the whole diagonal: no dearer than the block's, and rounded as before
        tr = m.trace(axis1=-2, axis2=-1)
        _require(abs(tr - 1.0) <= TRACE_ATOL, "density matrix trace {} differs from 1 beyond 1e-12", tr)
        lo = np.linalg.eigvalsh(block)[..., 0]
        if block is not m:
            lo = np.minimum(lo, 0.0)
        _require(lo >= EIGENVALUE_FLOOR, "density matrix has eigenvalue {} below -1e-10", lo)
        self._mat = _frozen(m)

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def n(self) -> int:
        return self._n

    def purity(self):
        """tr(rho^2): a float for a single state, an array over a stack."""
        return _per_state((self._mat @ self._mat).trace(axis1=-2, axis2=-1).real)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityMatrix(n={self._n})"


def _trusted(mat: np.ndarray) -> DensityMatrix:
    """A ``DensityMatrix`` over states that were validated already, not validated again.

    ``mat`` is a view of a validated stack, or a stack of validated states.
    """
    rho = object.__new__(DensityMatrix)
    rho._mat, rho._n = _frozen(mat), mat.shape[-1].bit_length() - 1
    return rho


def stack(states: Sequence[DensityMatrix]) -> DensityMatrix:
    """The single states ``states``, all of one register size, as one stack.

    The stack has shape ``(len(states),)``. Each state was validated when it
    was made, so the stack is not validated again; its states are C-ordered
    copies.
    """
    mats = [rho.mat for rho in states]
    if not mats or any(m.ndim != 2 for m in mats):
        raise ValueError("stack takes one or more single states")
    return _trusted(np.stack(mats))


def tensor_dm(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Tensor product of two density matrices, ``a`` on the more significant qubits.

    The stack axes of ``a`` and ``b`` broadcast; each state of the result is
    ``np.kron`` of the two states at its stack index.
    """
    # np.kron of the last two axes: entry (i k, j l) is a[i, j] * b[k, l]
    prod = a.mat[..., :, None, :, None] * b.mat[..., None, :, None, :]
    d = a.mat.shape[-1] * b.mat.shape[-1]
    return DensityMatrix(prod.reshape(prod.shape[:-4] + (d, d)))


def _check_targets(targets: Sequence[int], n: int) -> tuple[int, ...]:
    given = tuple(targets)
    try:
        t = tuple(map(operator.index, given))
    except TypeError:
        raise ValueError(f"targets {given} are not all integers") from None
    if len(set(t)) != len(t):
        raise ValueError(f"duplicate targets {t}")
    if min(t, default=0) < 0 or max(t, default=0) >= n:
        raise ValueError(f"targets {t} out of range for {n} qubits")
    return t


def _reorder(m: np.ndarray, order: tuple[int, ...]) -> np.ndarray:
    """The ``(..., d, d)`` stack ``m`` with its row and column qubits both put in ``order``.

    Qubit j of the result is qubit ``order[j]`` of ``m``; the stack axes stay
    in front, and the inverse permutation of ``order`` undoes the reorder.
    """
    lead, n = m.ndim - 2, len(order)
    axes = (*range(lead), *(lead + q for q in order), *(lead + n + q for q in order))
    return m.reshape(m.shape[:-2] + (2,) * (2 * n)).transpose(axes).reshape(m.shape)


def apply_unitary(state: DensityMatrix, u, targets: Sequence[int]) -> DensityMatrix:
    """Conjugate the state by a unitary, or a stack of them, acting on the given qubits."""
    return apply_channel(state, KrausChannel([u]), targets)


def partial_trace(state: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every qubit not listed in ``keep``.

    Qubit j of the reduced state corresponds to ``keep[j]``; stack axes are kept.
    """
    n = state.n
    kept = _check_targets(keep, n)
    if not kept:
        raise ValueError("keep set must be nonempty")
    traced = tuple(q for q in range(n) if q not in kept)
    dt, dk = 2 ** len(traced), 2 ** len(kept)
    # rows and columns ordered (traced, keep): the reduced state is the trace over the traced block axes
    blocks = _reorder(state.mat, traced + kept).reshape(state.mat.shape[:-2] + (dt, dk, dt, dk))
    return DensityMatrix(blocks.trace(axis1=-4, axis2=-2))


class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    Each operator may carry leading stack axes, one channel per stack
    index (for example one gate per grid point); the stacks broadcast.
    Completeness is checked once for the whole stack.
    """

    def __init__(self, operators) -> None:
        ops = tuple(np.array(k, dtype=complex) for k in operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim = ops[0].shape[-1] if ops[0].ndim >= 2 else -1
        for k in ops:
            if k.shape[-2:] != (dim, dim):
                raise ValueError("all Kraus operators must share one square shape")
        self._k = _qubit_count(dim, "Kraus operator")
        total = sum(k.conj().swapaxes(-1, -2) @ k for k in ops)
        err = abs(total - _IDENTITY[self._k]).max(axis=(-2, -1))
        _require(err <= COMPLETENESS_ATOL, "Kraus operators do not satisfy completeness within 1e-12")
        self._ops = tuple(_frozen(k) for k in ops)

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        return self._ops

    @property
    def n(self) -> int:
        return self._k


def apply_channel(state: DensityMatrix, channel: KrausChannel, targets: Sequence[int]) -> DensityMatrix:
    """Apply a Kraus channel to the given qubits of the state.

    The stack axes of the state and of the Kraus operators broadcast.
    """
    n, d = state.n, state.mat.shape[-1]
    t = _check_targets(targets, n)
    if len(t) != channel.n:
        raise ValueError(f"operator acts on {channel.n} qubits but {len(t)} targets given")
    # rows and columns ordered (targets, rest): each operator multiplies the leading 2^k rows
    order = t + tuple(q for q in range(n) if q not in t)
    rho = _reorder(state.mat, order)
    # a zero array in rho's memory order, not a scalar 0: the sum takes its
    # memory order from it. Started from 0, a channel on qubit 0 (or on a
    # 1-qubit state) would return a Fortran-ordered state, and the matmuls
    # downstream would round the seeded outputs differently in the last bit
    out = np.zeros_like(rho)
    for k in channel.operators:
        # K rho K^dagger = (conj(K) (K rho)^T)^T, ^T swapping the last two axes
        term = rho
        for op in (k, k.conj()):
            term = op @ term.reshape(term.shape[:-2] + (op.shape[-1], -1))
            term = term.reshape(term.shape[:-2] + (d, d)).swapaxes(-1, -2)
        out = out + term
    return DensityMatrix(_reorder(out, tuple(order.index(q) for q in range(n))))


class MeasurementBranch(NamedTuple):
    """One measurement outcome.

    ``state`` is the renormalized reduced state of the unmeasured qubits,
    or None for a flagged zero-probability branch.
    """

    probability: float
    state: Optional[DensityMatrix]


def measure(state: DensityMatrix, targets: Sequence[int]) -> list:
    """Measure the qubits ``targets`` in the computational basis and discard them.

    Returns one branch per basis outcome b, in order of b with ``targets[0]``
    its most significant bit. Each holds the Born probability and the
    b-block of the state divided by it, the reduced state of the unmeasured
    qubits in register order. Branches whose probability falls below 1e-12
    are flagged with ``state=None`` instead of being divided by a vanishing
    norm. At least one qubit must be left unmeasured.

    A stack of shape ``S`` gives nested lists of shape ``S``, each entry the
    branch list of the state at that stack index, bit for bit the list that
    state alone gives. Every kept branch state of the stack is validated in
    one ``DensityMatrix`` construction, with each cut branch standing in as
    the maximally mixed state, so a failing branch is named by its stack
    index and outcome; each returned state is a view of that one stack.
    """
    t = _check_targets(targets, state.n)
    n, k = state.n, len(t)
    if not 0 < k < n:
        raise ValueError(f"targets {t} must name at least one of the {n} qubits and leave one unmeasured")
    # rows and columns ordered (targets, rest): outcome b is the diagonal block [b, :, b, :]
    order = t + tuple(q for q in range(n) if q not in t)
    d, lead = 2 ** (n - k), state.mat.shape[:-2]
    blocks = _reorder(state.mat, order).reshape(lead + (2**k, d, 2**k, d))
    blocks = np.moveaxis(blocks.diagonal(axis1=-4, axis2=-2), -1, -3)
    # summed left to right and stored in Fortran order: the last bits of
    # the parity-tree states, and so the seeded outputs, depend on both
    prob = blocks.diagonal(axis1=-2, axis2=-1).real.cumsum(axis=-1)[..., -1]
    kept = prob > ZERO_PROBABILITY_ATOL
    states = np.empty(blocks.shape, dtype=complex).swapaxes(-1, -2)
    np.divide(blocks, np.where(kept, prob, 1.0)[..., None, None], out=states)
    states[~kept] = _MIXED[n - k]
    valid = DensityMatrix(states).mat.reshape((-1, d, d))
    branches = [
        MeasurementBranch(p, _trusted(m)) if ok else MeasurementBranch(max(p, 0.0), None)
        for p, ok, m in zip(prob.ravel().tolist(), kept.ravel().tolist(), valid)
    ]
    for size in reversed(lead + (2**k,)):
        branches = [branches[i:i + size] for i in range(0, len(branches), size)]
    return branches[0]
