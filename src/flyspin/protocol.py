"""Protocol layer: resource generation, heralded parity projection, pumping, chains.

A transit of the flying qubit past two static qubits (prepared down-down)
leaves the static pair in a mixed resource state

    rho = (1 - (P1+P2)/2) |dd><dd| + ((P1+P2)/2) |chi><chi|

with P1 = 2 cos^2(t1) sin^2(t2), P2 = 2 sin^2(t1) and
|chi> ~ sqrt(P1/(P1+P2)) |du> + e^{i t2} sqrt(P2/(P1+P2)) |ud>.
``resource_rows`` is the one builder of this state: full register
simulation (init, first gate, inter-gate noise, second gate, trace); the
closed-form state lives in the tests as an independent oracle, and only
the weights P1 and P2 are computed from the angles. The first leg of the
transit (gate 1, then the noise) depends on theta1 alone and gate 2 on
theta2 alone, so ``resource_rows`` builds a (theta1, theta2) grid row by
row from one first leg and one gate-2 channel shared by every row.
``generate_resource`` is its one-point row. Every state here is a plain
``DensityMatrix``: the caller keeps the angles, ``transit_weights`` gives
P1 and P2 from them, and ``corrected_rho`` undoes the phase of theta2.

Two such resources enact a heralded parity projection on one ancilla per
node. Per round, each node applies a CNOT from its ancilla onto its
resource qubit and measures the resource qubit in the computational
basis; the two CNOTs act on the joint state as one basis permutation.
For a resource component b|du> + c|ud> the induced ancilla operator for
outcome pair (o1, o2) is

    K(o1,o2) = b P[a = (1^o1, 0^o2)] + c P[a = (0^o1, 1^o2)]

(P[..] projects the ancillas onto a basis state pattern, ^ is XOR), while
the separable |dd> component crushes the ancillas onto a single basis
state whose later outcomes are deterministic. Consequently a second round
whose outcome pair is the bitwise complement of the first is unreachable
whenever either round consumed the separable component, and on the
complement syndrome the two good-round operators compose to
b c * (parity projector): the amplitude asymmetry between b and c cancels
exactly. Complementary even outcomes herald the odd-parity projector
directly; complementary odd outcomes herald the even-parity projector,
which the recorded bit-flip correction on the first ancilla turns into
the odd projection for the standard |++> input. Summing the four heralds
gives success probability P1 P2 / 2 at any angles. ``ParityTree`` owns
that success rule and Born-samples successes from its own branches: a
draw of round-one outcome i succeeds when the second uniform falls in
the interval that round two's cumulative weights give outcome 3 - i.
``parity_tree`` runs each round once: round two on the stack of the kept
round-one ancilla states, with ``measure`` validating all their branch
states at once.

Entanglement pumping consumes a stream of such heralded pairs to purify
one stored pair. Syndrome "even" (probability F f + (1-F)(1-f)) updates
the stored fidelity to F f / p_even, syndrome "odd" to
F(1-f) / (F(1-f) + (1-F)f); both branches keep the pair. Each update
multiplies the odds F/(1-F) by r = f/(1-f) or by 1/r, so the stored odds
are always r^k for an integer k that starts at 1: the stored fidelity
performs a random walk on this lattice, biased upward above F = 1/2.
The lattice is the only pump model: ``pump_until`` walks the integer k
directly, so the stored pair never underflows to an absorbing F = 0
however far below 1/2 it drifts. Far below 1/2 the even probability
of every site is one float (1 - f up to rounding), so below that floor
every round is a draw against one constant: ``pump_until`` takes such
rounds a block of uniforms at a time, as one running sum of +1/-1 steps
whose first return to the floor is one ``argmax``, and steps one round at
a time only above the floor. The checks other than ``max_rounds``' type,
the table, the target and the floor are resolved once per argument set
and cached, so a run of many walks pays for them once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .channels import NoiseParams, dephasing, imperfect_init, relaxation
from .qcore import (
    MAX_QUBITS,
    DensityMatrix,
    KrausChannel,
    MeasurementBranch,
    ZERO_PROBABILITY_ATOL,
    apply_channel,
    apply_unitary,
    ket,
    measure,
    partial_trace,
    stack,
    tensor_dm,
    _frozen,
    _per_state,
    _require,
)
from .scattering import _gate_angle, forward_unitary

Syndrome = tuple[int, int]

# outcome pair (s1, s2) of each round's outcome index, read at (2, 3) by ``measure``
ROUND_OUTCOMES: tuple[Syndrome, ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


def transit_weights(theta1: float | np.ndarray,
                    theta2: float | np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """The closed-form weights (P1, P2) = (2 cos^2(t1) sin^2(t2), 2 sin^2(t1)) of a transit.

    The angles broadcast: P1 takes their broadcast shape and P2 that of
    ``theta1``, each a Python float for scalar angles. Each cosine and sine
    comes from Python's math, once per entry (np.cos(x) ** 2 misses
    math.cos(x) ** 2 in the last bit for some x); the products round alike in
    numpy and in Python, so P1 = (2 cos^2 t1) sin^2 t2 keeps the bits of the
    scalar formula. A sweep row (scalar theta1) takes one sine for its P2.
    """
    p1 = 2.0 * _squares(math.cos, theta1) * _squares(math.sin, theta2)
    return _per_state(p1), _per_state(2.0 * _squares(math.sin, theta1))


def _squares(f: Callable[[float], float], theta: float | np.ndarray) -> np.ndarray:
    """``f(t) ** 2`` at every entry t of ``theta``, with Python's math."""
    t = np.asarray(theta, dtype=float)
    return np.array([f(x) ** 2 for x in t.ravel().tolist()]).reshape(t.shape)


def generate_resource(theta1: float, theta2: float,
                      noise: NoiseParams | None = None) -> DensityMatrix:
    """Simulate one flying-qubit transit and return the static-pair state.

    The angles are scalars; the state is the one-point row of
    ``resource_rows``, a single two-qubit state. Its weights P1 and P2 are
    ``transit_weights(theta1, theta2)``.
    """
    for name, val in (("theta1", theta1), ("theta2", theta2)):
        if np.ndim(val) != 0:
            raise ValueError(f"{name} must be a scalar, got shape {np.shape(val)}")
        if not math.isfinite(val):
            raise ValueError(f"{name} must be finite, got {val}")
    (rho,) = resource_rows([theta1], theta2, noise)
    return rho


def corrected_rho(rho: DensityMatrix, theta2: float) -> DensityMatrix:
    """Resource after the recorded local phase correction on the first qubit.

    Removes the e^{i theta2} phase that the |ud> component of |chi>
    carries relative to |du>, so that at the optimal working point the
    state aligns with (|du> + |ud>)/sqrt(2); theta2 is reduced mod 2 pi.
    """
    return apply_unitary(rho, np.diag([np.exp(-1j * _gate_angle(theta2)), 1.0]), (0,))


def resource_rows(theta1: np.ndarray, theta2: float | np.ndarray,
                  noise: NoiseParams | None = None) -> Iterator[DensityMatrix]:
    """The static-pair resource of every (theta1[i], theta2) transit, one row per theta1 entry.

    The register (flying, s1, s2) starts as init(eps_init) x |dd>; the
    flying qubit meets s1, the inter-gate noise and s2, and is traced out.
    theta1 is a 1-D array and theta2 a scalar or a 1-D array; row i is a
    state with theta2's stack shape. The call checks the angles, runs the
    first leg (gate 1 and the noise) on theta1's stack and builds gate 2's
    channel on theta2's, once for every row. Row i is made when it is read:
    that channel on the row's state, then the trace, so one row is held at
    a time.
    """
    t1, t2 = np.asarray(theta1, dtype=float), np.asarray(theta2, dtype=float)
    if t1.ndim != 1:
        raise ValueError(f"theta1 must be a 1-D array, got shape {t1.shape}")
    if t2.ndim > 1:
        raise ValueError(f"theta2 must be a scalar or a 1-D array, got shape {t2.shape}")
    for name, val in (("theta1", t1), ("theta2", t2)):
        _require(np.isfinite(val), f"{name} must be finite, got {{}}", val)
    noise = noise if noise is not None else NoiseParams()
    rho = tensor_dm(imperfect_init(noise.eps_init), ket("dd"))
    first = _first_leg(rho, 1, t1, noise)
    gate2 = KrausChannel([forward_unitary(t2)])
    return (partial_trace(apply_channel(DensityMatrix(m), gate2, (0, 2)), (1, 2)) for m in first.mat)


def _first_leg(rho: DensityMatrix, static: int, theta1: float | np.ndarray,
               noise: NoiseParams) -> DensityMatrix:
    """Flying qubit 0 meets ``static`` and then the inter-gate noise; other qubits are left alone.

    theta1's gate acts on (0, static), then dephasing and then relaxation act
    on qubit 0. Gate 2 on (0, the second static) completes the transit.
    """
    rho = apply_unitary(rho, forward_unitary(theta1), (0, static))
    if noise.eps_z > 0.0:
        rho = apply_channel(rho, dephasing(noise.eps_z), (0,))
    if noise.eps_relax > 0.0:
        rho = apply_channel(rho, relaxation(noise.eps_relax), (0,))
    return rho


# ---------------------------------------------------------------------------
# two-round parity projection


_Round = tuple[MeasurementBranch, ...]

# the CNOTs a1 -> r1 and a2 -> r2 on the register (a1, a2, r1, r2) flip r_j
# when a_j is down (bit 1), so together they send basis index i to
# i ^ ((i >> 2) & 3); the map is its own inverse
_CNOT_PAIR = _frozen(np.array([i ^ ((i >> 2) & 3) for i in range(16)]))
# the bit flip on ancilla a1 (qubit 0 of the two) sends basis index i to i ^ 2
_FLIP_A1 = _frozen(np.arange(4) ^ 2)


def _parity_round(ancillas: DensityMatrix, resource_rho: DensityMatrix) -> list:
    """Consume one resource per ancilla state; (probability, ancilla state) per outcome pair.

    ``ancillas`` is one state or a stack of them, and the result is
    ``measure``'s: the four branches of a single state, or one list of four
    per stack index. Both CNOTs conjugate the joint states at once: entry
    (j, k) of each result is entry (``_CNOT_PAIR[j]``, ``_CNOT_PAIR[k]``)
    of its joint state.
    """
    joint = tensor_dm(ancillas, resource_rho).mat
    return measure(DensityMatrix(joint[..., _CNOT_PAIR[:, None], _CNOT_PAIR]), (2, 3))


@dataclass(frozen=True)
class ParityTree:
    """Exact two-round branch tree of one parity projection attempt.

    ``first[i]`` is the round-one branch for outcome pair
    ``ROUND_OUTCOMES[i]`` and ``second[i]`` its four round-two branches,
    empty when the round-one branch fell below the zero-probability cut.
    ``truncated_mass`` is the total probability of the leaves cut off at
    ``ZERO_PROBABILITY_ATOL``; with the kept leaves it sums to one.
    ``leaves`` and ``sample_success`` both read the branches.
    """

    first: _Round
    second: tuple[_Round, ...]
    truncated_mass: float

    @staticmethod
    def is_success(first: Syndrome, second: Syndrome) -> bool:
        """Success is heralded when round two reports the complement of round one."""
        return second == (1 - first[0], 1 - first[1])

    def leaves(self) -> Iterator[tuple[Syndrome, Syndrome, float, DensityMatrix]]:
        """Kept leaves as (first outcome, second outcome, probability, ancilla state)."""
        for first, b1, branches in zip(ROUND_OUTCOMES, self.first, self.second):
            for second, b2 in zip(ROUND_OUTCOMES, branches):
                if b2.state is not None:
                    yield first, second, b1.probability * b2.probability, b2.state

    def sample_success(self, u: np.ndarray) -> np.ndarray:
        """Whether the Born draw of each row of uniforms ``u``, shape ``(..., 2)``, is a success.

        Round one draws outcome ``i = searchsorted(cdf1, u[..., 0],
        side="right")`` on the normalized cumulative Born weights of
        ``first``, which is what ``Generator.choice(4, p=p)`` draws from the
        same uniform, so a cut branch is never drawn. The four entries are
        nondecreasing, so ``i`` is the count of entries at most ``u[..., 0]``,
        taken as four less the count of entries above it: a ``u[..., 0]`` of
        1 or more, or a NaN, reads as 4, as in ``searchsorted``, and raises
        ``IndexError``. Round two, drawn the
        same way from ``u[..., 1]`` on ``second[i]``'s weights, succeeds
        exactly when it draws the complement outcome c = 3 - i, that is when
        ``u[..., 1]`` lies in [cdf2_i[c - 1], cdf2_i[c]) with cdf2_i[-1] read
        as 0; a cut branch gives an empty interval. Every kept round two's
        weights are checked, drawn or not.
        """
        u = np.asarray(u, dtype=float)
        if u.shape[-1:] != (2,):
            raise ValueError(f"uniforms must have shape (..., 2), got {u.shape}")
        u1, u2 = u[..., 0], u[..., 1]
        first = 4 - sum(u1 < c for c in _cdf(self.first))
        # interval of outcome 3 - i, the complement of outcome i; a cut round one keeps [0, 0)
        lo, hi = np.zeros(4), np.zeros(4)
        for i, branches in enumerate(self.second):
            if branches:
                cdf = np.concatenate(([0.0], _cdf(branches)))
                lo[i], hi[i] = cdf[3 - i], cdf[4 - i]
        return (lo[first] <= u2) & (u2 < hi[first])


def _cdf(branches: _Round) -> np.ndarray:
    """Normalized cumulative Born weights of a round, a cut branch weighing 0.

    Rejects the weights ``Generator.choice`` rejects, before dividing by them.
    """
    p = np.array([b.probability if b.state is not None else 0.0 for b in branches])
    if not (np.all(np.isfinite(p)) and np.all(p >= 0.0) and p.sum() > 0.0):
        raise ValueError(f"Born weights must be finite, non-negative and not all zero, got {p}")
    cdf = np.cumsum(p / p.sum())
    return cdf / cdf[-1]


def _ancillas(ancillas: DensityMatrix | None) -> DensityMatrix:
    if ancillas is None:
        vec = np.full(4, 0.5, dtype=complex)  # |++>
        return DensityMatrix(np.outer(vec, vec.conj()))
    if ancillas.mat.shape != (4, 4):
        raise ValueError(f"ancilla register must be one state of two qubits, got {ancillas.mat.shape}")
    return ancillas


def parity_tree(rho: DensityMatrix, ancillas: DensityMatrix | None = None) -> ParityTree:
    """Exact two-round branch tree on the given ancillas (default |++>).

    Each round consumes one copy of the resource ``rho``, a single
    two-qubit state; a stack or another register size raises ``ValueError``,
    and so do stacked ancillas. Round one runs on the ancillas and round two
    once, on the stack of the kept round-one ancilla states: one
    ``tensor_dm``, one ``_CNOT_PAIR`` permutation and one ``measure`` for
    all of it.
    """
    if rho.mat.shape != (4, 4):
        raise ValueError(f"resource must be one two-qubit state, got shape {rho.mat.shape}")
    first = tuple(_parity_round(_ancillas(ancillas), rho))
    rounds = iter(_parity_round(stack([b.state for b in first if b.state is not None]), rho))
    second = tuple(tuple(next(rounds)) if b.state is not None else () for b in first)
    truncated = sum(b.probability for b in first if b.state is None) + sum(
        b1.probability * b2.probability
        for b1, branches in zip(first, second) for b2 in branches if b2.state is None
    )
    return ParityTree(first=first, second=second, truncated_mass=truncated)


def parity_success_output(tree: ParityTree) -> tuple[float, Optional[DensityMatrix]]:
    """Success probability and the success-conditioned ancilla state of a ``parity_tree``.

    The state pools every success leaf weighted by its probability. A success
    whose round one reported odd outcome parity heralded the even-parity
    projector; the recorded bit flip on ancilla a1, the basis permutation
    i -> i ^ 2, maps it onto the odd projection before pooling. Returns
    ``None`` for the state when the success probability vanishes
    (degenerate resources).
    """
    branches = []
    for first, second, prob, anc in tree.leaves():
        if ParityTree.is_success(first, second):
            mat = anc.mat
            if (first[0] + first[1]) % 2 == 1:
                # the flip conjugates by a basis permutation; the copy keeps measure's
                # Fortran order, which the pooled state and so the last bits of the
                # Bell fidelities read
                mat = np.asfortranarray(mat[_FLIP_A1[:, None], _FLIP_A1])
            branches.append((prob, mat))
    total = sum(prob for prob, _ in branches)
    if total <= ZERO_PROBABILITY_ATOL:
        return 0.0, None
    pooled = sum(prob * mat for prob, mat in branches) / total
    return total, DensityMatrix(pooled)


# ---------------------------------------------------------------------------
# entanglement pumping


class PumpTrajectory(NamedTuple):
    """Syndrome record of one pumping run, an immutable (syndromes, converged) pair.

    ``syndromes`` holds one byte per pump round: 1 for an even syndrome,
    which moves the stored pair one lattice site up, 0 for an odd one. A
    named tuple, as ``qcore.MeasurementBranch`` is, so that the one record
    a walk returns is cheap to build and to unpack.
    """

    syndromes: bytes
    converged: bool


def fresh_pair_fidelity(eps_z: float) -> float:
    """Fidelity of one heralded pair produced under inter-gate dephasing."""
    return 1.0 - 2.0 * eps_z * (1.0 - eps_z)


def _lattice_fidelity(k: np.ndarray, fresh: float) -> np.ndarray:
    """Stored fidelity r^k / (1 + r^k) at lattice sites k, with r = fresh / (1 - fresh).

    Evaluated as 1 / (1 + exp(-k ln r)), which saturates at 0 and 1 instead
    of overflowing; site k = 1 is the fresh pair itself and gives ``fresh``
    exactly. Needs 0 < fresh < 1.
    """
    with np.errstate(over="ignore"):
        fid = 1.0 / (1.0 + np.exp(-k * math.log(fresh / (1.0 - fresh))))
    return np.where(k == 1, fresh, fid)


def _pump_lattice(
    fresh: float, target: float, max_rounds: int
) -> tuple[tuple[float, ...], int, int]:
    """Even-syndrome probability per lattice site, the target index and the floor.

    Index i holds site k = i + 1 - max_rounds: index ``max_rounds`` is the
    starting site k = 1, and the table covers every site a walk of
    ``max_rounds`` rounds can reach, k in [1 - max_rounds, max_rounds + 1].
    The target index is that of the lowest site whose fidelity reaches
    ``target``, or the table length when none does.

    Far below F = 1/2 the even probability settles on one float, 1 - f up
    to rounding, so the low end of the table is one value repeated. The
    floor is the index of the first entry that differs from entry 0, or the
    table length when none does; every site below it has even probability
    ``p_even[0]`` bit for bit. It is found by comparison, not by bisection:
    the table is not monotone in its last bit.
    """
    fid = _lattice_fidelity(np.arange(1 - max_rounds, max_rounds + 2), fresh)
    p_even = fid * fresh + (1.0 - fid) * (1.0 - fresh)
    differs = np.flatnonzero(p_even != p_even[0])
    floor = int(differs[0]) if differs.size else len(p_even)
    return tuple(p_even.tolist()), int(np.searchsorted(fid, target)), floor


@lru_cache(maxsize=4)
def _walk_constants(
    eps_z: float, target_fidelity: float, max_rounds: int
) -> tuple[tuple[float, ...], int, int]:
    """The checks of ``pump_until`` and what every walk of one argument set shares.

    ``max_rounds`` is an int. Returns ``_pump_lattice``'s table and target
    index and its floor clamped to the target: on a table flat past the
    target the bulk pass stops there. A fresh pair at the target gets no
    table, and a target index at the starting site. A raised error is not
    cached.
    """
    if not (0.0 <= target_fidelity < 1.0):
        raise ValueError(f"target fidelity must lie in [0, 1), got {target_fidelity}")
    if max_rounds < 0:
        raise ValueError("max_rounds cannot be negative")
    fresh = fresh_pair_fidelity(eps_z)
    if not (0.0 <= fresh <= 1.0):
        raise ValueError(f"fresh fidelity must lie in [0, 1], got {fresh}")
    if fresh >= target_fidelity:
        return (), max_rounds, max_rounds
    # fresh >= 1/2 for every eps_z, so the fidelity grows with the site
    p_even, stop, floor = _pump_lattice(fresh, target_fidelity, max_rounds)
    return p_even, stop, min(floor, stop)


# most walks converge within about ten rounds, so the first block of
# uniforms is small and keeps a short walk's draw cheap; later blocks bound
# the memory of long walks
_FIRST_BLOCK = 16
_BLOCK = 1024


def pump_until(
    eps_z: float,
    target_fidelity: float,
    max_rounds: int,
    rng: np.random.Generator,
) -> PumpTrajectory:
    """Pump a stored pair with fresh pairs of fixed fidelity until the target.

    Starts from one fresh pair (round 0), then repeatedly consumes fresh
    pairs of the same fidelity f, sampling each syndrome by its Born
    probability from the given generator. Stops at the
    target or after ``max_rounds`` rounds, whichever comes first.

    The walk runs on the integer log-odds lattice: the stored odds
    F / (1 - F) are always r^k with r = f / (1 - f), k starts at 1, and an
    even (odd) syndrome adds (subtracts) one. The syndrome probabilities
    come from a table over the reachable sites and the walk stops at the
    lowest site whose fidelity reaches the target, so the stored pair never
    underflows. ``max_rounds`` must be an integer (``operator.index``);
    once it is an int, the other checks, the table, the target and the
    floor come from one cached call per argument set
    (``_walk_constants``), so a run of many walks resolves them once.
    Round i is even when the i-th uniform of ``rng`` falls below the
    even-syndrome probability. Below the table's floor (see
    ``_pump_lattice``) that probability is one constant, so there the walk
    takes the rest of the current block of uniforms in one numpy pass: the
    running sum of the +1/-1 steps, and the first round at which it climbs
    back to the floor (one ``argmax``). Above the floor the walk steps one
    round at a time. Either way the syndromes are those of the
    round-at-a-time walk. The uniforms are read in order with
    ``rng.random(size)``; the state of ``rng`` afterwards is unspecified.
    """
    try:
        max_rounds = operator.index(max_rounds)
    except TypeError:
        raise ValueError(f"max_rounds must be an integer, got {max_rounds!r}") from None
    p_even, stop, floor = _walk_constants(eps_z, target_fidelity, max_rounds)
    syndromes = bytearray()
    site, block, append = max_rounds, _FIRST_BLOCK, syndromes.append
    while site < stop and len(syndromes) < max_rounds:
        u = rng.random(min(block, max_rounds - len(syndromes)))
        block, i = _BLOCK, 0
        while i < len(u) and site < stop:
            if site < floor:
                # below the floor every round is even with probability p_even[0]
                even = u[i:] < p_even[0]
                path = np.add.accumulate(np.where(even, 1, -1))
                back = path == floor - site
                n = int(back.argmax())  # 0 when the pass never climbs back
                n = n + 1 if back[n] else len(back)
                syndromes += even[:n].tobytes()
                site, i = site + int(path[n - 1]), i + n
                continue
            for x in u[i : i + _FIRST_BLOCK].tolist():
                i += 1
                if x < p_even[site]:
                    site += 1
                    append(1)
                    if site == stop:
                        break
                else:
                    site -= 1
                    append(0)
                    if site < floor:
                        break
    return PumpTrajectory(bytes(syndromes), site == stop)


# ---------------------------------------------------------------------------
# selective entanglement operation along a chain


@dataclass(frozen=True)
class ChainReport:
    """Chain transit diagnostics used by the command-line surface.

    ``resource`` is the reduced state of the target pair, a single two-qubit
    state; its phase correction is ``corrected_rho(resource, theta2)``.
    """

    resource: DensityMatrix
    spectator_purities: tuple[tuple[int, float], ...]
    magnetization_before: float
    magnetization_after: float


# the diagonal of Z_1 + ... + Z_n per register size n: n - 2 popcount(i) on basis state i
_Z_TOTAL = {
    n: _frozen(np.array([n - 2 * i.bit_count() for i in range(2**n)])) for n in range(1, MAX_QUBITS + 1)
}


def _magnetization(rho: DensityMatrix) -> float:
    """<Z_1 + ... + Z_n> of a single state."""
    return float((rho.mat.diagonal() * _Z_TOTAL[rho.n]).sum().real)


def _check_chain(n_static: int, target_pair: int) -> None:
    """Raise ``ValueError`` unless 2 <= n_static <= 5 and the chain holds the target pair."""
    if not (2 <= n_static <= 5):
        raise ValueError(f"chain size must lie in [2, 5], got {n_static}")
    if not (0 <= target_pair and target_pair + 1 < n_static):
        raise ValueError(
            f"target pair ({target_pair}, {target_pair + 1}) "
            f"out of range for {n_static} static qubits"
        )


def chain_report(n_static: int, target_pair: int, theta1: float, theta2: float) -> ChainReport:
    """Chain transit with spectator purities and magnetization bookkeeping.

    The register is the flying qubit (up) and ``n_static`` static qubits, 2
    to 5, the pair (target_pair, target_pair + 1) down and the rest up. The
    transit is ``generate_resource``'s at theta1 and theta2 without noise.
    """
    _check_chain(n_static, target_pair)
    pair = (target_pair, target_pair + 1)
    rho = ket("u" + "".join("d" if j in pair else "u" for j in range(n_static)))
    mag_before = _magnetization(rho)
    rho = _first_leg(rho, pair[0] + 1, theta1, NoiseParams())
    rho = apply_unitary(rho, forward_unitary(theta2), (0, pair[1] + 1))
    statics = partial_trace(rho, tuple(range(1, n_static + 1)))
    purities = tuple(
        (j, partial_trace(statics, (j,)).purity()) for j in range(n_static) if j not in pair
    )
    return ChainReport(partial_trace(statics, pair), purities, mag_before, _magnetization(rho))
