"""Shared test utilities and independent oracles.

The oracles here are built directly from first principles (closed-form
amplitudes, explicit four-qubit circuits, the exact pumping chain) and
never call the code paths they are used to check. ``scalar_walk`` alone
reads a table of the package, the pumping lattice: it checks the walk over
that table, not the table.
"""

import math

import numpy as np

from flyspin.metrics import BellLabel
from flyspin.protocol import _pump_lattice, fresh_pair_fidelity
from flyspin.qcore import DensityMatrix, apply_unitary, measure

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

PSI_PLUS_VEC = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)

# the Bell states from their definition, apart from the vectors in flyspin.metrics:
# psi_pm = (|ud> +- |du>)/sqrt(2), phi_pm = (|uu> +- |dd>)/sqrt(2)
_BELL_AMPLITUDES = {
    BellLabel.PSI_PLUS: [0.0, 1.0, 1.0, 0.0],
    BellLabel.PSI_MINUS: [0.0, 1.0, -1.0, 0.0],
    BellLabel.PHI_PLUS: [1.0, 0.0, 0.0, 1.0],
    BellLabel.PHI_MINUS: [1.0, 0.0, 0.0, -1.0],
}


def bell_state(label: BellLabel) -> np.ndarray:
    return np.array(_BELL_AMPLITUDES[label], dtype=complex) / np.sqrt(2.0)


def pure(vec) -> DensityMatrix:
    """The density matrix |vec><vec| of a normalized state vector."""
    vec = np.asarray(vec, dtype=complex)
    return DensityMatrix(np.outer(vec, vec.conj()))


# control is the first qubit of the pair; flips the target when the control is down
CNOT_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def dense_embed(op, targets, n: int) -> np.ndarray:
    """Reference lift of a k-qubit matrix to n qubits, entry by entry.

    full[i, j] = op[sub(i), sub(j)] when i and j agree on every qubit not
    in ``targets`` and 0 otherwise; sub(i) reads the bits of i at
    ``targets`` (targets[0] most significant) and qubit 0 is the most
    significant bit of a basis index.
    """
    op = np.asarray(op, dtype=complex)

    def bit(i, q):
        return (i >> (n - 1 - q)) & 1

    def sub(i):
        return sum(bit(i, q) << (len(targets) - 1 - j) for j, q in enumerate(targets))

    rest_mask = sum(1 << (n - 1 - q) for q in range(n) if q not in targets)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(2**n):
        for j in range(2**n):
            if i & rest_mask == j & rest_mask:
                full[i, j] = op[sub(i), sub(j)]
    return full


def dense_partial_trace(mat, keep) -> np.ndarray:
    """Reference partial trace of a 2^n x 2^n matrix, entry by entry.

    red[a, b] is the sum over r of mat[idx(a, r), idx(b, r)], where idx(a, r)
    gives the qubits ``keep`` the bits of a (keep[0] most significant) and
    every other qubit, in register order, the bits of r; qubit 0 is the most
    significant bit of a basis index.
    """
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[-1].bit_length() - 1
    rest = [q for q in range(n) if q not in keep]

    def idx(a, r):
        bits = {q: (a >> (len(keep) - 1 - j)) & 1 for j, q in enumerate(keep)}
        bits.update({q: (r >> (len(rest) - 1 - j)) & 1 for j, q in enumerate(rest)})
        return sum(bits[q] << (n - 1 - q) for q in range(n))

    red = np.zeros((2 ** len(keep),) * 2, dtype=complex)
    for a in range(2 ** len(keep)):
        for b in range(2 ** len(keep)):
            red[a, b] = sum(mat[idx(a, r), idx(b, r)] for r in range(2 ** len(rest)))
    return red


def _kron_all(ops) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def parity_leaves_dense(rho, ancillas, atol: float = 1e-12):
    """Reference two-round parity tree, branch by branch, from dense 16x16 matrices.

    The register is (a0, a1, r0, r1): node j holds ancilla j and resource
    qubit j. A round puts a fresh copy of the resource ``rho`` on (r0, r1)
    beside the ancillas, applies the CNOTs a0 -> r0 and a1 -> r1, projects
    (r0, r1) onto the basis pair (o1, o2), outcome index 2 o1 + o2, and
    traces the resource out. A branch of probability at most ``atol`` is
    cut: it keeps no state, and a cut round-one branch gets no round two.

    Returns (first, second, truncated): first[i] is (probability, ancilla
    matrix or None) of round-one outcome i; second[i] lists the four
    round-two branches on first[i]'s state, with their probabilities
    conditional on it, and is empty when first[i] is cut; truncated is the
    total probability of the cut leaves.
    """
    eye, x = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    proj = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    def cnot(control, target):
        flip = [eye] * 4
        flip[control], flip[target] = proj[1], x
        keep = [eye] * 4
        keep[control] = proj[0]
        return _kron_all(keep) + _kron_all(flip)

    gates = cnot(1, 3) @ cnot(0, 2)

    def round_(anc):
        joint = gates @ np.kron(anc, rho) @ gates.conj().T
        branches = []
        for o1, o2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
            p = _kron_all([eye, eye, proj[o1], proj[o2]])
            block = p @ joint @ p
            prob = float(np.trace(block).real)
            state = dense_partial_trace(block, (0, 1)) / prob if prob > atol else None
            branches.append((prob, state))
        return branches

    first = round_(np.asarray(ancillas, dtype=complex))
    second = [round_(state) if state is not None else [] for _, state in first]
    truncated = sum(p1 for p1, state in first if state is None) + sum(
        p1 * p2 for (p1, _), branches in zip(first, second) for p2, state in branches if state is None
    )
    return first, second, truncated


def born_weights(branches) -> np.ndarray:
    """Born weights of one round of ``MeasurementBranch``es, a cut branch (no state)
    weighing 0, normalized to sum to 1 as ``Generator.choice`` needs."""
    probs = np.array([b.probability if b.state is not None else 0.0 for b in branches])
    return probs / probs.sum()


def random_unitary(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    d = 2**n_qubits
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(n_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    d = 2**n_qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


def random_pure_density(n_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    d = 2**n_qubits
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def closed_form_resource(theta1, theta2, eps_init=0.0, eps_z=0.0, eps_relax=0.0) -> np.ndarray:
    """Static-pair state after one transit, from the traced transit amplitudes.

    The transit leaves amplitude a = cos(t1)cos(t2) on the flying-up branch
    (statics |dd>) and amplitudes b = i cos(t1)sin(t2) on |du>,
    c = i e^{i t2} sin(t1) on |ud> in the flying-down branch. Tracing the
    flying qubit keeps the b/c coherence and adds |a|^2 to the separable
    weight. Imperfect initialization sends the whole eps branch to |dd>;
    inter-gate dephasing flips the sign of b with probability eps_z
    (equivalently, conjugates by Z on the first static qubit). Inter-gate
    relaxation sends the flying qubit's up branch (amplitude cos(t1)) down
    with probability eps_relax: a and b shrink by sqrt(1 - eps_relax) and
    the decayed weight eps_relax cos^2(t1) lands on |dd>.
    """
    keep = np.sqrt(1.0 - eps_relax)
    a = np.cos(theta1) * np.cos(theta2) * keep
    b = 1j * np.cos(theta1) * np.sin(theta2) * keep
    c = 1j * np.exp(1j * theta2) * np.sin(theta1)
    chi = np.array([0.0, c, b, 0.0], dtype=complex)  # basis uu, ud, du, dd
    chi_err = np.array([0.0, c, -b, 0.0], dtype=complex)
    rho = (1.0 - eps_init) * (
        (1.0 - eps_z) * np.outer(chi, chi.conj()) + eps_z * np.outer(chi_err, chi_err.conj())
    )
    sep = (1.0 - eps_init) * (abs(a) ** 2 + eps_relax * np.cos(theta1) ** 2) + eps_init
    rho[3, 3] += sep
    return rho


def closed_form_concurrence(theta1, theta2, eps_init=0.0, eps_z=0.0, eps_relax=0.0) -> float:
    """Concurrence of ``closed_form_resource``.

    The state has no |uu> weight and only the |ud>-|du> coherence, so the
    Wootters formula reduces to C = 2 |rho[ud, du]|.
    """
    return 2.0 * abs(closed_form_resource(theta1, theta2, eps_init, eps_z, eps_relax)[1, 2])


def pump_round_oracle(stored_fidelity: float, fresh_fidelity: float):
    """Four-qubit realization of one pump round.

    Two Bell-diagonal pairs (stored on qubits 0,1; fresh on 2,3), bilateral
    CNOT from the fresh pair onto the stored pair, X-basis parity
    measurement of the fresh pair, bit-flip correction of the stored pair.
    Returns {"even": (prob, fidelity), "odd": (prob, fidelity)}.
    """
    psi_m = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)

    def bell_mix(f):
        return f * np.outer(PSI_PLUS_VEC, PSI_PLUS_VEC.conj()) + (1.0 - f) * np.outer(
            psi_m, psi_m.conj()
        )

    rho = DensityMatrix(np.kron(bell_mix(stored_fidelity), bell_mix(fresh_fidelity)))
    rho = apply_unitary(rho, CNOT_MAT, (2, 0))
    rho = apply_unitary(rho, CNOT_MAT, (3, 1))
    # X-basis readout: outcomes ++, +-, -+, -- map to the basis outcomes 0..3
    rho = apply_unitary(rho, np.kron(HADAMARD, HADAMARD), (2, 3))
    branches = measure(rho, (2, 3))
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    result = {}
    for parity, idxs in (("even", (0, 3)), ("odd", (1, 2))):
        prob = sum(branches[i].probability for i in idxs)
        pooled = sum(
            branches[i].probability * branches[i].state.mat
            for i in idxs
            if branches[i].state is not None
        ) / prob
        corrected = apply_unitary(DensityMatrix(pooled), flip, (1,))
        fid = float(np.real(PSI_PLUS_VEC.conj() @ corrected.mat @ PSI_PLUS_VEC))
        result[parity] = (prob, fid)
    return result


def pump_exact(eps_z: float, target: float, max_rounds: int) -> dict:
    """Exact law of the pumping walk, as a birth-death chain on integer log-odds.

    Fresh pairs have fidelity f = 1 - 2 eps_z (1 - eps_z). The stored odds
    F/(1-F) stay r^k with r = f/(1-f) and k starting at 1; an even syndrome,
    of probability p_up(k) = (r^(k+1) + 1) / ((1 + r^k)(1 + r)), moves k up
    and an odd one moves it down. The distribution over k is pushed through
    one transfer step per round, with an absorbing barrier at k_target, the
    lowest k whose fidelity reaches ``target``. Needs 0 < eps_z < 1/2 and a
    target above the fresh fidelity.

    Returns ``k_target``, ``hitting`` (entry n is the probability of first
    reaching the target at round n, n = 0..max_rounds), ``mean_rounds`` and
    ``var_rounds`` given convergence, and ``p_not_converged``, the mass
    still below the target after ``max_rounds`` rounds.
    """
    f = 1.0 - 2.0 * eps_z * (1.0 - eps_z)
    r = f / (1.0 - f)
    k_target = math.ceil(math.log(target / (1.0 - target)) / math.log(r))
    hitting = np.zeros(max_rounds + 1)
    # transient sites k = -max_rounds .. k_target - 1; the walk cannot leave the bottom in time
    k = np.arange(-max_rounds, k_target)
    rk = r ** k.astype(float)
    p_up = (r * rk + 1.0) / ((1.0 + rk) * (1.0 + r))
    prob = (k == 1).astype(float)
    for n in range(1, max_rounds + 1):
        up, down = prob * p_up, prob * (1.0 - p_up)
        hitting[n] = up[-1]
        prob = np.concatenate(([0.0], up[:-1])) + np.concatenate((down[1:], [0.0]))
    rounds = np.arange(max_rounds + 1)
    converged = hitting.sum()
    mean = float(rounds @ hitting / converged)
    return {
        "k_target": k_target,
        "hitting": hitting,
        "mean_rounds": mean,
        "var_rounds": float((rounds - mean) ** 2 @ hitting / converged),
        "p_not_converged": float(prob.sum()),
    }


def scalar_walk(eps_z: float, target: float, max_rounds: int, rng: np.random.Generator):
    """Reference walk: one round at a time on the table of ``_pump_lattice``.

    Returns ``(syndromes, converged)``, as ``pump_until`` does. Uniform i of
    a stream is its word i however the stream is read, so the reference
    reads ``rng`` in blocks of its own.
    """
    p_even, stop, _ = _pump_lattice(fresh_pair_fidelity(eps_z), target, max_rounds)
    syndromes, site = bytearray(), max_rounds
    while site < stop and len(syndromes) < max_rounds:
        for u in rng.random(min(100, max_rounds - len(syndromes))).tolist():
            even = u < p_even[site]
            site += 1 if even else -1
            syndromes.append(even)
            if site == stop:
                break
    return bytes(syndromes), site == stop
