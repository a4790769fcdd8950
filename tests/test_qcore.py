import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flyspin.qcore import (
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    KrausChannel,
    apply_channel,
    apply_unitary,
    ket,
    measure,
    partial_trace,
    tensor_dm,
)
from flyspin.scattering import forward_unitary

from helpers import HADAMARD, dense_embed, dense_partial_trace, pure, random_density, random_unitary

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def test_embed_identity_is_identity():
    rho = random_density(3, np.random.default_rng(1))
    assert_allclose(apply_unitary(rho, np.eye(2), (0,)).mat, rho.mat, atol=1e-15)


def test_embed_z_on_qubit1_of_two():
    # qubit 0 is the most significant bit, so Z on qubit 1 alternates fastest
    z1 = np.diag([1.0, -1.0, 1.0, -1.0])
    assert_allclose(dense_embed(PAULI_Z, (1,), 2), z1, atol=1e-15)
    rho = random_density(2, np.random.default_rng(10))
    assert_allclose(apply_unitary(rho, PAULI_Z, (1,)).mat, z1 @ rho.mat @ z1, atol=1e-15)


def test_embed_swap_permutes_basis_ket():
    state = ket("udd")
    swapped = apply_unitary(state, SWAP, (0, 1))
    assert_allclose(swapped.mat, ket("dud").mat, atol=1e-15)


def test_embed_rejects_nonunitary():
    # a unitary is a one-operator Kraus channel, so its check is completeness
    with pytest.raises(ValueError, match="completeness"):
        apply_unitary(ket("uu"), np.array([[1, 0], [0, 2]]), (0,))
    with pytest.raises(ValueError, match="square"):
        apply_unitary(ket("u"), 1.0, (0,))


def test_embed_rejects_bad_targets():
    with pytest.raises(ValueError, match="duplicate"):
        apply_channel(ket("udd"), KrausChannel([SWAP]), (1, 1))
    with pytest.raises(ValueError, match="range"):
        apply_channel(ket("ud"), KrausChannel([PAULI_X]), (-1,))
    with pytest.raises(ValueError, match="duplicate"):
        apply_unitary(ket("udd"), SWAP, (1, 1))
    with pytest.raises(ValueError, match="range"):
        apply_unitary(ket("ud"), PAULI_X, (3,))
    with pytest.raises(ValueError, match="acts on 2 qubits but 1 targets given"):
        apply_unitary(ket("udd"), SWAP, (0,))
    # a fractional target is an error, not truncated to a qubit index
    with pytest.raises(ValueError, match=r"targets \(0\.9,\) are not all integers"):
        apply_unitary(ket("ud"), PAULI_X, (0.9,))
    with pytest.raises(ValueError, match="not all integers"):
        apply_channel(ket("ud"), KrausChannel([PAULI_X]), (np.float64(1.0),))
    with pytest.raises(ValueError, match=r"targets \(1\.5,\) are not all integers"):
        partial_trace(ket("ud"), (1.5,))
    with pytest.raises(ValueError, match="duplicate"):
        partial_trace(ket("udd"), (1, 1))
    with pytest.raises(ValueError, match="range"):
        partial_trace(ket("udd"), (0, 3))
    with pytest.raises(ValueError, match="range"):
        partial_trace(ket("udd"), (-1,))
    # numpy integers are integers
    assert partial_trace(ket("ud"), (np.int64(1),)).n == 1


def test_embed_times_inverse_is_identity():
    rng = np.random.default_rng(11)
    for k in (1, 2, 3):
        for _ in range(25):
            u = random_unitary(k, rng)
            targets = tuple(rng.permutation(4)[:k])
            rho = random_density(4, rng)
            once = apply_unitary(rho, u, targets)
            full = dense_embed(u, targets, 4)
            assert np.max(np.abs(once.mat - full @ rho.mat @ full.conj().T)) < 1e-10
            back = apply_unitary(once, u.conj().T, targets)
            assert np.max(np.abs(back.mat - rho.mat)) < 1e-10


def test_apply_z_twice_is_identity():
    rng = np.random.default_rng(5)
    rho = random_density(2, rng)
    twice = apply_unitary(apply_unitary(rho, PAULI_Z, (1,)), PAULI_Z, (1,))
    assert_allclose(twice.mat, rho.mat, atol=1e-12)


def test_apply_hadamard_to_up():
    plus = apply_unitary(ket("u"), HADAMARD, (0,))
    assert_allclose(plus.mat, np.full((2, 2), 0.5), atol=1e-15)


def test_two_gate_populations():
    # flying qubit crosses both static qubits; populations follow the gate angles
    t1, t2 = 0.7, 1.1
    rho = ket("udd")
    rho = apply_unitary(rho, forward_unitary(t1), (0, 1))
    rho = apply_unitary(rho, forward_unitary(t2), (0, 2))
    pops = np.real(np.diag(rho.mat))
    assert abs(pops[0b011] - math.cos(t1) ** 2 * math.cos(t2) ** 2) < 1e-12
    assert abs(pops[0b110] - math.cos(t1) ** 2 * math.sin(t2) ** 2) < 1e-12
    assert abs(pops[0b101] - math.sin(t1) ** 2) < 1e-12


def test_partial_trace_bell_gives_mixed():
    bell = pure(np.array([0, 1, 1, 0]) / np.sqrt(2))
    reduced = partial_trace(bell, (0,))
    assert_allclose(reduced.mat, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_product_state():
    rng = np.random.default_rng(2)
    rho_a = random_density(1, rng)
    rho_b = random_density(2, rng)
    joint = tensor_dm(rho_a, rho_b)
    assert_allclose(partial_trace(joint, (0,)).mat, rho_a.mat, atol=1e-12)
    assert_allclose(partial_trace(joint, (1, 2)).mat, rho_b.mat, atol=1e-12)


def test_partial_trace_keep_order():
    rng = np.random.default_rng(3)
    rho_a = random_density(1, rng)
    rho_b = random_density(1, rng)
    joint = tensor_dm(rho_a, rho_b)
    swapped = partial_trace(joint, (1, 0))
    assert_allclose(swapped.mat, np.kron(rho_b.mat, rho_a.mat), atol=1e-12)


def test_partial_trace_empty_keep_raises():
    with pytest.raises(ValueError, match="nonempty"):
        partial_trace(ket("ud"), ())


def test_partial_trace_commutes_with_disjoint_channel():
    rng = np.random.default_rng(4)
    ch = KrausChannel([np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * PAULI_X])
    for _ in range(20):
        rho = random_density(3, rng)
        lhs = partial_trace(apply_channel(rho, ch, (0,)), (0, 1))
        rhs = apply_channel(partial_trace(rho, (0, 1)), ch, (0,))
        assert np.max(np.abs(lhs.mat - rhs.mat)) < 1e-12


def test_apply_channel_identity():
    rng = np.random.default_rng(6)
    rho = random_density(2, rng)
    out = apply_channel(rho, KrausChannel([np.eye(2)]), (1,))
    assert_allclose(out.mat, rho.mat, atol=1e-15)


def test_apply_two_qubit_channel():
    # a unitary channel on a qubit pair agrees with applying the unitary
    rng = np.random.default_rng(7)
    rho = random_density(3, rng)
    u = random_unitary(2, rng)
    via_channel = apply_channel(rho, KrausChannel([u]), (0, 2))
    direct = apply_unitary(rho, u, (0, 2))
    assert_allclose(via_channel.mat, direct.mat, atol=1e-12)


def test_full_dephasing_on_plus_gives_mixed():
    plus = apply_unitary(ket("u"), HADAMARD, (0,))
    ch = KrausChannel([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * PAULI_Z])
    assert_allclose(apply_channel(plus, ch, (0,)).mat, np.eye(2) / 2, atol=1e-15)


def test_partial_dephasing_offdiagonal():
    # direct Kraus arithmetic: off-diagonal of |+><+| shrinks to 1/2 - eps
    eps = 0.089
    plus = np.full((2, 2), 0.5, dtype=complex)
    k0, k1 = np.sqrt(1 - eps) * np.eye(2), np.sqrt(eps) * PAULI_Z
    expected = k0 @ plus @ k0.conj().T + k1 @ plus @ k1.conj().T
    out = apply_channel(DensityMatrix(plus), KrausChannel([k0, k1]), (0,))
    assert_allclose(out.mat, expected, atol=1e-15)
    assert abs(out.mat[0, 1] - (0.5 - eps)) < 1e-12


def test_incomplete_kraus_set_rejected():
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel([np.sqrt(0.5) * np.eye(2)])
    with pytest.raises(ValueError, match="channel needs at least one Kraus operator"):
        KrausChannel([])


def test_measure_up_state():
    up, down = measure(ket("ud"), (0,))
    assert up.probability == pytest.approx(1.0, abs=1e-12)
    assert_allclose(up.state.mat, ket("d").mat, atol=1e-12)
    assert down.probability == pytest.approx(0.0, abs=1e-12)
    assert down.state is None  # flagged, not renormalized garbage


def test_measure_maximally_mixed():
    # qubit 1 of the classically correlated mixture follows the outcome on qubit 0
    rho = DensityMatrix((ket("uu").mat + ket("dd").mat) / 2)
    for branch, spin in zip(measure(rho, (0,)), "ud"):
        assert branch.probability == pytest.approx(0.5, abs=1e-12)
        assert_allclose(branch.state.mat, ket(spin).mat, atol=1e-12)


def test_measure_rejects_bad_targets():
    rho = ket("uu")
    with pytest.raises(ValueError, match="duplicate"):
        measure(rho, (0, 0))
    with pytest.raises(ValueError, match="out of range"):
        measure(rho, (2,))
    with pytest.raises(ValueError, match="leave one unmeasured"):
        measure(rho, (1, 0))
    with pytest.raises(ValueError, match="leave one unmeasured"):
        measure(rho, ())
    with pytest.raises(ValueError, match="not all integers"):
        measure(rho, (np.float64(1.2),))


def test_measure_probabilities_sum_to_one_random():
    rng = np.random.default_rng(8)
    for _ in range(20):
        rho = random_density(3, rng)
        total = sum(b.probability for b in measure(rho, (2, 0)))
        assert abs(total - 1.0) < 1e-10


def test_local_operators_match_dense_reference():
    # n = MAX_QUBITS, unsorted non-adjacent targets, complex operators
    rng = np.random.default_rng(12)
    rho = random_density(6, rng)
    for targets in ((2,), (4, 1), (5, 0, 3)):
        k = len(targets)
        d = 2**k
        u = random_unitary(k, rng)
        full_u = dense_embed(u, targets, 6)
        expected = full_u @ rho.mat @ full_u.conj().T
        assert_allclose(apply_unitary(rho, u, targets).mat, expected, atol=1e-12)
        # two complex Kraus operators: the blocks of a random isometry
        iso = random_unitary(k + 1, rng)[:, :d]
        kraus = [iso[:d], iso[d:]]
        fulls = [dense_embed(kk, targets, 6) for kk in kraus]
        expected = sum(f @ rho.mat @ f.conj().T for f in fulls)
        assert_allclose(apply_channel(rho, KrausChannel(kraus), targets).mat, expected, atol=1e-12)
        # basis outcome b: project with |b><b| on the targets, then trace them out
        rest = [q for q in range(6) if q not in targets]
        for b, branch in enumerate(measure(rho, targets)):
            full_p = dense_embed(np.diag(np.eye(d)[b]), targets, 6)
            reduced = dense_partial_trace(full_p @ rho.mat @ full_p, rest)
            prob = np.trace(reduced).real
            assert abs(branch.probability - prob) < 1e-12
            assert_allclose(branch.state.mat, reduced / prob, atol=1e-12)
        # the targets read as an unsorted keep list
        expected = dense_partial_trace(rho.mat, targets)
        assert_allclose(partial_trace(rho, targets).mat, expected, atol=1e-12)
    stack = DensityMatrix(np.stack([random_density(6, rng).mat for _ in range(3)]))
    reduced = partial_trace(stack, (5, 0, 3)).mat
    for i in range(3):
        assert_allclose(reduced[i], dense_partial_trace(stack.mat[i], (5, 0, 3)), atol=1e-12)


def test_operations_preserve_trace_and_hermiticity():
    rng = np.random.default_rng(9)
    rho = random_density(3, rng)
    rho = apply_unitary(rho, random_unitary(2, rng), (0, 2))
    ch = KrausChannel([np.sqrt(0.9) * np.eye(2), np.sqrt(0.1) * PAULI_Z])
    rho = apply_channel(rho, ch, (1,))
    rho = partial_trace(rho, (0, 1))
    assert abs(np.trace(rho.mat) - 1.0) < 1e-10
    assert np.max(np.abs(rho.mat - rho.mat.conj().T)) < 1e-10


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="trace 0j"):
        DensityMatrix(np.zeros((64, 64)))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="density matrix dimension 3 is not a power of two >= 2"):
        DensityMatrix(np.eye(3) / 3.0)
    with pytest.raises(ValueError, match=r"density matrix must be square, got shape \(2, 4\)"):
        DensityMatrix(np.zeros((2, 4)))


def test_stacked_validation_names_the_first_failing_index():
    good = np.eye(2) / 2.0
    non_hermitian = np.array([[0.5, 0.5], [0.0, 0.5]])
    negative = np.diag([1.5, -0.5])
    with pytest.raises(ValueError, match=r"not Hermitian within 1e-12 at stack index \(1,\)"):
        DensityMatrix(np.stack([good, non_hermitian, negative]))
    with pytest.raises(ValueError, match=r"eigenvalue -0\.5\d* below .* at stack index \(2,\)"):
        DensityMatrix(np.stack([good, good, negative]))
    with pytest.raises(ValueError, match=r"trace \(2\+0j\) .* at stack index \(0, 1\)"):
        DensityMatrix(np.stack([good, np.eye(2)])[None])
    with pytest.raises(ValueError, match=r"completeness within 1e-12 at stack index \(1,\)"):
        KrausChannel([np.stack([np.eye(2), 2.0 * np.eye(2)])])
    # a branch state of the entry at stack index 1 fails validation once it is
    # renormalized: its outcome-1 block diag(6e-11, -5e-11) has probability 1e-11,
    # above the cut, and divides to diag(6, -5); the error names stack index and outcome
    bad = np.diag([0.5, 0.5 - 1e-11, 6e-11, -5e-11])
    with pytest.raises(ValueError, match=r"eigenvalue -[45]\.\d* below .* at stack index \(1, 1\)"):
        measure(DensityMatrix(np.stack([np.eye(4) / 4.0, bad])), (0,))
    assert DensityMatrix(np.stack([good, good])).purity().tolist() == [0.5, 0.5]


def _assert_branches_equal(stacked, single):
    assert len(stacked) == len(single)
    for a, b in zip(stacked, single):
        assert type(a.probability) is float and a.probability == b.probability
        assert np.signbit(a.probability) == np.signbit(b.probability)
        assert (a.state is None) == (b.state is None)
        if a.state is not None:
            assert a.state.n == b.state.n
            bits = [np.ascontiguousarray(m).view(np.uint64) for m in (a.state.mat, b.state.mat)]
            assert np.array_equal(*bits)
            for flag in ("c_contiguous", "f_contiguous", "writeable"):
                assert getattr(a.state.mat.flags, flag) == getattr(b.state.mat.flags, flag)


@pytest.mark.parametrize("shape", [(3,), (2, 2)])
def test_stacked_measure_equals_single_measure_bit_for_bit(shape):
    # random 3-qubit states, every second one with qubit 0 up and qubit 1 down:
    # each stack index gives the branches its state alone gives, probabilities,
    # cut flags, bits and memory order
    rng = np.random.default_rng(37)
    size = math.prod(shape)
    states = [
        tensor_dm(ket("ud"), random_density(1, rng)) if i % 2 else random_density(3, rng)
        for i in range(size)
    ]
    stacked = DensityMatrix(np.stack([rho.mat for rho in states]).reshape(shape + (8, 8)))
    for targets in ((0,), (1,), (2, 0), (1, 2)):
        result = measure(stacked, targets)
        flat = result if len(shape) == 1 else [branches for row in result for branches in row]
        assert len(result) == shape[0] and len(flat) == size
        for branches, rho in zip(flat, states):
            _assert_branches_equal(branches, measure(rho, targets))
        # every target set cuts the branches of the odd stack indices that
        # need qubit 0 down or qubit 1 up, and no branch of an even one
        assert [any(b.state is None for b in branches) for branches in flat] == [
            i % 2 == 1 for i in range(size)
        ]


def _on_support(block, support) -> np.ndarray:
    """A 64 x 64 matrix holding ``block`` on the basis states ``support`` and zeros elsewhere."""
    m = np.zeros((64, 64), dtype=complex)
    m[np.ix_(support, support)] = block
    return m


def _psd_block(k: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(k, rank)) + 1j * rng.normal(size=(k, rank))
    b = g @ g.conj().T
    return b / np.trace(b).real


def _large_cases(make, rng):
    """``make(basis)`` alone, and as index 2 of a stack of three 64 x 64 states.

    The other two states are random rank-3 states on disjoint basis states;
    ``make`` gets the 58 basis states left over, so the supports differ.
    """
    perm = rng.permutation(64)
    last = make(perm[6:])
    stack = np.stack([_on_support(_psd_block(3, 3, rng), perm[i:i + 3]) for i in (0, 3)] + [last])
    return [(last, ""), (stack, r" at stack index \(2,\)")]


def test_large_states_on_a_few_basis_states_are_accepted():
    # 6-qubit chain states live on at most 3 of their 64 basis states
    rng = np.random.default_rng(47)
    for k in range(1, 5):
        for rank in range(1, k + 1):
            for m, _ in _large_cases(lambda basis: _on_support(_psd_block(k, rank, rng), basis[:k]), rng):
                assert np.array_equal(DensityMatrix(m).mat, m)


@pytest.mark.parametrize("lowest, accepted", [(-2e-10, False), (-5e-11, True)])
def test_large_state_eigenvalue_floor_holds_on_its_support(lowest, accepted):
    rng = np.random.default_rng(53)

    def make(basis):
        u = random_unitary(2, rng)
        b = u @ np.diag([lowest, 0.2, 0.3, 0.5 - lowest]) @ u.conj().T
        return _on_support((b + b.conj().T) / 2.0, basis[:4])

    for m, where in _large_cases(make, rng):
        if accepted:
            DensityMatrix(m)
        else:
            with pytest.raises(ValueError, match=rf"eigenvalue -\S+ below -1e-10{where}$"):
                DensityMatrix(m)


@pytest.mark.parametrize("x, accepted", [(1e-3, False), (1e-6, True)])
def test_large_state_coherence_on_a_zero_diagonal_row(x, accepted):
    # [[1, x], [x, 0]] has lowest eigenvalue about -x^2: the zero diagonal
    # entry does not make its row and column zero
    rng = np.random.default_rng(59)

    def make(basis):
        m = _on_support([[1.0]], basis[:1])
        m[basis[0], basis[1]] = m[basis[1], basis[0]] = x
        return m

    for m, where in _large_cases(make, rng):
        if accepted:
            DensityMatrix(m)
        else:
            with pytest.raises(ValueError, match=rf"eigenvalue -\S+ below -1e-10{where}$"):
                DensityMatrix(m)


def test_large_state_non_hermitian_entry_in_a_zero_row():
    rng = np.random.default_rng(61)

    def make(basis):
        m = _on_support(_psd_block(2, 2, rng), basis[:2])
        m[basis[2], basis[0]] = 1e-3
        return m

    for m, where in _large_cases(make, rng):
        with pytest.raises(ValueError, match=rf"not Hermitian within 1e-12{where}$"):
            DensityMatrix(m)


# --- each tolerance at its threshold: an error of 2e-12 fails a 1e-12 check, one of 5e-13 passes

_ABOVE_AND_BELOW = [(2e-12, False), (-2e-12, False), (5e-13, True), (-5e-13, True)]


def _at_threshold(perturb):
    """A valid state changed by ``perturb(m, i, j)``, in every layout that DensityMatrix checks.

    The state is [[0.6, 0.2], [0.2, 0.4]] on the basis states (i, j): (1, 2)
    of a 4 x 4 matrix, and (17, 40) of a 64 x 64 one, which is checked on its
    support block. Each comes alone and as index 2 of a stack of three whose
    other states are left unchanged. Returns (matrix, message suffix) pairs.
    """
    cases = []
    for d, (i, j) in ((4, (1, 2)), (64, (17, 40))):
        good = np.zeros((d, d), dtype=complex)
        good[np.ix_((i, j), (i, j))] = [[0.6, 0.2], [0.2, 0.4]]
        bad = good.copy()
        perturb(bad, i, j)
        cases += [(bad, ""), (np.stack([good, good, bad]), r" at stack index \(2,\)")]
    return cases


@pytest.mark.parametrize("err, accepted", _ABOVE_AND_BELOW)
def test_hermiticity_tolerance_at_its_threshold(err, accepted):
    def perturb(m, i, j):
        m[i, j] += err  # only the upper entry: m - m^dagger is err there

    for m, where in _at_threshold(perturb):
        if accepted:
            assert np.array_equal(DensityMatrix(m).mat, m)
        else:
            with pytest.raises(ValueError, match=rf"not Hermitian within 1e-12{where}$"):
                DensityMatrix(m)


@pytest.mark.parametrize("err, accepted", _ABOVE_AND_BELOW)
def test_trace_tolerance_at_its_threshold(err, accepted):
    def perturb(m, i, j):
        m[i, i] += err

    for m, where in _at_threshold(perturb):
        if accepted:
            assert np.array_equal(DensityMatrix(m).mat, m)
        else:
            with pytest.raises(ValueError, match=rf"trace \S+ differs from 1 beyond 1e-12{where}$"):
                DensityMatrix(m)


@pytest.mark.parametrize("err, accepted", _ABOVE_AND_BELOW)
def test_completeness_tolerance_at_its_threshold(err, accepted):
    # K^dagger K is the identity but for 1 + err on one basis state, on 1 and on 6 qubits
    for k in (1, 6):
        good = np.eye(2**k, dtype=complex)
        bad = good.copy()
        bad[1, 1] = math.sqrt(1.0 + err)
        for op, where in ((bad, ""), (np.stack([good, good, bad]), r" at stack index \(2,\)")):
            if accepted:
                assert KrausChannel([op]).n == k
            else:
                with pytest.raises(ValueError, match=rf"completeness within 1e-12{where}$"):
                    KrausChannel([op])


def test_output_memory_order_is_pinned():
    # the last bits of the seeded outputs depend on the memory order of each
    # op's output, since a matmul, a trace or an eigvalsh reads its operands in
    # that order: the ops return C-ordered states for C-ordered inputs, and
    # measure returns Fortran-ordered branch states, which an op on their
    # leading qubits passes on
    rng = np.random.default_rng(71)
    one, three = random_density(1, rng), random_density(3, rng)
    stack = DensityMatrix(np.stack([random_density(2, rng).mat for _ in range(3)]))
    dephase = KrausChannel([np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * PAULI_Z])
    branch = measure(three, (1,))[0].state
    c_ordered = [
        apply_channel(one, dephase, (0,)),
        apply_channel(three, dephase, (0,)),
        apply_channel(three, dephase, (2,)),
        apply_unitary(three, random_unitary(2, rng), (2, 0)),
        apply_unitary(stack, PAULI_X, (0,)),
        apply_unitary(stack, PAULI_X, (1,)),
        apply_unitary(branch, PAULI_X, (1,)),
        partial_trace(three, (0, 1)),
        partial_trace(three, (1, 2)),
        partial_trace(three, (2,)),
        partial_trace(stack, (1,)),
        tensor_dm(one, three),
        tensor_dm(stack, one),
        tensor_dm(branch, one),
    ]
    for rho in c_ordered:
        assert rho.mat.flags.c_contiguous
    f_ordered = [*(b.state for b in measure(three, (1,))), *(b.state for b in measure(three, (2, 0))),
                 apply_unitary(branch, PAULI_X, (0,)), apply_channel(branch, dephase, (0,))]
    for rho in f_ordered:
        assert rho.mat.flags.f_contiguous and not rho.mat.flags.c_contiguous


def test_stacked_ops_equal_single_ops_bit_for_bit():
    # states, unitaries and channels carrying stack axes that broadcast
    # against each other give, at every index, the bits of the single op
    rng = np.random.default_rng(31)
    states = [random_density(2, rng) for _ in range(5)]
    us = np.stack([random_unitary(2, rng) for _ in range(5)])
    eps = rng.uniform(0.0, 1.0, 5)
    damp = KrausChannel(
        [np.stack([np.diag([np.sqrt(1 - e), 1.0]) for e in eps]),
         np.stack([np.sqrt(e) * np.array([[0.0, 0.0], [1.0, 0.0]]) for e in eps])]
    )
    other = random_density(2, rng)

    def pipeline(state, u, channel):
        rho = apply_unitary(tensor_dm(state, other), u, (2, 0))
        return partial_trace(apply_channel(rho, channel, (1,)), (3, 1))

    stack = DensityMatrix(np.stack([s.mat for s in states]))
    got = pipeline(stack, us, damp)
    assert got.mat.shape == (5, 4, 4)
    for i, state in enumerate(states):
        single = KrausChannel([k[i] for k in damp.operators])
        want = pipeline(state, us[i], single)
        assert np.array_equal(got.mat[i].view(np.uint64), want.mat.view(np.uint64))
    # one single state against a stack of unitaries
    got = apply_unitary(states[0], us, (1, 0))
    for i in range(5):
        want = apply_unitary(states[0], us[i], (1, 0))
        assert np.array_equal(got.mat[i].view(np.uint64), want.mat.view(np.uint64))


def test_pure_state_validation():
    with pytest.raises(ValueError, match="spin string"):
        ket("ux")


def test_register_ceiling():
    with pytest.raises(ValueError, match="ceiling"):
        ket("u" * 7)
