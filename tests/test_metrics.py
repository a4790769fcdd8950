import math

import numpy as np
import pytest

from flyspin.metrics import BellLabel, bell_fidelity, concurrence, success_stats
from flyspin.qcore import DensityMatrix, apply_unitary, ket, tensor_dm

from helpers import bell_state, pure, random_density, random_unitary


def test_bell_states_orthonormal():
    vecs = [bell_state(label) for label in BellLabel]
    gram = np.array([[abs(np.vdot(a, b)) for b in vecs] for a in vecs])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)


def test_concurrence_of_bell_states_is_one():
    for label in BellLabel:
        assert concurrence(pure(bell_state(label))) == pytest.approx(1.0, abs=1e-10)


def test_concurrence_of_product_states_is_zero():
    rng = np.random.default_rng(31)
    for _ in range(20):
        rho = tensor_dm(random_density(1, rng), random_density(1, rng))
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-10)


def test_concurrence_two_term_pure_state():
    # a|ud> + b|du> has concurrence 2|ab|
    rng = np.random.default_rng(32)
    for _ in range(50):
        a = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / norm, b / norm
        vec = np.array([0.0, a, b, 0.0], dtype=complex)
        c = concurrence(pure(vec))
        assert abs(c - 2.0 * abs(a) * abs(b)) < 1e-12


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(33)
    for _ in range(30):
        rho = random_density(2, rng)
        u = np.kron(random_unitary(1, rng), random_unitary(1, rng))
        rotated = apply_unitary(rho, u, (0, 1))
        assert abs(concurrence(rho) - concurrence(rotated)) < 1e-10


def test_concurrence_rejects_wrong_size():
    with pytest.raises(ValueError, match="two-qubit"):
        concurrence(ket("u"))
    with pytest.raises(ValueError, match="two-qubit"):
        bell_fidelity(ket("udd"), BellLabel.PSI_PLUS)


def test_bell_fidelity_values():
    psi_plus = pure(bell_state(BellLabel.PSI_PLUS))
    assert bell_fidelity(psi_plus, BellLabel.PSI_PLUS) == pytest.approx(1.0, abs=1e-12)
    assert bell_fidelity(psi_plus, BellLabel.PSI_MINUS) == pytest.approx(0.0, abs=1e-12)


def test_bell_fidelity_rejects_a_stack():
    psi_plus = pure(bell_state(BellLabel.PSI_PLUS)).mat
    for shape in ((1,), (3,)):
        stack = DensityMatrix(np.broadcast_to(psi_plus, shape + (4, 4)).copy())
        with pytest.raises(ValueError, match=rf"bell_fidelity takes a single state, got a stack of shape \({shape[0]},\)"):
            bell_fidelity(stack, BellLabel.PSI_PLUS)


def test_bell_fidelities_sum_to_one_on_bell_diagonal():
    rng = np.random.default_rng(34)
    weights = rng.uniform(0, 1, 4)
    weights /= weights.sum()
    mat = sum(
        w * np.outer(bell_state(l), bell_state(l).conj())
        for w, l in zip(weights, BellLabel)
    )
    rho = DensityMatrix(mat)
    total = sum(bell_fidelity(rho, label) for label in BellLabel)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_success_stats():
    assert success_stats([True] * 10) == (1.0, 0.0)
    assert success_stats([False] * 10) == (0.0, 0.0)
    p, se = success_stats([True, False, True, True])
    assert p == pytest.approx(0.75)
    assert se == pytest.approx(math.sqrt(0.75 * 0.25 / 4))
    # a bool array gives the list's result bit for bit
    flags = [bool(b) for b in np.random.default_rng(5).integers(0, 2, 997)]
    assert success_stats(np.array(flags)) == success_stats(flags)
    with pytest.raises(ValueError, match="empty"):
        success_stats([])
