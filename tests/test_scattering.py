import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flyspin.metrics import BellLabel, bell_fidelity, concurrence
from flyspin.qcore import DensityMatrix, apply_unitary, ket
from flyspin.scattering import (
    FullScatterParams,
    _gate_angle,
    forward_unitary,
    full_scatter,
    herald_transmission,
)

from helpers import pure, random_density

# |ud> and |du> as vectors: 'u' is bit 0, 'd' bit 1, the first spin most significant
UD, DU = np.eye(4, dtype=complex)[0b01], np.eye(4, dtype=complex)[0b10]

MAGNETIZATION_2 = np.kron(np.diag([1.0, -1.0]), np.eye(2)) + np.kron(np.eye(2), np.diag([1.0, -1.0]))


def test_zero_params_give_identity():
    assert_allclose(forward_unitary(0.0), np.eye(4), atol=1e-15)


def test_swap_regime_maps_ud_to_du():
    # full exchange angle: |ud> goes to i |du>
    u = forward_unitary(math.pi / 2.0)
    out = u @ UD
    expected = 1j * DU
    assert_allclose(out, expected, atol=1e-12)


def test_bell_angle_entangles_maximally():
    u = forward_unitary(math.pi / 4.0)
    out = u @ UD
    expected = (UD + 1j * DU) / math.sqrt(2.0)
    assert_allclose(out, expected, atol=1e-12)
    assert concurrence(pure(out)) == pytest.approx(1.0, abs=1e-10)


def test_unitarity_and_magnetization_1000_random():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        u = forward_unitary(rng.uniform(-10, 10))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
        assert np.max(np.abs(u @ MAGNETIZATION_2 - MAGNETIZATION_2 @ u)) < 1e-10


def test_parallel_subspace_is_pure_phase():
    rng = np.random.default_rng(13)
    for _ in range(200):
        u = forward_unitary(rng.uniform(0, 7))
        # no spin flips for parallel spins: parallel entries stay diagonal
        for idx in (0, 3):
            row = np.delete(u[idx], idx)
            col = np.delete(u[:, idx], idx)
            assert np.max(np.abs(row)) < 1e-12
            assert np.max(np.abs(col)) < 1e-12
            assert abs(abs(u[idx, idx]) - 1.0) < 1e-12


def test_from_phase_shifts():
    # the gate at t = (theta_T - theta_S)/2 has the singlet and triplet
    # eigenphases up to the global phase e^{i (theta_T + theta_S)/2}
    theta_s, theta_t = 0.4, 1.5
    gate = forward_unitary((theta_t - theta_s) / 2.0)
    u = np.exp(0.5j * (theta_t + theta_s)) * gate
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    triplet0 = np.array([0, 1, 1, 0]) / np.sqrt(2)
    assert_allclose(u @ singlet, np.exp(1j * theta_s) * singlet, atol=1e-12)
    assert_allclose(u @ triplet0, np.exp(1j * theta_t) * triplet0, atol=1e-12)
    assert_allclose(np.diag(u)[[0, 3]], np.exp(1j * theta_t), atol=1e-12)


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_angles_reduced_mod_two_pi():
    # 2 pi + 0.5 reduces to 0.5 exactly, so the gate is the 0.5 gate bit for bit
    assert (2.0 * math.pi + 0.5) % (2.0 * math.pi) == 0.5
    assert _same_bits(forward_unitary(2.0 * math.pi + 0.5), forward_unitary(0.5))
    assert _gate_angle(-0.25) == pytest.approx(2.0 * math.pi - 0.25)
    with pytest.raises(ValueError, match="finite"):
        forward_unitary(math.inf)


def test_stacked_gate_matches_math_library_bit_for_bit():
    # the gate once came from math.cos, math.sin and scalar exp; the stacked
    # numpy form must give the same bits at every angle, reduced or not, and
    # a scalar angle must still give a Python float phase
    rng = np.random.default_rng(7)
    theta = np.concatenate([rng.uniform(-20.0, 20.0, 3000), np.arange(-8, 9) * math.pi / 2.0])
    reduced = [t % (2.0 * math.pi) for t in theta.tolist()]
    expected = np.array(
        [(r, math.cos(r), math.sin(r), np.exp(1j * r).real, np.exp(1j * r).imag) for r in reduced]
    )
    u = forward_unitary(theta)
    got = np.stack(
        [_gate_angle(theta), u[:, 1, 1].real, u[:, 1, 2].imag, u[:, 0, 0].real, u[:, 0, 0].imag], axis=1
    )
    assert u.shape == (theta.size, 4, 4)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    for i in range(0, theta.size, 97):
        single = float(theta[i])
        assert type(_gate_angle(single)) is float and _gate_angle(single) == reduced[i]
        assert np.array_equal(forward_unitary(single).view(np.uint64), u[i].view(np.uint64))


def test_full_scatter_params_validation():
    with pytest.raises(ValueError, match="not normalized"):
        FullScatterParams(t_s=1.0, r_s=0.5, t_t=1.0, r_t=0.0)
    with pytest.raises(ValueError, match="not normalized"):
        FullScatterParams(t_s=math.nan, r_s=0.0, t_t=1.0, r_t=0.0)
    # the state must be one (flying, static) pair
    params = FullScatterParams(t_s=1.0, r_s=0.0, t_t=0.0, r_t=1.0)
    for spins in ("u", "udd"):
        with pytest.raises(ValueError, match=r"full_scatter expects a \(flying, static\) two-qubit state"):
            full_scatter(ket(spins), params)


def test_no_reflection_limit_matches_forward_unitary():
    rng = np.random.default_rng(14)
    for _ in range(50):
        theta_s, theta_t = rng.uniform(0, 2 * math.pi, 2)
        p_full = FullScatterParams(
            t_s=np.exp(1j * theta_s), r_s=0.0, t_t=np.exp(1j * theta_t), r_t=0.0
        )
        rho = random_density(2, rng)
        prob, conditional = herald_transmission(full_scatter(rho, p_full))
        assert prob == pytest.approx(1.0, abs=1e-12)
        # the global phase e^{i (theta_T + theta_S)/2} cancels in rho
        expected = apply_unitary(rho, forward_unitary((theta_t - theta_s) / 2.0), (0, 1))
        assert np.max(np.abs(conditional.mat - expected.mat)) < 1e-12


def test_pure_triplet_transmitted_weight():
    p = FullScatterParams(t_s=1.0, r_s=0.0, t_t=math.sqrt(0.3), r_t=math.sqrt(0.7))
    prob, conditional = herald_transmission(full_scatter(ket("uu"), p))
    assert prob == pytest.approx(0.3, abs=1e-12)
    assert_allclose(conditional.mat, ket("uu").mat, atol=1e-12)
    # measure takes stacks, the herald one state
    stacked = DensityMatrix(np.stack([full_scatter(ket("uu"), p).mat] * 2))
    with pytest.raises(ValueError, match=r"takes a single state, got a stack of \(2,\)"):
        herald_transmission(stacked)


def test_singlet_resonance_heralds_bell_pair_at_half():
    # antiparallel input at singlet resonance with full triplet blocking
    p = FullScatterParams(t_s=1.0, r_s=0.0, t_t=0.0, r_t=1.0)
    prob, conditional = herald_transmission(full_scatter(ket("ud"), p))
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert bell_fidelity(conditional, BellLabel.PSI_MINUS) == pytest.approx(1.0, abs=1e-10)


def test_fully_blocked_triplet_flagged():
    p = FullScatterParams(t_s=1.0, r_s=0.0, t_t=0.0, r_t=1.0)
    prob, conditional = herald_transmission(full_scatter(ket("uu"), p))
    assert prob == pytest.approx(0.0, abs=1e-12)
    assert conditional is None


def test_herald_probability_equals_transmitted_trace():
    rng = np.random.default_rng(15)
    for _ in range(30):
        amps = rng.normal(size=4).reshape(2, 2) + 1j * rng.normal(size=4).reshape(2, 2)
        amps /= np.linalg.norm(amps, axis=1)[:, None]
        p = FullScatterParams(amps[0, 0], amps[0, 1], amps[1, 0], amps[1, 1])
        rho = random_density(2, rng)
        scattered = full_scatter(rho, p)
        prob, _ = herald_transmission(scattered)
        block = scattered.mat.reshape(4, 2, 4, 2)[:, 0, :, 0]
        assert abs(prob - np.real(np.trace(block))) < 1e-12
        assert abs(np.trace(scattered.mat) - 1.0) < 1e-12
