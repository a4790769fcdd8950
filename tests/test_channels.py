import numpy as np
import pytest
from numpy.testing import assert_allclose

from flyspin.channels import NoiseParams, dephasing, imperfect_init, relaxation
from flyspin.protocol import generate_resource
from flyspin.qcore import DensityMatrix, PAULI_Z, apply_channel, ket

from helpers import random_density

PLUS = DensityMatrix(np.full((2, 2), 0.5))


def test_imperfect_init_limits():
    assert_allclose(imperfect_init(0.0).mat, np.diag([1.0, 0.0]), atol=1e-15)
    assert_allclose(imperfect_init(1.0).mat, np.diag([0.0, 1.0]), atol=1e-15)
    assert_allclose(imperfect_init(0.1).mat, np.diag([0.9, 0.1]), atol=1e-15)


def test_dephasing_identity_and_half():
    rng = np.random.default_rng(21)
    rho = random_density(1, rng)
    assert_allclose(apply_channel(rho, dephasing(0.0), (0,)).mat, rho.mat, atol=1e-15)
    assert_allclose(apply_channel(PLUS, dephasing(0.5), (0,)).mat, np.eye(2) / 2, atol=1e-15)


def test_dephasing_scales_offdiagonals():
    out = apply_channel(PLUS, dephasing(0.089), (0,))
    assert out.mat[0, 1] == pytest.approx(0.411, abs=1e-12)
    assert out.mat[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_dephasing_composition_law():
    rng = np.random.default_rng(22)
    for _ in range(50):
        e1, e2 = rng.uniform(0, 1, 2)
        combined = e1 + e2 - 2.0 * e1 * e2
        rho = random_density(1, rng)
        seq = apply_channel(apply_channel(rho, dephasing(e1), (0,)), dephasing(e2), (0,))
        direct = apply_channel(rho, dephasing(combined), (0,))
        assert np.max(np.abs(seq.mat - direct.mat)) < 1e-12


def test_relaxation_limits():
    assert_allclose(
        apply_channel(ket("u"), relaxation(1.0), (0,)).mat,
        ket("d").mat,
        atol=1e-15,
    )
    assert_allclose(
        apply_channel(ket("u"), relaxation(0.2), (0,)).mat,
        np.diag([0.8, 0.2]),
        atol=1e-15,
    )
    rng = np.random.default_rng(23)
    rho = random_density(1, rng)
    assert_allclose(apply_channel(rho, relaxation(0.0), (0,)).mat, rho.mat, atol=1e-15)


def test_relaxation_direction():
    # down stays down; only the up population decays
    out = apply_channel(ket("d"), relaxation(0.7), (0,))
    assert_allclose(out.mat, ket("d").mat, atol=1e-15)


def test_completeness_1000_random_params():
    rng = np.random.default_rng(24)
    eye = np.eye(2)
    for _ in range(1000):
        e = float(rng.uniform(0, 1))
        for ch in (dephasing(e), relaxation(e)):
            total = sum(k.conj().T @ k for k in ch.operators)
            assert np.max(np.abs(total - eye)) < 1e-12


def test_out_of_range_probabilities_raise():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            imperfect_init(bad)
        with pytest.raises(ValueError):
            dephasing(bad)
        with pytest.raises(ValueError):
            relaxation(bad)
        with pytest.raises(ValueError):
            NoiseParams(eps_z=bad)


def test_pipeline_equivalence_closed_form():
    # dephasing the flying qubit between the gates equals conjugating the
    # noiseless static-pair state by Z on the first static qubit with
    # probability eps_z
    rng = np.random.default_rng(25)
    z1 = np.kron(PAULI_Z, np.eye(2))
    for _ in range(100):
        t1, t2 = rng.uniform(0, np.pi, 2)
        eps_z = float(rng.uniform(0, 1))
        noiseless = generate_resource(t1, t2).mat
        expected = (1.0 - eps_z) * noiseless + eps_z * z1 @ noiseless @ z1
        simulated = generate_resource(t1, t2, NoiseParams(eps_z=eps_z)).mat
        assert np.max(np.abs(simulated - expected)) < 1e-12
