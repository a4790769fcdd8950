import dataclasses
import hashlib
import itertools
import math
import re
import statistics

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flyspin.channels import NoiseParams
from flyspin.metrics import BellLabel, bell_fidelity, concurrence
from flyspin.protocol import (
    ROUND_OUTCOMES,
    ParityTree,
    chain_report,
    corrected_rho,
    fresh_pair_fidelity,
    generate_resource,
    parity_success_output,
    parity_tree,
    pump_until,
    resource_rows,
    transit_weights,
    _BLOCK,
    _CNOT_PAIR,
    _FIRST_BLOCK,
    _cdf,
    _lattice_fidelity,
    _parity_round,
    _pump_lattice,
    _walk_constants,
)
from flyspin.qcore import (
    PAULI_X,
    ZERO_PROBABILITY_ATOL,
    DensityMatrix,
    MeasurementBranch,
    apply_unitary,
    ket,
    measure,
    tensor_dm,
)
from flyspin.rng import trial_rng, trial_streams, trial_uniforms
from flyspin.scattering import _gate_angle

from helpers import (
    CNOT_MAT,
    bell_state,
    born_weights,
    closed_form_resource,
    parity_leaves_dense,
    pump_exact,
    pump_round_oracle,
    pure,
    random_density,
    random_pure_density,
    scalar_walk,
)

OPT1, OPT2 = math.pi / 4.0, math.pi / 2.0

ODD_SYNDROME = ((0, 0), (1, 1))
EVEN_SYNDROME = ((0, 1), (1, 0))

PI_ODD = np.diag([0.0, 1.0, 1.0, 0.0])


# --- resource generation -----------------------------------------------------


def test_optimal_angles_give_maximally_entangled_pair():
    rho = generate_resource(OPT1, OPT2)
    p1, p2 = transit_weights(OPT1, OPT2)
    assert p1 == pytest.approx(1.0, abs=1e-12)
    assert p2 == pytest.approx(1.0, abs=1e-12)
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-10)
    assert rho.purity() == pytest.approx(1.0, abs=1e-10)
    assert bell_fidelity(corrected_rho(rho, OPT2), BellLabel.PSI_PLUS) == pytest.approx(1.0, abs=1e-10)


def test_no_interaction_leaves_static_pair_down_down():
    rho = generate_resource(0.0, 0.0)
    assert_allclose(rho.mat, ket("dd").mat, atol=1e-12)
    assert sum(transit_weights(0.0, 0.0)) == 0.0


def test_derived_angle_weights():
    p1, p2 = transit_weights(math.pi / 6.0, math.pi / 3.0)
    assert p1 == pytest.approx(9.0 / 8.0, abs=1e-12)
    assert p2 == pytest.approx(0.5, abs=1e-12)
    assert concurrence(generate_resource(math.pi / 6.0, math.pi / 3.0)) == pytest.approx(0.75, abs=1e-10)


def test_corrected_rho_reduces_theta2_mod_two_pi():
    # the correction takes gate 2's angle as the gate does, reduced mod 2 pi, so
    # a theta2 outside [0, 2 pi) gives the bits of its reduced angle
    rho = generate_resource(0.9, 2.2, NoiseParams(eps_z=0.05))
    for t in (0.37, 1.3, 2.6, 3.7, 5.9):
        for k in (-2, -1, 1, 3):
            theta2 = t + 2.0 * math.pi * k
            got = corrected_rho(rho, theta2).mat
            assert _same_bits(got, corrected_rho(rho, theta2 % (2.0 * math.pi)).mat)
            assert_allclose(got, corrected_rho(rho, t).mat, atol=1e-12)


def test_simulation_matches_closed_form_1000_random():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(1000):
        t1, t2 = rng.uniform(0.0, math.pi, 2)
        sim = generate_resource(t1, t2).mat
        worst = max(worst, float(np.max(np.abs(sim - closed_form_resource(t1, t2)))))
    assert worst < 1e-12


def test_noisy_simulation_matches_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(100):
        t1, t2 = rng.uniform(0.0, math.pi, 2)
        eps_init, eps_z, eps_relax = rng.uniform(0.0, 1.0, 3)
        noise = NoiseParams(eps_init=eps_init, eps_z=eps_z, eps_relax=eps_relax)
        sim = generate_resource(t1, t2, noise).mat
        expected = closed_form_resource(t1, t2, eps_init, eps_z, eps_relax)
        assert np.max(np.abs(sim - expected)) < 1e-12


def _same_bits(a, b) -> bool:
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _assert_rows_equal_single_transits(theta1, theta2, noise):
    # row point (i, j) of resource_rows must be generate_resource(theta1[i],
    # theta2[j]) exactly, and p1, p2 must stay on Python's math
    rows = list(resource_rows(theta1, theta2, noise))
    assert len(rows) == len(theta1)
    for t1, rho in zip(theta1.tolist(), rows):
        assert rho.mat.shape == np.shape(theta2) + (4, 4)
        c = concurrence(rho)
        p1_row, p2 = transit_weights(t1, theta2)
        for j in np.ndindex(np.shape(theta2)):
            t2 = float(np.asarray(theta2)[j])
            single = generate_resource(t1, t2, noise)
            single_p1, single_p2 = transit_weights(t1, t2)
            assert _same_bits(rho.mat[j], single.mat)
            assert _same_bits(np.asarray(c)[j], concurrence(single))
            assert _same_bits(np.asarray(p1_row)[j], single_p1)
            assert _same_bits(p2, single_p2)
            assert _same_bits(single_p1, 2.0 * math.cos(t1) ** 2 * math.sin(t2) ** 2)
            assert _same_bits(single_p2, 2.0 * math.sin(t1) ** 2)


def test_stacked_transits_equal_single_transits_bit_for_bit():
    # 7x7 grids over nine noise settings, eps of 0 and 1 at every channel's
    # edges: theta1 holds the six angles and theta2 the first three where
    # numpy's cos(x) ** 2 (or sin) misses Python's math in the last bit, so
    # p1 and p2 must stay on math; the rest are multiples of pi/2 (the
    # degenerate points) and angles outside [0, 2 pi] (the mod 2 pi reduction)
    rng = np.random.default_rng(20110215)
    special1 = [5.215353836340649, 4.67879830034482, -1.7333735774792238,
                5.150345059613125, -3.979968439817835, -7.710104007368115]
    theta2 = np.array([-3.9259753584093593, -6.737736549800015, 4.630165492836438,
                       0.0, 0.5 * math.pi, -math.pi, 4.0 * math.pi])
    noises = [NoiseParams(), NoiseParams(1.0, 1.0, 1.0), NoiseParams(0.0, 1.0, 0.0),
              NoiseParams(1.0, 0.0, 0.5), NoiseParams(0.0, 0.3, 1.0)]
    noises += [NoiseParams(*rng.uniform(0.0, 1.0, 3)) for _ in range(4)]
    multiples1 = [0.0, 0.5, 1.0, 2.0, -1.5]
    for k, noise in enumerate(noises):
        _assert_rows_equal_single_transits(
            np.array(special1 + [multiples1[k % 5] * math.pi]), theta2, noise)


def test_broadcast_angles_equal_single_transits_bit_for_bit():
    # a one-row theta1, a scalar theta2 and multiples of pi/2 on theta2 each
    # share the first leg or the gate-2 channel; every point must still equal
    # its own transit
    rng = np.random.default_rng(1102)
    cases = [
        (np.array([1.234]), rng.uniform(-3.0, 3.0, 7)),
        (rng.uniform(-3.0, 3.0, 3), rng.uniform(-3.0, 3.0, 7)),
        (rng.uniform(-3.0, 3.0, 5), -0.789),
        (np.array([0.5 * math.pi]), np.array([0.0, 0.5, 1.0, 2.0]) * math.pi),
    ]
    for noise in (NoiseParams(), NoiseParams(0.01, 0.089, 0.02), NoiseParams(1.0, 1.0, 1.0)):
        for theta1, theta2 in cases:
            _assert_rows_equal_single_transits(theta1, theta2, noise)
    with pytest.raises(ValueError, match=r"theta1 must be a 1-D array, got shape \(2, 3\)"):
        resource_rows(np.zeros((2, 3)), np.zeros((3, 2)))


def test_resource_rows_equal_generate_resource_bit_for_bit():
    # the rows share one first leg over theta1's stack and one gate-2 channel;
    # row point (i, j) must still be generate_resource(theta1[i], theta2[j]) exactly
    rng = np.random.default_rng(1703)
    grid = np.linspace(0.0, math.pi, 41)
    cases = [
        (grid, grid[::4], NoiseParams(0.01, 0.089, 0.02)),  # the perfbench sweep's first leg
        (rng.uniform(-7.0, 7.0, 6), np.append(rng.uniform(-7.0, 7.0, 5), 0.5 * math.pi), NoiseParams()),
        (np.array([0.3]), grid, NoiseParams(0.2, 0.4, 0.6)),
        (np.append(rng.uniform(-7.0, 7.0, 4), math.pi), 1.234, NoiseParams(0.01, 0.089, 0.02)),
    ]
    for theta1, theta2, noise in cases:
        _assert_rows_equal_single_transits(theta1, theta2, noise)
    with pytest.raises(ValueError, match=r"theta1 must be a 1-D array, got shape \(\)"):
        resource_rows(0.3, grid)
    with pytest.raises(ValueError, match=r"theta2 must be a scalar or a 1-D array, got shape \(2, 2\)"):
        resource_rows(grid, np.zeros((2, 2)))


def test_stacked_resource_range_checks_name_the_index():
    good = generate_resource(OPT1, OPT2)
    stack = DensityMatrix(np.stack([good.mat] * 3))
    with pytest.raises(ValueError, match=r"one two-qubit state, got shape \(3, 4, 4\)"):
        parity_tree(stack)
    # a 3-qubit resource would run the CNOTs and measure on a 5-qubit register
    with pytest.raises(ValueError, match=r"one two-qubit state, got shape \(8, 8\)"):
        parity_tree(ket("udd"))
    with pytest.raises(ValueError, match=r"theta1 must be finite, got inf$"):
        generate_resource(math.inf, OPT2)
    with pytest.raises(ValueError, match=r"theta1 must be a scalar, got shape \(3,\)"):
        generate_resource(np.full(3, OPT1), OPT2)
    with pytest.raises(ValueError, match=r"theta2 must be a scalar, got shape \(1,\)"):
        generate_resource(OPT1, np.full(1, OPT2))
    # the checks run at the call, before any row is read
    with pytest.raises(ValueError, match=r"theta1 must be finite, got nan at stack index \(2,\)"):
        resource_rows(np.array([0.0, 1.0, math.nan]), np.zeros(2))
    with pytest.raises(ValueError, match=r"theta2 must be finite, got nan at stack index \(1,\)"):
        resource_rows(np.zeros(2), np.array([0.0, math.nan]))


def test_concurrence_law_random_angles():
    rng = np.random.default_rng(43)
    for _ in range(200):
        t1, t2 = rng.uniform(0.0, math.pi, 2)
        p1, p2 = transit_weights(t1, t2)
        assert abs(concurrence(generate_resource(t1, t2)) - math.sqrt(p1 * p2)) < 1e-10


def test_imperfect_init_scales_entangled_weight():
    eps = 0.3
    rho = generate_resource(OPT1, OPT2, NoiseParams(eps_init=eps))
    clean = generate_resource(OPT1, OPT2)
    expected = (1.0 - eps) * clean.mat + eps * ket("dd").mat
    assert_allclose(rho.mat, expected, atol=1e-12)


def test_degenerate_resource_flagged_separable():
    assert sum(transit_weights(math.pi, 0.0)) <= 1e-12
    assert sum(transit_weights(OPT1, OPT2)) == pytest.approx(2.0, abs=1e-12)


def test_rejects_nonfinite_angles():
    with pytest.raises(ValueError, match="finite"):
        generate_resource(math.nan, 0.5)


# --- two-round parity projection ---------------------------------------------


def _success(rho):
    """``parity_success_output`` of the tree of one resource state."""
    return parity_success_output(parity_tree(rho))


def _leaf(tree, syndromes):
    """(probability, ancilla state) of the kept leaf with both rounds' outcome pairs, or None."""
    for first, second, prob, state in tree.leaves():
        if (first, second) == syndromes:
            return prob, state
    return None


def test_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(44)
    for _ in range(10):
        t1, t2 = rng.uniform(0.2, math.pi - 0.2, 2)
        leaves = parity_tree(generate_resource(t1, t2)).leaves()
        assert abs(sum(prob for _, _, prob, _ in leaves) - 1.0) < 1e-10


def test_truncated_mass_closes_the_branch_sum():
    # at theta1 = 3e-7 the success leaves (P1 P2 / 2 = 1.8e-13) fall below the
    # zero-probability cut; the tree reports their mass instead of dropping it
    tree = parity_tree(generate_resource(3e-7, math.pi / 2.0))
    p1, p2 = transit_weights(3e-7, math.pi / 2.0)
    kept = sum(prob for _, _, prob, _ in tree.leaves())
    assert tree.truncated_mass == pytest.approx(p1 * p2 / 2.0, rel=1e-9, abs=0.0)
    assert abs(kept + tree.truncated_mass - 1.0) < 1e-15


def _assert_tree_matches_dense(rho, ancillas=None):
    """Every branch and leaf of ``parity_tree`` against ``parity_leaves_dense`` to 1e-12."""
    tree = parity_tree(rho, ancillas)
    anc = np.full((4, 4), 0.25) if ancillas is None else ancillas.mat  # default |++>
    first, second, truncated = parity_leaves_dense(rho.mat, anc, ZERO_PROBABILITY_ATOL)
    dense_leaves = []
    for i, (b1, (p1, s1)) in enumerate(zip(tree.first, first)):
        assert abs(b1.probability - p1) < 1e-12
        assert (b1.state is None) == (s1 is None)
        if s1 is not None:
            assert np.max(np.abs(b1.state.mat - s1)) < 1e-12
        assert len(tree.second[i]) == len(second[i])
        for j, (b2, (p2, s2)) in enumerate(zip(tree.second[i], second[i])):
            assert (b2.state is None) == (s2 is None), (i, j)
            if s2 is not None:
                dense_leaves.append((divmod(i, 2), divmod(j, 2), p1 * p2, s2))  # index 2 o1 + o2
    leaves = list(tree.leaves())
    assert [leaf[:2] for leaf in leaves] == [leaf[:2] for leaf in dense_leaves]
    for (*_, prob, state), (*_, p, s) in zip(leaves, dense_leaves):
        assert abs(prob - p) < 1e-12
        assert np.max(np.abs(state.mat - s)) < 1e-12
    assert abs(tree.truncated_mass - truncated) < 1e-12
    return tree, truncated


def test_parity_tree_matches_dense_oracle_leaf_by_leaf():
    rng = np.random.default_rng(51)
    for _ in range(10):
        t1, t2 = rng.uniform(0.0, math.pi, 2)
        noise = NoiseParams(*rng.uniform(0.0, 0.3, 3))
        rho = generate_resource(t1, t2, noise)
        for anc in (None, random_density(2, rng), random_pure_density(2, rng)):
            _assert_tree_matches_dense(rho, anc)
    # the cut case: the success leaves fall below the zero-probability cut
    cut = generate_resource(3e-7, OPT2)
    for anc in (None, random_density(2, rng), random_pure_density(2, rng)):
        tree, truncated = _assert_tree_matches_dense(cut, anc)
        assert truncated > 0.0 and tree.truncated_mass == pytest.approx(truncated, rel=1e-9, abs=0.0)
    # the round-one cut: a 1e-13 ancilla weight leaves round-one branches (0, 0)
    # and (1, 1) 5e-14 each, below the cut; the 1e-12 tolerance above (and
    # approx's default abs) would pass a tree that dropped their mass
    anc = DensityMatrix(np.diag([1.0 - 1e-13, 1e-13, 0.0, 0.0]))
    tree, truncated = _assert_tree_matches_dense(generate_resource(OPT1, OPT2), anc)
    assert [b.state is None for b in tree.first] == [True, False, False, True]
    assert truncated > 0.0 and tree.truncated_mass == pytest.approx(truncated, rel=1e-9, abs=0.0)


def test_near_degenerate_angles_through_the_one_builder():
    # 15 x 14 = 210 grid points within 1e-9 of 0, pi/2 and pi on both angles,
    # where the weights vanish or saturate and the parity leaves fall to the cut
    rng = np.random.default_rng(1110)
    centers = np.array([0.0, 0.5, 1.0]) * math.pi
    theta1 = np.repeat(centers, 5) + rng.uniform(-1e-9, 1e-9, 15)
    theta2 = np.tile(centers, 5)[:14] + rng.uniform(-1e-9, 1e-9, 14)
    for t1, rho in zip(theta1.tolist(), resource_rows(theta1, theta2)):
        for j, t2 in enumerate(theta2.tolist()):
            single = generate_resource(t1, t2)
            p1, p2 = transit_weights(t1, t2)
            assert _same_bits(rho.mat[j], single.mat)
            assert np.max(np.abs(single.mat - closed_form_resource(t1, t2))) < 1e-12
            tree, _ = _assert_tree_matches_dense(single)
            prob, _ = parity_success_output(tree)
            assert abs(prob - p1 * p2 / 2.0) <= tree.truncated_mass + 1e-12


def test_success_state_is_the_fresh_pair_that_pumping_assumes():
    # pump-sim's lattice takes one number, fresh_pair_fidelity(eps_z): at any
    # angles and noise the success state must be f psi+ + (1 - f) psi-
    rng = np.random.default_rng(1102)
    psi_plus = pure(bell_state(BellLabel.PSI_PLUS)).mat
    psi_minus = pure(bell_state(BellLabel.PSI_MINUS)).mat
    for _ in range(300):
        t1, t2 = rng.uniform(0.1, math.pi - 0.1, 2)
        eps_init, eps_z, eps_relax = rng.uniform(0.0, 0.3, 3)
        _, state = _success(generate_resource(t1, t2, NoiseParams(eps_init, eps_z, eps_relax)))
        f = fresh_pair_fidelity(eps_z)
        assert np.max(np.abs(state.mat - (f * psi_plus + (1.0 - f) * psi_minus))) < 1e-12


def test_success_probability_formula_100_random():
    rng = np.random.default_rng(45)
    for _ in range(100):
        t1, t2 = rng.uniform(0.0, math.pi, 2)
        p1, p2 = transit_weights(t1, t2)
        assert abs(_success(generate_resource(t1, t2))[0] - p1 * p2 / 2.0) < 1e-12


def test_optimal_point_success_half_with_psi_plus_output():
    prob, state = _success(generate_resource(OPT1, OPT2))
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert bell_fidelity(state, BellLabel.PSI_PLUS) == pytest.approx(1.0, abs=1e-10)


def test_success_branches_implement_odd_parity_projection():
    # the odd-class success leaf on arbitrary ancilla inputs is the
    # renormalized odd-parity projection, for any gate angles
    rng = np.random.default_rng(46)
    for _ in range(20):
        t1, t2 = rng.uniform(0.3, math.pi / 2.0, 2)
        rho = generate_resource(t1, t2)
        anc = random_density(2, rng)
        _, state = _leaf(parity_tree(rho, anc), ODD_SYNDROME)
        expected = PI_ODD @ anc.mat @ PI_ODD
        expected /= np.trace(expected)
        assert np.max(np.abs(state.mat - expected)) < 1e-10


def test_even_class_syndrome_carries_flip_correction():
    # the even-class leaf heralds the even-parity projection of |++>; the
    # success state pools it only after the bit flip on ancilla a1
    tree = parity_tree(generate_resource(OPT1, OPT2))
    _, state = _leaf(tree, EVEN_SYNDROME)
    assert bell_fidelity(state, BellLabel.PHI_PLUS) == pytest.approx(1.0, abs=1e-10)
    corrected = apply_unitary(state, PAULI_X, (0,))
    assert bell_fidelity(corrected, BellLabel.PSI_PLUS) == pytest.approx(1.0, abs=1e-10)
    _, pooled = parity_success_output(tree)
    assert bell_fidelity(pooled, BellLabel.PSI_PLUS) == pytest.approx(1.0, abs=1e-10)


def test_mismatched_outcomes_are_failures():
    # repeating the first outcome is always a failure leaf
    tree = parity_tree(generate_resource(OPT1, OPT2))
    assert _leaf(tree, ((0, 0), (0, 0))) is not None
    assert not tree.is_success((0, 0), (0, 0))
    # with a contaminated resource the parity-crossing leaf opens up and fails too
    noisy = parity_tree(generate_resource(OPT1, OPT2, NoiseParams(eps_init=0.2)))
    assert _leaf(noisy, ((0, 0), (0, 1))) is not None
    assert not noisy.is_success((0, 0), (0, 1))


def test_parity_mismatched_syndrome_unreachable_for_pure_resource():
    # a pure resource pins the ancilla parity in round one, so round two can
    # never report the crossing outcome; the tree keeps no such leaf
    tree = parity_tree(generate_resource(OPT1, OPT2))
    assert _leaf(tree, ((0, 0), (0, 1))) is None
    assert tree.truncated_mass < 1e-15  # only rounding is cut


def test_success_branch_map_is_idempotent():
    rng = np.random.default_rng(47)
    rho = generate_resource(0.9, 1.7)
    for _ in range(5):
        anc = random_density(2, rng)
        _, once = _leaf(parity_tree(rho, anc), ODD_SYNDROME)
        _, twice = _leaf(parity_tree(rho, once), ODD_SYNDROME)
        assert np.max(np.abs(twice.mat - once.mat)) < 1e-10


def test_imperfect_init_scales_success_not_fidelity():
    for eps in (0.05, 0.1, 0.2):
        prob, state = _success(generate_resource(OPT1, OPT2, NoiseParams(eps_init=eps)))
        assert abs(prob - 0.5 * (1.0 - eps) ** 2 * 1.0) < 1e-12
        assert abs(bell_fidelity(state, BellLabel.PSI_PLUS) - 1.0) < 1e-10


def test_dephasing_gives_exact_bell_mixture():
    eps_z = 0.089
    prob, state = _success(generate_resource(OPT1, OPT2, NoiseParams(eps_z=eps_z)))
    q = 2.0 * eps_z * (1.0 - eps_z)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert bell_fidelity(state, BellLabel.PSI_PLUS) == pytest.approx(1.0 - q, abs=1e-12)
    assert bell_fidelity(state, BellLabel.PSI_MINUS) == pytest.approx(q, abs=1e-12)
    # the full output is exactly the two-state mixture
    expected = (1.0 - q) * pure(bell_state(BellLabel.PSI_PLUS)).mat + q * pure(
        bell_state(BellLabel.PSI_MINUS)
    ).mat
    assert np.max(np.abs(state.mat - expected)) < 1e-12


def test_relaxation_decreases_success_probability_only():
    prev = 0.5
    for eps in (0.1, 0.3):
        prob, state = _success(generate_resource(OPT1, OPT2, NoiseParams(eps_relax=eps)))
        assert prob < prev - 1e-6
        assert abs(bell_fidelity(state, BellLabel.PSI_PLUS) - 1.0) < 1e-10
        prev = prob


def test_relaxed_success_matches_absolute_oracle():
    # relaxation only removes success mass: P = (1 - eps_relax) P1 P2 / 2 and the
    # pooled output is exactly psi+, which needs the X-on-a1 correction of the even leaf
    for eps, (t1, t2) in itertools.product(
        (0.1, 0.3, 0.9), ((OPT1, OPT2), (0.6, 1.3), (0.2, 2.9))
    ):
        prob, state = _success(generate_resource(t1, t2, NoiseParams(eps_relax=eps)))
        p1 = 2.0 * math.cos(t1) ** 2 * math.sin(t2) ** 2
        p2 = 2.0 * math.sin(t1) ** 2
        assert abs(prob - 0.5 * (1.0 - eps) * p1 * p2) < 1e-12
        assert abs(bell_fidelity(state, BellLabel.PSI_PLUS) - 1.0) < 1e-10


def test_degenerate_resource_never_succeeds():
    prob, state = _success(generate_resource(0.0, 0.0))
    assert prob == 0.0
    assert state is None


def test_parity_round_permutes_as_the_cnot_pair():
    # both CNOTs as one basis permutation give the joint state that conjugating
    # by them one at a time gives, entry by entry (signed zeros aside), so every
    # branch of the round is the same too
    rng = np.random.default_rng(36)
    for _ in range(20):
        ancillas, resource = random_density(2, rng), random_density(2, rng)
        joint = tensor_dm(ancillas, resource)
        perm = _CNOT_PAIR[:, None], _CNOT_PAIR
        reference = apply_unitary(apply_unitary(joint, CNOT_MAT, (0, 2)), CNOT_MAT, (1, 3))
        assert np.array_equal(joint.mat[perm], reference.mat)
        branches = measure(reference, (2, 3))
        for got, want in zip(_parity_round(ancillas, resource), branches, strict=True):
            assert got.probability == want.probability
            assert np.array_equal(got.state.mat, want.state.mat)


def _choice_success(tree, u):
    """Success of the draw ``Generator.choice(4, p)`` makes from each round's uniform in ``u``.

    Round k takes searchsorted(cdf / cdf[-1], u[k], side="right") on the
    cumulative Born weights cdf, with a cut branch weighing 0, as ``choice`` does.
    """
    i = _choice_draw(tree.first, u[0])
    return ParityTree.is_success(ROUND_OUTCOMES[i], ROUND_OUTCOMES[_choice_draw(tree.second[i], u[1])])


def _choice_draw(branches, u):
    cdf = np.cumsum(born_weights(branches))
    return int(np.searchsorted(cdf / cdf[-1], u, side="right"))


def test_sampled_projection_is_deterministic_per_seed():
    tree = parity_tree(generate_resource(OPT1, OPT2, NoiseParams(eps_z=0.05)))
    runs = [tree.sample_success(trial_uniforms(99, 200)).tolist() for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert 0 < sum(runs[0]) < 200


# a cut round-one leaf (draw vectors hold zeros), a noisy tree, and full dephasing
SAMPLED_TREES = {
    "cut": (3e-7, OPT2, NoiseParams()),
    "noisy": (0.3, 1.2, NoiseParams(eps_init=0.1, eps_z=0.05, eps_relax=0.2)),
    "eps_z=1": (OPT1, OPT2, NoiseParams(eps_z=1.0)),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_TREES))
def test_born_sample_matches_generator_choice(name):
    tree = parity_tree(generate_resource(*SAMPLED_TREES[name]))
    born1, born2 = born_weights(tree.first), [born_weights(b) if b else None for b in tree.second]
    keys = [(seed, t) for seed in (3, 2**64 - 1) for t in range(120)]
    reference = []
    for seed, t in keys:
        rng = trial_rng(seed, t)
        i = int(rng.choice(4, p=born1))
        j = int(rng.choice(4, p=born2[i]))
        reference.append(ParityTree.is_success(ROUND_OUTCOMES[i], ROUND_OUTCOMES[j]))
    single = [bool(tree.sample_success(trial_rng(s, t).random(2))) for s, t in keys]
    assert single == reference
    # a stack of uniforms draws every key at once
    for seed in (3, 2**64 - 1):
        expected = [drawn for (s, _), drawn in zip(keys, reference) if s == seed]
        assert tree.sample_success(trial_uniforms(seed, 120)).tolist() == expected


def test_success_interval_ends_are_half_open():
    # round-one outcome i succeeds when u[1] lies in [cdf2_i[c - 1], cdf2_i[c]),
    # c = 3 - i: put u[1] exactly on each end and one float inside or outside it
    tree = parity_tree(generate_resource(0.3, 1.2, NoiseParams(eps_init=0.1, eps_z=0.05, eps_relax=0.2)))
    cdf1 = np.concatenate(([0.0], _cdf(tree.first)))
    checked = 0
    for i, branches in enumerate(tree.second):
        cdf2 = np.concatenate(([0.0], _cdf(branches)))
        lo, hi = cdf2[3 - i], cdf2[4 - i]
        assert 0.0 < hi - lo < 1.0  # each success interval is a proper part of [0, 1)
        cases = [(lo, True), (np.nextafter(hi, 0.0), True)]
        if lo > 0.0:  # i < 3
            cases.append((np.nextafter(lo, 0.0), False))
        if hi < 1.0:  # i > 0; a uniform never reaches 1
            cases.append((hi, False))
        for u2, success in cases:
            u = np.array([cdf1[i], u2])  # round one draws i at the start of its interval
            assert _choice_success(tree, u) is success
            assert bool(tree.sample_success(u)) is success, (i, u2)
            checked += 1
    assert checked == 14


def _tree_with_cut_first_round():
    """A tree whose round-one outcomes 0 and 2 are cut, so its CDF is [0, 0.5, 0.5, 1]."""
    tiny = ZERO_PROBABILITY_ATOL / 2
    second = _branches((0.1, 0.2, 0.3, 0.4))
    return ParityTree(_branches((tiny, 0.5, tiny, 0.5), cut=(0, 2)), ((), second, (), second), 0.0)


@pytest.mark.parametrize("cut", [True, False])
def test_round_one_count_draw_at_the_cdf_entries(cut):
    # the count of CDF entries at most u[0] is searchsorted(side="right"), also
    # at ties: put u[0] on each entry (the cut tree repeats some), one float
    # below it and at 0.0, for a single row and for a stack of them
    tree = _tree_with_cut_first_round() if cut else parity_tree(generate_resource(*SAMPLED_TREES["noisy"]))
    cdf1 = _cdf(tree.first)
    assert (len(set(cdf1.tolist())) < 4) is cut
    u1 = np.unique(np.concatenate(([0.0], cdf1, np.nextafter(cdf1, 0.0))))
    u1 = u1[u1 < 1.0]  # a uniform never reaches 1
    rows = np.array([[a, b] for a in u1 for b in (0.0, 0.3, 0.7, np.nextafter(1.0, 0.0))])
    drawn = np.searchsorted(cdf1, rows[:, 0], side="right")
    assert set(drawn.tolist()) == {i for i, b in enumerate(tree.first) if b.state is not None}
    flags = [_choice_success(tree, u) for u in rows]
    for u, i, success in zip(rows, drawn.tolist(), flags):
        assert _choice_draw(tree.first, u[0]) == i
        assert bool(tree.sample_success(u)) is success, u
    assert tree.sample_success(rows).tolist() == flags
    assert tree.sample_success(rows.reshape(-1, 2, 2)).tolist() == np.reshape(flags, (-1, 2)).tolist()
    assert any(flags) and not all(flags)


def test_born_sample_refuses_rows_that_are_not_pairs():
    tree = parity_tree(generate_resource(0.3, 1.2, NoiseParams(eps_z=0.05)))
    # five uniforms were read as one row of their first two, and a third column ignored
    for u in (np.array([0.1, 0.2, 0.3, 0.4, 0.5]), np.full((4, 3), 0.25), np.float64(0.5)):
        with pytest.raises(ValueError, match=re.escape(f"uniforms must have shape (..., 2), got {u.shape}")):
            tree.sample_success(u)


def _branches(probs, cut=()):
    """One round of branches with these probabilities; the indices in ``cut`` are cut."""
    kept = DensityMatrix(np.eye(4) / 4)
    return tuple(MeasurementBranch(p, None if i in cut else kept) for i, p in enumerate(probs))


def test_born_sample_never_draws_a_cut_branch_at_a_zero_uniform():
    # trial_uniforms can return exactly 0.0; a cut branch keeps its probability
    # below the cut, as measure does, and the draw must skip it, as
    # Generator.choice does with a zero weight: round one draws outcome 1 and
    # round two, whose outcomes 0 and 1 are cut, draws the success outcome 2
    tiny = (ZERO_PROBABILITY_ATOL / 2, ZERO_PROBABILITY_ATOL / 4)
    first = _branches((tiny[0], 0.5, 0.5, tiny[1]), cut=(0, 3))
    second = _branches((tiny[0], tiny[1], 1.0, tiny[1]), cut=(0, 1, 3))
    tree = ParityTree(first=first, second=((), second, second, ()), truncated_mass=0.0)
    u = np.array([0.0, 0.0])
    assert _choice_success(tree, u) is True
    assert bool(tree.sample_success(u)) is True
    # outcome 2 gets the same round two, whose success outcome 1 is cut
    assert bool(tree.sample_success(np.array([0.5, 0.0]))) is False


def test_born_sample_rejects_bad_weights():
    tree = parity_tree(generate_resource(0.3, 1.2, NoiseParams(eps_z=0.05)))
    u = np.array([0.1, 0.7])
    for bad in ([np.nan, 0.5, 0.25, 0.25], [-0.25, 0.75, 0.25, 0.25], [np.inf, 0, 0, 0], [0.0] * 4):
        with pytest.raises(ValueError, match="Born weights"):
            dataclasses.replace(tree, first=_branches(bad)).sample_success(u)
        # every kept round two is checked, the drawn one and each one not drawn
        for i in range(4):
            second = tree.second[:i] + (_branches(bad),) + tree.second[i + 1 :]
            with pytest.raises(ValueError, match="Born weights"):
                dataclasses.replace(tree, second=second).sample_success(u)


def test_parity_rejects_wrong_sized_ancillas():
    rho = generate_resource(OPT1, OPT2)
    plus_plus = DensityMatrix(np.full((4, 4), 0.25, dtype=complex))
    stacked = DensityMatrix(np.stack([plus_plus.mat] * 2))
    for ancillas in (ket("u"), ket("udd"), stacked):
        with pytest.raises(ValueError, match="ancilla register must be one state of two qubits"):
            parity_tree(rho, ancillas)


# --- entanglement pumping ------------------------------------------------------


def _lattice_round(eps_z, k, max_rounds=60):
    """(fresh f, F_(k-1), F_k, F_(k+1), even probability at site k) on the walked lattice.

    The even probability is read from the ``_pump_lattice`` table that
    ``pump_until`` walks, at index k - 1 + max_rounds.
    """
    fresh = fresh_pair_fidelity(eps_z)
    p_even, _, _ = _pump_lattice(fresh, 0.9999, max_rounds)
    down, stored, up = _lattice_fidelity(np.array([k - 1, k, k + 1]), fresh).tolist()
    return fresh, down, stored, up, p_even[k - 1 + max_rounds]


def _random_sites(seed, n):
    """n draws of (eps_z in (0, 1/2), site k in [-40, 60])."""
    rng = np.random.default_rng(seed)
    return zip(rng.uniform(0.0, 0.5, n).tolist(), rng.integers(-40, 61, n).tolist())


def test_pump_even_update_arithmetic():
    f = 0.822
    expected = f * f / (f * f + (1.0 - f) ** 2)
    assert float(_lattice_fidelity(np.array(2), f)) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.9552, abs=1e-4)


def test_pump_recursion_matches_four_qubit_oracle():
    # the circuit's round on F_k moves the stored pair to the lattice sites the walk steps to
    for eps_z, k in _random_sites(48, 100):
        fresh, down, stored, up, p_even = _lattice_round(eps_z, k)
        oracle = pump_round_oracle(stored, fresh)
        assert abs(oracle["even"][0] - p_even) < 1e-12, (eps_z, k)
        assert abs(oracle["odd"][0] - (1.0 - p_even)) < 1e-12, (eps_z, k)
        assert abs(oracle["even"][1] - up) < 1e-12, (eps_z, k)
        assert abs(oracle["odd"][1] - down) < 1e-12, (eps_z, k)


def test_pump_walk_uses_upward_biased_steps():
    # the update is a Bayesian posterior, so the expected posterior fidelity
    # equals the prior exactly; the upward bias lives in the step
    # probabilities: above fidelity 1/2 (sites k >= 1) most rounds move up
    for eps_z, k in _random_sites(49, 200):
        _, down, stored, up, p_even = _lattice_round(eps_z, k)
        assert abs(p_even * up + (1.0 - p_even) * down - stored) < 1e-12, (eps_z, k)
        # an odd round is a setback and an even one a gain, short of saturating at 1
        assert down < stored or stored == 1.0, (eps_z, k)
        assert stored < up or up == 1.0, (eps_z, k)
        if k >= 1:
            assert p_even > 0.5, (eps_z, k)


def test_forced_even_sequence_is_monotone():
    fresh = fresh_pair_fidelity(0.089)
    fid = _lattice_fidelity(np.arange(1, 14), fresh)
    assert fid[0] == fresh
    assert np.all(np.diff(fid) >= 0.0)
    assert fid[-1] > 1.0 - 1e-6


def test_pump_until_converges_at_round_zero_without_noise():
    traj = pump_until(0.0, 1.0 - 1e-4, 100, trial_rng(1, 0))
    assert traj.converged
    assert len(traj.syndromes) == 0


def _walk_sites(syndromes):
    """Lattice site of the stored pair before round 1 (the fresh pair, site 1) and after each round."""
    steps = np.frombuffer(syndromes, dtype=np.uint8).astype(np.int64) * 2 - 1
    return np.concatenate(([1], 1 + np.cumsum(steps)))


def test_pump_until_trajectory_structure():
    traj = pump_until(0.089, 1.0 - 1e-4, 200, trial_rng(7, 0))
    fid = _lattice_fidelity(_walk_sites(traj.syndromes), fresh_pair_fidelity(0.089))
    assert set(traj.syndromes) <= {0, 1}
    assert len(fid) == len(traj.syndromes) + 1
    assert fid[0] == pytest.approx(fresh_pair_fidelity(0.089))
    if traj.converged:
        assert fid[-1] >= 1.0 - 1e-4
    # same seed reruns identically
    assert pump_until(0.089, 1.0 - 1e-4, 200, trial_rng(7, 0)) == traj


def test_pump_until_marks_nonconvergence():
    traj = pump_until(0.4, 1.0 - 1e-9, 3, trial_rng(2, 0))
    assert not traj.converged
    assert len(traj.syndromes) == 3


def test_pump_until_input_checks_and_edge_walks():
    # each refusal also follows a valid, cached call: an equal value of
    # another type (30 then 30.0) or an unhashable one is still checked
    bad_calls = [((eps_z, 0.9, 10), "fresh fidelity must lie in [0, 1], got ")
                 for eps_z in (-0.1, 1.5, math.nan)]
    bad_calls += [((0.089, 1.0, 10), "target fidelity must lie in [0, 1), got 1.0"),
                  ((0.089, 0.9, -1), "max_rounds cannot be negative")]
    bad_calls += [((0.089, 0.9999, bad), f"max_rounds must be an integer, got {bad!r}")
                  for bad in (20.5, 2.5, 30.0, np.float64(30.0), "10", None, [30])]
    for args, message in bad_calls:
        for valid in (None, (0.089, 0.9999, 30), (0.089, 0.9, 10)):
            if valid is not None:
                pump_until(*valid, trial_rng(0, 0))
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                pump_until(*args, trial_rng(0, 0))
    # one cache of at most four tables; the table builder keeps none
    assert _walk_constants.cache_info().maxsize == 4
    assert not hasattr(_pump_lattice, "cache_info")
    _walk_constants.cache_clear()
    numpy_int = pump_until(0.089, 0.9999, np.int64(30), trial_rng(4, 0))
    assert numpy_int == pump_until(0.089, 0.9999, 30, trial_rng(4, 0))
    assert _walk_constants.cache_info().misses == 1  # one table for 30 of either type
    idle = pump_until(0.089, 0.9999, 0, trial_rng(0, 0))
    assert not idle.converged and idle.syndromes == b""
    # r = 1: every syndrome leaves the stored fidelity at 1/2
    flat = pump_until(0.5, 0.9, 50, trial_rng(3, 0))
    assert not flat.converged and len(flat.syndromes) == 50
    assert set(_lattice_fidelity(_walk_sites(flat.syndromes), 0.5).tolist()) == {0.5}


def test_pump_lattice_floor_is_the_first_entry_that_differs():
    # eps_z = 0.16108020050125313 at 1000 rounds is not monotone in the last
    # bit: entry 961 differs from entry 0, but bisection for entry 0 gives 963
    flat = bisect_wrong = 0
    sweep = [*np.linspace(0.001, 0.5, 60).tolist(), 0.16108020050125313]
    for eps_z, max_rounds in itertools.product(sweep, (10, 100, 1000, 5000)):
        p_even, _, floor = _pump_lattice(fresh_pair_fidelity(eps_z), 0.9999, max_rounds)
        assert len(p_even) == 2 * max_rounds + 1
        assert all(p == p_even[0] for p in p_even[:floor]), (eps_z, max_rounds)
        assert floor == len(p_even) or p_even[floor] != p_even[0], (eps_z, max_rounds)
        flat += floor == len(p_even)
        bisect_wrong += int(np.searchsorted(p_even, p_even[0], side="right")) != floor
    assert flat == 4  # eps_z = 0.5: every entry is 1/2
    assert bisect_wrong > 0


# sha256 over every walk of (8-byte little-endian round count, syndromes,
# converged byte), recorded with the one-round-at-a-time walk
PINNED_WALKS = [
    # 19 climbs out of the floor
    ((0.089, 0.9999, 1000), 90210, 300,
     "5d72cbb7848ae7ae6f073e698c4db984c181eb5726d43ab201a1162fba158312"),
    # 253 climbs out of the floor
    ((0.3, 0.99, 5000), 1, 200,
     "ec54f7e1c77aa824cc2cd43ac29a0b244c670201d077130e626189ca1f6669ac"),
    # r = 1: the floor covers the whole table
    ((0.5, 0.9, 50), 3, 20,
     "910a70a88a8f29f84c881f1638c610da18609c19a9e036cee0236dcf8066cd80"),
    # the table is flat past the target site (floor 201, target index 102):
    # 164 walks still stop at the target
    ((0.5 - 1e-7, 0.50000000000006, 100), 11, 200,
     "a76fd85d3c3a7d5b1550a8b73100ed5ec30a13631552e5d0640f19ff6e8e19cc"),
    ((0.089, 0.9999, 1), 5, 50,
     "7a0525b320590d8e3505fadea992e57b0deaa0917df6491e842d7eb19575e4a9"),
    ((0.089, 0.9999, 16), 5, 50,
     "97e10b3ef7803fe9ae191e8b60563c771d0aa606f0b1627bc01d2c0ff51ca2dd"),
    ((0.089, 0.9999, 17), 5, 50,
     "90b5fc4afadac412a6556a245014954cd896a2f2a832e3c4cb759d430852817d"),
    # batch 0 of the perfbench pump workload: its CLI seed is the first 8
    # bytes of sha256("20110215:0"), big-endian
    ((0.089, 0.9999, 1000), 2839454157275074957, 2500,
     "d352ffde49f713813eb3656001998a38dfa5b824ee99b3bd0cd321eeb2c1c3f8"),
]


def test_pump_until_syndromes_are_pinned():
    climbed_and_fell = 0
    for (eps_z, target, max_rounds), seed, trials, pinned in PINNED_WALKS:
        _, _, floor = _pump_lattice(fresh_pair_fidelity(eps_z), target, max_rounds)
        digest = hashlib.sha256()
        for t, stream in enumerate(trial_streams(seed, trials)):
            traj = pump_until(eps_z, target, max_rounds, stream)
            assert (traj.syndromes, traj.converged) == scalar_walk(
                eps_z, target, max_rounds, trial_rng(seed, t)
            ), (eps_z, max_rounds, seed, t)
            digest.update(len(traj.syndromes).to_bytes(8, "little"))
            digest.update(traj.syndromes + bytes([traj.converged]))
            steps = np.frombuffer(traj.syndromes, dtype=np.uint8).astype(np.int64) * 2 - 1
            below = np.concatenate(([max_rounds], max_rounds + np.cumsum(steps))) < floor
            climbs = np.flatnonzero(below[:-1] & ~below[1:])
            falls = np.flatnonzero(~below[:-1] & below[1:])
            climbed_and_fell += bool(climbs.size and falls.size and falls[-1] > climbs[0])
        assert digest.hexdigest() == pinned, (eps_z, target, max_rounds, seed)
    assert climbed_and_fell > 0


class _ScriptedUniforms:
    """Stands in for a generator: ``random(size)`` serves the next ``size`` entries of a script."""

    def __init__(self, uniforms):
        self.uniforms, self.read = np.array(uniforms, dtype=float), 0

    def random(self, size):
        self.read += size
        assert self.read <= len(self.uniforms), "the walk read past its script"
        return self.uniforms[self.read - size : self.read]


@pytest.mark.parametrize("max_rounds", [1000, 2000])
@pytest.mark.parametrize("case", ["first uniform of a pass", "last uniform of a block",
                                  "below the floor at a block end"])
def test_bulk_pass_edges_follow_the_scalar_walk(case, max_rounds):
    # at eps_z 0.089 the floor is 24 sites below the fresh pair and the
    # target 5 above it, so 25 odd rounds step below the floor; the walk
    # reads a first block of 16 uniforms, then one of ``block``
    eps_z, target = 0.089, 0.9999
    _, stop, floor = _pump_lattice(fresh_pair_fidelity(eps_z), target, max_rounds)
    assert (floor, stop) == (max_rounds - 24, max_rounds + 5)
    block = min(_BLOCK, max_rounds - _FIRST_BLOCK)
    end = _FIRST_BLOCK + block  # rounds read by the end of the second block
    steps = [-1] * 25
    if case == "first uniform of a pass":
        steps += [1] * 30
        back = 26
    elif case == "last uniform of a block":
        steps += [-1] + [1, -1] * ((end - 28) // 2) + [1, 1] + [1] * 29
        back = end
    else:
        steps += [-1, 1] * ((end - 26) // 2) + [-1] + [1] * 31
        back = end + 2
    steps = steps[:max_rounds]
    uniforms = [0.0 if step > 0 else 0.999 for step in steps]
    uniforms += [0.999] * (max_rounds - len(uniforms))
    traj = pump_until(eps_z, target, max_rounds, _ScriptedUniforms(uniforms))
    assert (traj.syndromes, traj.converged) == scalar_walk(
        eps_z, target, max_rounds, _ScriptedUniforms(uniforms)
    )
    # table index of the stored pair after each round; below the floor from round 25 on
    sites = max_rounds - 1 + _walk_sites(traj.syndromes)
    assert traj.syndromes == bytes(step > 0 for step in steps[: len(traj.syndromes)])
    assert (sites[25 : min(back, len(sites))] < floor).all()
    if back <= max_rounds:
        assert sites[back] == floor
    assert traj.converged == (back + 29 <= max_rounds)


def test_pump_records_follow_the_four_qubit_oracle():
    # every round of the syndrome record is the circuit's round on the
    # lattice fidelity of the site before it, with the even probability the
    # walk read from its table, also deep below F = 1/2 where the lattice
    # fidelity saturates at 0
    eps_z, target, max_rounds = 0.089, 1.0 - 1e-4, 1000
    fresh = fresh_pair_fidelity(eps_z)
    p_even, _, _ = _pump_lattice(fresh, target, max_rounds)
    oracle, kinds = {}, set()
    for t in range(20):
        traj = pump_until(eps_z, target, max_rounds, trial_rng(777, t))
        kinds.add(traj.converged)
        sites = _walk_sites(traj.syndromes)
        fid = _lattice_fidelity(sites, fresh).tolist()
        assert fid[0] == fresh
        for site, prev, after, even in zip(sites.tolist(), fid, fid[1:], traj.syndromes):
            if site not in oracle:
                oracle[site] = pump_round_oracle(prev, fresh)
                assert abs(oracle[site]["even"][0] - p_even[site - 1 + max_rounds]) < 1e-12
            syndrome = "even" if even else "odd"
            assert abs(after - oracle[site][syndrome][1]) < 1e-12, (t, site, syndrome)
        assert (fid[-1] >= target) == traj.converged
    assert kinds == {True, False}
    assert min(oracle) < -432  # exp(-k ln r) overflows there: F_k saturates at 0


def test_pumped_records_start_at_the_fresh_fidelity_bit_for_bit():
    # the walk's first site is read from the lattice at site 1; at these
    # eps_z the rounded 1 / (1 + r^-1) misses fresh in the last bit
    for eps_z, rounded in ((0.1, 0.8200000000000001), (0.05, 0.9049999999999999)):
        fresh = fresh_pair_fidelity(eps_z)
        r = fresh / (1.0 - fresh)
        assert 1.0 / (1.0 + math.exp(-math.log(r))) == rounded != fresh
        traj = pump_until(eps_z, 0.9999, 1000, trial_rng(17, 0))
        assert len(traj.syndromes) >= 1
        assert _lattice_fidelity(_walk_sites(traj.syndromes), fresh)[0] == fresh


def test_pump_until_matches_exact_chain():
    eps_z, target, max_rounds, n = 0.089, 1.0 - 1e-4, 1000, 10_000
    exact = pump_exact(eps_z, target, max_rounds)
    assert exact["k_target"] == 6
    assert abs(exact["hitting"].sum() + exact["p_not_converged"] - 1.0) < 1e-12
    assert exact["p_not_converged"] == pytest.approx(0.1621140, abs=1e-7)
    assert exact["mean_rounds"] == pytest.approx(7.399909, abs=1e-6)
    rounds = []
    for t in range(n):
        traj = pump_until(eps_z, target, max_rounds, trial_rng(90210, t))
        if traj.converged:
            rounds.append(len(traj.syndromes))
        else:
            assert len(traj.syndromes) == max_rounds
    p = exact["p_not_converged"]
    z_unconverged = ((n - len(rounds)) / n - p) / math.sqrt(p * (1.0 - p) / n)
    z_mean = (statistics.fmean(rounds) - exact["mean_rounds"]) / math.sqrt(
        exact["var_rounds"] / len(rounds)
    )
    assert abs(z_unconverged) < 5.0
    assert abs(z_mean) < 5.0


# --- chain transit ---------------------------------------------------------------


def test_chain_of_two_matches_generate_resource():
    res = chain_report(2, 0, OPT1, OPT2).resource
    base = generate_resource(OPT1, OPT2)
    assert np.max(np.abs(res.mat - base.mat)) < 1e-12


def test_chain_reduced_state_independent_of_length_and_position():
    t1, t2 = 0.8, 2.0
    base = generate_resource(t1, t2)
    for n in (2, 3, 4, 5):
        for i in range(n - 1):
            res = chain_report(n, i, t1, t2).resource
            assert np.max(np.abs(res.mat - base.mat)) < 1e-12
            # the angles lie in [0, 2 pi), so the chain's mod-2pi gate angles are the raw ones
            chain_weights = transit_weights(_gate_angle(t1), _gate_angle(t2))
            assert all(map(_same_bits, chain_weights, transit_weights(t1, t2)))


def test_chain_spectators_stay_pure():
    rep = chain_report(4, 1, OPT1, OPT2)
    assert [idx for idx, _ in rep.spectator_purities] == [0, 3]
    for _, purity in rep.spectator_purities:
        assert purity == pytest.approx(1.0, abs=1e-12)
    assert bell_fidelity(corrected_rho(rep.resource, OPT2), BellLabel.PSI_PLUS) == pytest.approx(
        1.0, abs=1e-10
    )


def test_chain_magnetization_conserved_for_random_angles():
    rng = np.random.default_rng(50)
    for _ in range(20):
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        pair = int(rng.integers(0, 4))
        rep = chain_report(5, pair, t1, t2)
        # flying qubit and three spectators up, the target pair down
        assert rep.magnetization_before == 2.0
        assert abs(rep.magnetization_after - rep.magnetization_before) < 1e-12


def test_chain_config_validation():
    with pytest.raises(ValueError, match="chain size"):
        chain_report(6, 0, 0.3, 0.3)
    with pytest.raises(ValueError, match="target pair"):
        chain_report(3, 2, 0.3, 0.3)
