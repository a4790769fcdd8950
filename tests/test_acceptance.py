"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import statistics
import time

import numpy as np

from flyspin.channels import NoiseParams
from flyspin.cli import main as cli_main
from flyspin.metrics import BellLabel, bell_fidelity, concurrence, success_stats
from flyspin.protocol import (
    chain_report,
    corrected_rho,
    fresh_pair_fidelity,
    generate_resource,
    parity_success_output,
    parity_tree,
    pump_until,
    transit_weights,
    _lattice_fidelity,
    _pump_lattice,
)
from flyspin.qcore import PAULI_Z
from flyspin.rng import trial_rng, trial_uniforms
from flyspin.scattering import FullScatterParams, full_scatter, herald_transmission
from flyspin.qcore import ket

from helpers import pump_round_oracle

OPT1, OPT2 = math.pi / 4.0, math.pi / 2.0


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_perfect_bell_point():
    start = time.perf_counter()
    res = generate_resource(OPT1, OPT2)
    c = concurrence(res)
    fid = bell_fidelity(corrected_rho(res, OPT2), BellLabel.PSI_PLUS)
    elapsed = time.perf_counter() - start
    assert abs(c - 1.0) < 1e-10
    assert abs(fid - 1.0) < 1e-10
    assert elapsed < 1.0
    _report(1, f"concurrence {c:.12f}, corrected Bell fidelity {fid:.12f} in {elapsed:.3f}s")


def test_criterion_02_concurrence_surface():
    start = time.perf_counter()
    grid = np.linspace(0.0, math.pi, 41)
    worst = 0.0
    surface = {}
    for t1 in grid:
        for t2 in grid:
            res = generate_resource(t1, t2)
            p1, p2 = transit_weights(t1, t2)
            c = concurrence(res)
            surface[(t1, t2)] = c
            worst = max(worst, abs(c - math.sqrt(p1 * p2)))
    assert worst < 1e-10
    top = max(surface.values())
    at_optimum = surface[(grid[10], grid[20])]  # (pi/4, pi/2)
    assert abs(at_optimum - 1.0) < 1e-10
    assert at_optimum >= top - 1e-10
    for t in grid:  # vanishing lines of the surface
        assert surface[(0.0, t)] < 1e-10
        assert surface[(grid[20], t)] < 1e-10  # theta1 = pi/2
        assert surface[(t, 0.0)] < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"41x41 grid max |C - sqrt(P1 P2)| = {worst:.2e} in {elapsed:.1f}s")


def test_criterion_03_heralded_transmission():
    params = FullScatterParams(t_s=1.0, r_s=0.0, t_t=0.0, r_t=1.0)
    prob, conditional = herald_transmission(full_scatter(ket("ud"), params))
    assert abs(prob - 0.5) < 1e-12
    fid = bell_fidelity(conditional, BellLabel.PSI_MINUS)
    assert abs(fid - 1.0) < 1e-10
    _report(3, f"herald probability {prob:.15f}, conditional Bell fidelity {fid:.12f}")


def test_criterion_04_parity_projection_success_probability():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        t1, t2 = rng.uniform(0.0, math.pi, 2)
        res = generate_resource(t1, t2)
        p1, p2 = transit_weights(t1, t2)
        worst = max(worst, abs(parity_success_output(parity_tree(res))[0] - p1 * p2 / 2.0))
    assert worst < 1e-12
    res = generate_resource(OPT1, OPT2)
    exact = parity_success_output(parity_tree(res))[0]
    assert abs(exact - 0.5) < 1e-12
    # Born-sampled estimate from per-trial streams
    flags = parity_tree(res).sample_success(trial_uniforms(314159, 10_000))
    estimate, se = success_stats(flags)
    assert abs(estimate - exact) <= 3.0 * se
    _report(4, f"max |Ps - P1P2/2| = {worst:.2e}; MC {estimate:.4f} vs exact 0.5 (se {se:.4f})")


def test_criterion_05_imperfect_initialization():
    checks = []
    for eps in (0.05, 0.1, 0.2):
        for t1, t2 in ((OPT1, OPT2), (0.6, 1.3)):
            res = generate_resource(t1, t2, NoiseParams(eps_init=eps))
            p1, p2 = transit_weights(t1, t2)
            prob, state = parity_success_output(parity_tree(res))
            expected = 0.5 * (1.0 - eps) ** 2 * p1 * p2
            assert abs(prob - expected) < 1e-12
            fid = bell_fidelity(state, BellLabel.PSI_PLUS)
            assert abs(fid - 1.0) < 1e-10
            checks.append(prob)
    _report(5, f"success probabilities {', '.join(f'{p:.6f}' for p in checks[:3])} ... fidelity 1")


def test_criterion_06_dephasing_closed_form():
    rng = np.random.default_rng(2025)
    z1 = np.kron(PAULI_Z, np.eye(2))
    worst = 0.0
    for _ in range(100):
        t1, t2 = rng.uniform(0.0, math.pi, 2)
        eps_z = float(rng.uniform(0.0, 1.0))
        clean = generate_resource(t1, t2).mat
        expected = (1.0 - eps_z) * clean + eps_z * z1 @ clean @ z1
        sim = generate_resource(t1, t2, NoiseParams(eps_z=eps_z)).mat
        worst = max(worst, float(np.max(np.abs(sim - expected))))
    assert worst < 1e-12
    eps_z = 0.089
    _, state = parity_success_output(parity_tree(generate_resource(OPT1, OPT2, NoiseParams(eps_z=eps_z))))
    fid = bell_fidelity(state, BellLabel.PSI_PLUS)
    exact = 1.0 - 2.0 * eps_z * (1.0 - eps_z)
    assert abs(fid - exact) < 1e-12
    assert abs(exact - (1.0 - 2.0 * eps_z)) <= 2.0 * eps_z**2 + 1e-15
    _report(6, f"max closed-form deviation {worst:.2e}; ancilla fidelity {fid:.6f} (= {exact:.6f})")


def test_criterion_07_pumping_convergence():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    max_rounds = 60
    worst = 0.0
    for eps_z, k in zip(rng.uniform(0.0, 0.5, 100).tolist(), rng.integers(-40, 61, 100).tolist()):
        # site k of the lattice pump_until walks, with its even probability from the walked table
        fresh = fresh_pair_fidelity(eps_z)
        p_even = _pump_lattice(fresh, 0.9999, max_rounds)[0][k - 1 + max_rounds]
        down, stored, up = _lattice_fidelity(np.array([k - 1, k, k + 1]), fresh).tolist()
        oracle = pump_round_oracle(stored, fresh)
        worst = max(
            worst,
            abs(oracle["even"][0] - p_even),
            abs(oracle["odd"][0] - (1.0 - p_even)),
            abs(oracle["even"][1] - up),
            abs(oracle["odd"][1] - down),
        )
    assert worst < 1e-12
    rounds = []
    non_converged = 0
    for t in range(10_000):
        traj = pump_until(0.089, 1.0 - 1e-4, 1000, trial_rng(90210, t))
        if traj.converged:
            rounds.append(len(traj.syndromes))
        else:
            non_converged += 1
    mean_rounds = statistics.fmean(rounds)
    assert 6.0 <= mean_rounds <= 14.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        7,
        f"oracle deviation {worst:.2e}; mean rounds {mean_rounds:.2f} "
        f"(mean pairs {mean_rounds + 1.0:.2f}, {non_converged} of 10000 walks not converged) "
        f"in {elapsed:.1f}s",
    )


def test_criterion_08_chain_independence():
    t1, t2 = 0.7, 1.9
    base = generate_resource(t1, t2).mat
    worst_state = 0.0
    for n in (2, 3, 4, 5):
        rep = chain_report(n, 0, t1, t2)
        worst_state = max(worst_state, float(np.max(np.abs(rep.resource.mat - base))))
        for _, purity in rep.spectator_purities:
            assert abs(purity - 1.0) < 1e-12
        assert abs(rep.magnetization_after - rep.magnetization_before) < 1e-12
    assert worst_state < 1e-12
    _report(8, f"target-pair state deviation across n in 2..5: {worst_state:.2e}")


def test_criterion_09_relaxation_property():
    base_prob, base_state = parity_success_output(parity_tree(generate_resource(OPT1, OPT2)))
    base_fid = bell_fidelity(base_state, BellLabel.PSI_PLUS)
    last = base_prob
    probs = []
    for eps in (0.1, 0.3):
        res = generate_resource(OPT1, OPT2, NoiseParams(eps_relax=eps))
        prob, state = parity_success_output(parity_tree(res))
        fid = bell_fidelity(state, BellLabel.PSI_PLUS)
        assert prob < last - 1e-9
        assert abs(fid - base_fid) < 1e-10
        probs.append(prob)
        last = prob
    _report(9, f"success probability 0.5 -> {probs[0]:.3f} -> {probs[1]:.3f}, fidelity unchanged")


def test_criterion_10_seeded_determinism(tmp_path):
    def run_and_read(args, out):
        code = cli_main(args + ["--out", str(out)])
        assert code == 0
        return out.read_bytes() + (out.parent / (out.name + ".config")).read_bytes()

    pump_args = ["pump-sim", "--eps-z", "0.089", "--trials", "60", "--seed", "31337",
                 "--max-rounds", "80"]
    eo_args = ["eo-run", "--eps-z", "0.05", "--trials", "500", "--seed", "271828"]
    for args, name in ((pump_args, "pump.csv"), (eo_args, "eo.csv")):
        out = tmp_path / name
        first = run_and_read(args, out)
        second = run_and_read(args, out)
        assert first == second
    _report(10, "pump-sim and eo-run reruns are byte identical")
