import hashlib
import importlib
import importlib.util
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import flyspin
from flyspin.cli import _MAX_ROUNDS, _MAX_STEPS, _MAX_TRIALS, _TRIAL_B, _resolve, main
from flyspin.metrics import concurrence
from flyspin.protocol import generate_resource
from flyspin.qcore import DensityMatrix

from helpers import closed_form_concurrence


def run(*argv):
    return main(list(argv))


def read(path):
    return path.read_text()


def test_sweep_contains_expected_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("sweep-concurrence", "--theta1", "0:0.5:3", "--theta2", "0:0.5:3",
               "--out", str(out)) == 0
    lines = read(out).strip().splitlines()
    assert lines[0] == "theta1,theta2,concurrence,p1,p2,herald_prob"
    assert len(lines) == 1 + 9
    rows = {}
    for line in lines[1:]:
        t1, t2, c, p1, p2, herald = (float(x) for x in line.split(","))
        rows[(round(t1, 12), round(t2, 12))] = (c, p1, p2, herald)
    opt = rows[(round(math.pi / 4, 12), round(math.pi / 2, 12))]
    assert opt[0] == pytest.approx(1.0, abs=1e-10)
    zero = rows[(0.0, 0.0)]
    assert zero[0] == pytest.approx(0.0, abs=1e-10)
    # theta1-major, theta2-minor ordering
    t1_col = [float(line.split(",")[0]) for line in lines[1:]]
    t2_col = [float(line.split(",")[1]) for line in lines[1:]]
    assert t1_col == sorted(t1_col)
    assert t2_col[:3] == sorted(t2_col[:3]) and t1_col[0] == t1_col[2]


def test_sweep_grid_hits_derived_point(tmp_path):
    # steps of pi/6 include the (pi/6, pi/3) point with concurrence 3/4
    out = tmp_path / "sweep6.csv"
    assert run("sweep-concurrence", "--theta1", "0:1:7", "--theta2", "0:1:7",
               "--out", str(out)) == 0
    for line in read(out).strip().splitlines()[1:]:
        t1, t2, c, *_ = (float(x) for x in line.split(","))
        if abs(t1 - math.pi / 6) < 1e-9 and abs(t2 - math.pi / 3) < 1e-9:
            assert c == pytest.approx(0.75, abs=1e-10)
            break
    else:
        raise AssertionError("grid point (pi/6, pi/3) missing")


def test_sweep_reread_recomputes_concurrence(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("sweep-concurrence", "--theta1", "0.1:0.9:4", "--theta2", "0.1:0.9:4",
               "--out", str(out)) == 0
    for line in read(out).strip().splitlines()[1:]:
        t1, t2, c, *_ = (float(x) for x in line.split(","))
        assert abs(concurrence(generate_resource(t1, t2)) - c) < 1e-10


def test_sweep_noise_boundaries_match_closed_form(tmp_path):
    # each eps at exactly 0 and at 1, in every combination
    out = tmp_path / "sweep.csv"
    for eps_init, eps_z, eps_relax in itertools.product((0.0, 1.0), repeat=3):
        assert run("sweep-concurrence", "--theta1", "0.1:0.4:3", "--theta2", "0.2:0.8:3",
                   "--eps-init", str(eps_init), "--eps-z", str(eps_z),
                   "--eps-relax", str(eps_relax), "--out", str(out)) == 0
        lines = read(out).strip().splitlines()[1:]
        assert len(lines) == 9
        for line in lines:
            t1, t2, c, *_ = (float(x) for x in line.split(","))
            assert abs(c - closed_form_concurrence(t1, t2, eps_init, eps_z, eps_relax)) < 1e-12


def test_main_twice_in_one_process_matches_fresh_processes(tmp_path, capsys):
    # two runs in one process must not share state: no value of the eo-run
    # leaks into the chain-demo, which must match a fresh interpreter's run
    commands = [
        ["eo-run", "--eps-z", "0.089", "--trials", "50", "--seed", "9", "--out", "eo.csv"],
        ["chain-demo", "--chain-size", "3", "--target-pair", "1", "--out", "chain.txt"],
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    src = str(Path(flyspin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys; from flyspin.cli import main; sys.exit(main(sys.argv[1:]))"
    outputs = {}
    for argv in commands:
        out = argv[-1]
        assert run(*argv[:-1], str(here / out)) == 0
        proc = subprocess.run([sys.executable, "-c", code, *argv[:-1], str(fresh / out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs[out] = (capsys.readouterr().out, proc.stdout)
    for out, (stdout_here, stdout_fresh) in outputs.items():
        assert stdout_here.replace(str(here), str(fresh)) == stdout_fresh
        for name in (out, out + ".config"):
            assert read(here / name).replace(str(here), str(fresh)) == read(fresh / name)


def test_eigvalsh_counts_repeat_across_runs_in_one_process(tmp_path, monkeypatch):
    # a span tracer replaces np.linalg.eigvalsh and the DensityMatrix
    # constructor at run time and requires each run of one input to repeat
    # its counts; a name bound at import time or a cache kept across runs breaks that
    calls = {"eigvalsh": 0, "density_matrix": 0}
    eigvalsh, init = np.linalg.eigvalsh, DensityMatrix.__init__

    def counted_eigvalsh(*args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counted_init(self, mat):
        calls["density_matrix"] += 1
        init(self, mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(DensityMatrix, "__init__", counted_init)
    rho = DensityMatrix(np.eye(4) / 4.0)
    assert calls == {"eigvalsh": 1, "density_matrix": 1}
    concurrence(rho)
    assert calls == {"eigvalsh": 2, "density_matrix": 1}

    def repeated_counts(*argv):
        counts = []
        for _ in range(2):
            before = dict(calls)
            assert run(*argv) == 0
            counts.append({key: calls[key] - before[key] for key in calls})
        assert counts[0] == counts[1]
        return counts[0]

    # 6 states shared by every row (init, gate 1, noise), then per row one
    # state of its own, gate 2 and the trace; each validation runs one eigvalsh
    # and each row's concurrence one more
    sweep = ["sweep-concurrence", "--theta1", "0:1:5", "--theta2", "0:1:4", "--eps-init", "0.01",
             "--eps-z", "0.089", "--eps-relax", "0.02", "--out", str(tmp_path / "s.csv")]
    assert repeated_counts(*sweep) == {"density_matrix": 6 + 3 * 5, "eigvalsh": 6 + 4 * 5}
    # 6-qubit chain states are checked on their support block, still with
    # one eigvalsh per validation, and one more for the target concurrence
    chain = ["chain-demo", "--chain-size", "5", "--target-pair", "2", "--theta1", "0.25",
             "--theta2", "0.5", "--out", str(tmp_path / "c.csv")]
    counts = repeated_counts(*chain)
    assert counts["eigvalsh"] == counts["density_matrix"] + 1
    # 8 states for the resource, the |++> ancillas, per round of the parity
    # gadget one stack each for tensor_dm, the CNOT permutation and measure's
    # branch states, and the pooled success state; one more eigvalsh for the
    # resource concurrence
    eo = ["eo-run", "--theta1", "0.25", "--theta2", "0.5", "--eps-z", "0.089", "--trials", "1000",
          "--seed", "3", "--out", str(tmp_path / "e.csv")]
    assert repeated_counts(*eo) == {"density_matrix": 8 + 1 + 2 * 3 + 1, "eigvalsh": 17}


def test_seeded_commands_are_byte_identical(tmp_path):
    out = tmp_path / "pump.csv"
    texts = []
    for _ in range(2):
        assert run("pump-sim", "--eps-z", "0.089", "--trials", "40", "--seed", "777",
                   "--max-rounds", "60", "--out", str(out)) == 0
        texts.append(read(out) + read(tmp_path / "pump.csv.config"))
    assert texts[0] == texts[1]


def test_seeded_outputs_match_pinned_values(tmp_path, capsys):
    # outputs recorded from an earlier version; a mismatch means seeded runs drifted
    out = tmp_path / "pump.csv"
    assert run("pump-sim", "--eps-z", "0.089", "--trials", "200", "--seed", "777",
               "--max-rounds", "200", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "e4b4ce72d1902643e6f7d1759721bc4a2f40ad336ad546bc0dc6cd5dc82c400e"
    )
    assert sum(line.endswith(",0") for line in read(out).splitlines()) == 28
    # 1000 rounds reach the sites where the float recursion underflowed to an
    # absorbing F = 0; all 44 unconverged walks ended there in that version
    assert run("pump-sim", "--eps-z", "0.089", "--trials", "300", "--seed", "777",
               "--max-rounds", "1000", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ec82d04652f29d69958473b1a21dcd5d4fd7990c6d8bdefb8dc8df591783ffd4"
    )
    assert sum(line.endswith(",0") for line in read(out).splitlines()) == 44
    out = tmp_path / "eo.csv"
    assert run("eo-run", "--eps-z", "0.089", "--trials", "2000", "--seed", "42",
               "--out", str(out)) == 0
    values = dict(line.split(",") for line in read(out).strip().splitlines()[1:])
    assert values["success_prob_mc"] == "0.51549999999999996"
    # theta1 = 3e-7 rad: leaves fall below the probability cut, so the draw vectors hold zeros
    assert run("eo-run", "--theta1", "9.5492965855137e-08", "--theta2", "0.5", "--trials", "2000",
               "--seed", "5", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "2262beb3d7ed81867fce4f2c71d79d3a4503b16d34753a9ace9618830cb37b0b"
    )
    # every noise channel on: the conditioned fidelities depend on the last bit of each branch
    # state (the first case on its memory order, the second on how its probability is summed)
    for t1, t2, trials, digest in (
        ("0.3", "0.7", "20000", "3ca2ab656bc95e851052ef960eea3274197efde3e79c10cda417a48e46223683"),
        ("1.1", "1.3", "2000", "08be04448e51befd001fe960b290fef2cf18ac23e72981e6905389295a2d0b9f"),
    ):
        assert run("eo-run", "--theta1", t1, "--theta2", t2, "--eps-init", "0.05", "--eps-z",
                   "0.02", "--eps-relax", "0.1", "--trials", trials, "--seed", "99",
                   "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    # a noisy sweep with negative angles and angles beyond pi, which the gates reduce mod 2 pi
    out = tmp_path / "sweep.csv"
    assert run("sweep-concurrence", "--theta1", "-0.3:1.2:9", "--theta2", "0:2:9", "--eps-init",
               "0.01", "--eps-z", "0.089", "--eps-relax", "0.02", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "51cb79a74621be7d93be3be9737b96a072318699dd4d4f91d1455a6e0c2aacc5"
    )
    # the perfbench sweep grid: 41x41 points in [0, pi] with every noise channel on
    assert run("sweep-concurrence", "--theta1", "0:1:41", "--theta2", "0:1:41", "--eps-init",
               "0.01", "--eps-z", "0.089", "--eps-relax", "0.02", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6a0b88796fc73c6748f6982d515a534b2e6e1f9564694567b08d55dcd25b79ba"
    )
    # chain-demo stdout over every chain size and target pair
    capsys.readouterr()
    for n in range(2, 6):
        for pair in range(n - 1):
            for t1, t2 in (("0.05", "0.5"), ("0.25", "0.5"), ("0.7", "1.7"), ("-0.3", "2.6")):
                assert run("chain-demo", "--chain-size", str(n), "--target-pair", str(pair),
                           "--theta1", t1, "--theta2", t2) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "548488ba6c3e4080a9063994315f6314c17996f634c31cff1781f0805250ecc0"
    )


def test_chain_demo_corrects_with_the_reduced_angle(capsys):
    # theta2 = 3.7 pi: the phase correction uses the gate's angle reduced mod
    # 2 pi (1.7 pi); the unreduced angle moves corrected_fidelity_psi_plus in
    # its last digits. Recorded from an earlier version.
    assert run("chain-demo", "--chain-size", "3", "--target-pair", "0", "--theta1", "0.37",
               "--theta2", "3.7") == 0
    out = capsys.readouterr().out
    assert "corrected_fidelity_psi_plus = 0.17787942241513485" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4926a7416a5e7abc053d3fa0d06bc7a984fbf4cd7d55c67abeae67ce557edb5a"
    )


def test_perfbench_tracer_self_test_passes():
    # the benchmark's traced runs wrap every public function of the seven
    # layers and must restore every binding; a public flyspin function bound
    # from outside those layers, or a binding that cannot be restored, ends
    # each traced run with correct: false
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    layers = {layer: importlib.import_module(f"flyspin.{layer}") for layer in tracer.LAYERS}
    assert tracer.self_test(layers, [flyspin, *layers.values()]) == []


def _perfbench_module(name, monkeypatch):
    # perfbench modules import no flyspin; registered so that their dataclasses resolve
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_perfbench_batch_zero_passes_its_oracles(tmp_path, monkeypatch, capsys):
    # batch 0 of every benchmark workload at both benchmark seeds, untraced, through main:
    # each invocation exits 0 and its outputs pass the workload's independent oracle
    workloads = _perfbench_module("workloads", monkeypatch)
    oracles = _perfbench_module("oracles", monkeypatch)
    monkeypatch.chdir(tmp_path)
    failures = []
    for name, workload in workloads.WORKLOADS.items():
        for seed in (workloads.DEFAULT_SEED, workloads.HOLDOUT_SEED):
            for inv in workload.batch(seed, 0):
                paths = {"csv": inv.out, "config": f"{inv.out}.config"} if inv.out else {}
                for path in paths.values():
                    Path(path).unlink(missing_ok=True)
                code = main(inv.argv)
                stdout = capsys.readouterr().out
                files = {kind: Path(path).read_bytes() for kind, path in paths.items()}
                check = oracles.ORACLES[inv.command]
                errors = check(inv.params, stdout, files) if code == 0 else [f"exit {code}"]
                failures += [f"{name} {seed} {inv.argv}: {error}" for error in errors]
    assert failures == []


# eo is left out until perfbench's traced accounting is mended (ROADMAP item 1):
# its traced batches last about 8 ms, so one stall in the 12-18 us that perfbench
# times outside the cli.main span of an invocation can fail its 2% check
@pytest.mark.parametrize("workload", ["sweep", "pump", "chain"])
def test_perfbench_traced_run_ends_correct(workload):
    # a short traced run through perfbench's own entry point: the tracer is installed
    # and removed, every traced batch passes the oracles and the accounting checks
    root = Path(__file__).resolve().parent.parent
    argv = ["perfbench/run.py", "--workload", workload, "--seconds", "0.5", "--trace", "1"]
    run = subprocess.run([sys.executable, *argv], cwd=root, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True, run.stdout


def test_config_echoes_match_pinned_values(tmp_path, monkeypatch):
    # one .config per command, recorded from an earlier version: the keys in
    # sorted order, floats with 17 significant digits, the out path as given
    monkeypatch.chdir(tmp_path)
    runs = {
        "pump.csv": (["pump-sim", "--eps-z", "0.089", "--trials", "200", "--seed", "777",
                      "--max-rounds", "200"],
                     "58ff03785dd44e89f09fbc9b1128b2b99678975c60d89685fb65e9b4c290df87"),
        "eo.csv": (["eo-run", "--eps-z", "0.089", "--trials", "2000", "--seed", "42"],
                   "8a6164d44b61f55e82cbe8b9ba3b9be8c39f6bf53b39f7d1d55dc961322586fa"),
        "sweep.csv": (["sweep-concurrence", "--theta1", "-0.3:1.2:9", "--theta2", "0:2:9",
                       "--eps-init", "0.01", "--eps-z", "0.089", "--eps-relax", "0.02"],
                      "7c00253004186b93097503e3b7bee5b8b6c2ab1c1caf054e220bd9555baa73c5"),
        "chain.txt": (["chain-demo", "--chain-size", "4", "--target-pair", "1", "--theta1", "0.7",
                       "--theta2", "1.7"],
                      "eb8fe91509b0465c931f467139cd71cc2640e444e79edbc00aeb2d1448c1bbf0"),
    }
    for out, (argv, digest) in runs.items():
        assert run(*argv, "--out", out) == 0
        assert hashlib.sha256((tmp_path / f"{out}.config").read_bytes()).hexdigest() == digest


def test_eo_run_builds_no_generator_per_trial(tmp_path, monkeypatch):
    # every trial's uniforms come from one bulk pass, so no Philox is ever constructed
    plain, guarded = tmp_path / "plain.csv", tmp_path / "guarded.csv"
    assert run("eo-run", "--eps-z", "0.05", "--trials", "10000", "--out", str(plain)) == 0

    def no_philox(*args, **kwargs):
        raise AssertionError("eo-run built a Philox generator")

    monkeypatch.setattr(np.random, "Philox", no_philox)
    assert run("eo-run", "--eps-z", "0.05", "--trials", "10000", "--out", str(guarded)) == 0
    assert guarded.read_bytes() == plain.read_bytes()


def test_eo_run_reports_exact_values(tmp_path):
    out = tmp_path / "eo.csv"
    assert run("eo-run", "--theta1", "0.25", "--theta2", "0.5", "--out", str(out)) == 0
    values = dict(
        line.split(",") for line in read(out).strip().splitlines()[1:]
    )
    assert float(values["success_prob_exact"]) == pytest.approx(0.5, abs=1e-12)
    assert float(values["success_fidelity_psi_plus"]) == pytest.approx(1.0, abs=1e-10)
    assert float(values["p1"]) == pytest.approx(1.0, abs=1e-12)
    assert float(values["herald_prob"]) == 1.0


def test_eo_run_noise_values(tmp_path):
    out = tmp_path / "eo_noise.csv"
    assert run("eo-run", "--eps-init", "0.1", "--out", str(out)) == 0
    values = dict(line.split(",") for line in read(out).strip().splitlines()[1:])
    assert float(values["success_prob_exact"]) == pytest.approx(0.405, abs=1e-12)
    assert float(values["success_fidelity_psi_plus"]) == pytest.approx(1.0, abs=1e-10)

    out2 = tmp_path / "eo_dephase.csv"
    assert run("eo-run", "--eps-z", "0.089", "--trials", "400", "--seed", "5",
               "--out", str(out2)) == 0
    values = dict(line.split(",") for line in read(out2).strip().splitlines()[1:])
    assert float(values["success_fidelity_psi_plus"]) == pytest.approx(0.837842, abs=1e-12)
    mc, se = float(values["success_prob_mc"]), float(values["success_prob_mc_se"])
    assert abs(mc - 0.5) < 4 * se + 1e-9


def test_eo_run_noise_edges(tmp_path):
    # every eps at exactly 0 and 1, at generic, near-degenerate and degenerate angles
    out = tmp_path / "eo.csv"
    angles = ((0.25, 0.5), (1e-9, 0.5), (0.5, 1e-9), (0.0, 0.0), (0.3, 0.7))
    for (eps_init, eps_z, eps_relax), (t1, t2) in itertools.product(
        itertools.product((0.0, 1.0), repeat=3), angles
    ):
        assert run("eo-run", "--theta1", str(t1), "--theta2", str(t2), "--eps-init", str(eps_init),
                   "--eps-z", str(eps_z), "--eps-relax", str(eps_relax), "--trials", "100",
                   "--out", str(out)) == 0
        values = dict(line.split(",") for line in read(out).strip().splitlines()[1:])
        if eps_relax == 0.0:
            p1 = 2.0 * math.cos(math.pi * t1) ** 2 * math.sin(math.pi * t2) ** 2
            p2 = 2.0 * math.sin(math.pi * t1) ** 2
            expected = 0.5 * (1.0 - eps_init) ** 2 * p1 * p2
            assert abs(float(values["success_prob_exact"]) - expected) < 1e-12


def test_pump_sim_summary_and_csv(tmp_path, capsys):
    out = tmp_path / "pump.csv"
    assert run("pump-sim", "--eps-z", "0.089", "--trials", "30", "--seed", "4242",
               "--out", str(out)) == 0
    lines = read(out).strip().splitlines()
    assert lines[0] == "trial,rounds_to_target,pairs_consumed,converged"
    assert len(lines) == 31
    summary = capsys.readouterr().out
    assert "mean_rounds" in summary and "non_converged" in summary


def test_pump_sim_without_noise_converges_at_round_zero(tmp_path):
    # eps_z = 1 flips every pair for certain and 1e-300 rounds off, so both give perfect pairs too
    out = tmp_path / "pump0.csv"
    for eps_z in ("0", "1", "1e-300"):
        assert run("pump-sim", "--eps-z", eps_z, "--trials", "10", "--seed", "3",
                   "--out", str(out)) == 0
        for line in read(out).strip().splitlines()[1:]:
            trial, rounds, pairs, converged = line.split(",")
            assert rounds == "0" and pairs == "1" and converged == "1"


def test_eo_run_degenerate_angles(tmp_path):
    out = tmp_path / "eo_degenerate.csv"
    assert run("eo-run", "--theta1", "0", "--theta2", "0", "--out", str(out)) == 0
    values = dict(line.split(",") for line in read(out).strip().splitlines()[1:])
    assert float(values["success_prob_exact"]) == 0.0
    assert math.isnan(float(values["success_fidelity_psi_plus"]))


def test_runtime_error_exits_two(monkeypatch):
    # a numerical failure inside the simulation, past the config boundary
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr("flyspin.cli.generate_resource", singular)
    assert run("eo-run") == 2

    # a ValueError from inside the chain simulation is no config error either
    def invalid(*args, **kwargs):
        raise ValueError("density matrix is not Hermitian within 1e-12")

    monkeypatch.setattr("flyspin.cli.chain_report", invalid)
    assert run("chain-demo") == 2


def test_pump_sim_all_nonconverged_exits_three(tmp_path):
    out = tmp_path / "pump_fail.csv"
    code = run("pump-sim", "--eps-z", "0.3", "--trials", "5", "--seed", "1",
               "--max-rounds", "1", "--target-fidelity", "0.999999", "--out", str(out))
    assert code == 3
    # eps_z = 1/2: fresh pairs of fidelity 1/2 leave the stored pair at 1/2 forever
    assert run("pump-sim", "--eps-z", "0.5", "--trials", "20", "--out", str(out)) == 3


def test_pump_sim_single_nonconverged_trial_exits_three(tmp_path):
    out = tmp_path / "pump_one.csv"
    assert run("pump-sim", "--eps-z", "0.5", "--trials", "1", "--out", str(out)) == 3
    assert read(out).splitlines()[1:] == ["0,1000,1001,0"]


def test_chain_demo_report(tmp_path, capsys):
    assert run("chain-demo", "--chain-size", "4", "--target-pair", "1") == 0
    report = capsys.readouterr().out
    values = {}
    for line in report.splitlines():
        if "=" in line:
            key, _, val = line.strip().partition(" = ")
            values[key] = val
    assert float(values["deviation_from_two_qubit_case"]) < 1e-12
    assert float(values["magnetization_drift"]) < 1e-12
    assert float(values["spectator_0_purity"]) == pytest.approx(1.0, abs=1e-12)
    assert float(values["spectator_3_purity"]) == pytest.approx(1.0, abs=1e-12)
    assert values["target_pair"] == "(1, 2)"


def test_chain_demo_rejects_oversized_chain(tmp_path, capsys):
    assert run("chain-demo", "--chain-size", "9") == 1
    assert capsys.readouterr().err == "config error: chain size must lie in [2, 5], got 9\n"
    assert run("chain-demo", "--chain-size", "3", "--target-pair", "2") == 1
    assert "target pair (2, 3) out of range for 3 static qubits" in capsys.readouterr().err
    # the angles are parsed first, so a bad angle is reported before a bad chain
    assert run("chain-demo", "--theta1", "0:1:3", "--chain-size", "9") == 1
    assert capsys.readouterr().err == "config error: theta1: chain-demo expects a single angle, not a grid\n"


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta1 = 0.25\ntheta2 = 0.5\neps-init = 0.2  # file value\n")
    out = tmp_path / "eo_cfg.csv"
    assert run("eo-run", "--config", str(cfg), "--eps-init", "0.1", "--out", str(out)) == 0
    values = dict(line.split(",") for line in read(out).strip().splitlines()[1:])
    # flag wins over the file value
    assert float(values["success_prob_exact"]) == pytest.approx(0.405, abs=1e-12)


def test_config_echo_is_refeedable(tmp_path):
    out1 = tmp_path / "first.csv"
    assert run("sweep-concurrence", "--theta1", "0:1:3", "--theta2", "0:1:3",
               "--eps-z", "0.05", "--out", str(out1)) == 0
    echo = tmp_path / "first.csv.config"
    out2 = tmp_path / "second.csv"
    assert run("sweep-concurrence", "--config", str(echo), "--out", str(out2)) == 0
    assert read(out1) == read(out2)
    # a sweep without angle flags echoes its default grid, which feeds back too
    assert run("sweep-concurrence", "--out", str(out1)) == 0
    assert "theta1 = 0:1:41\ntheta2 = 0:1:41\n" in read(echo)
    assert run("sweep-concurrence", "--config", str(echo), "--out", str(out2)) == 0
    assert len(read(out1).splitlines()) == 1 + 41 * 41
    assert read(out1) == read(out2)
    # chain-demo's echo feeds back too
    out3, out4 = tmp_path / "chain1.txt", tmp_path / "chain2.txt"
    assert run("chain-demo", "--chain-size", "3", "--out", str(out3)) == 0
    assert run("chain-demo", "--config", f"{out3}.config", "--out", str(out4)) == 0
    assert read(out3) == read(out4)
    # a '#' inside the out path opens no comment, so the echo writes the same file again
    hashed = tmp_path / "run#1.csv"
    assert run("eo-run", "--trials", "5", "--out", str(hashed)) == 0
    first = read(hashed)
    hashed.unlink()
    assert run("eo-run", "--config", f"{hashed}.config") == 0
    assert read(hashed) == first and not (tmp_path / "run").exists()


def test_config_errors_exit_one(tmp_path, capsys):
    assert run("eo-run", "--eps-z", "1.5") == 1
    assert "eps_z" in capsys.readouterr().err
    assert run("eo-run", "--seed", str(2**64)) == 1
    capsys.readouterr()
    assert run("eo-run", "--seed", "-1") == 1  # a negative value is a value, not a flag
    assert "seed" in capsys.readouterr().err
    assert run("sweep-concurrence", "--theta1", "0:1:1") == 1
    assert run("sweep-concurrence", "--theta1", "0.3") == 1  # sweeps need a grid
    # a given single angle is an error even where it equals eo-run's default
    assert run("sweep-concurrence", "--theta1", "0:1:3", "--theta2", "0.5") == 1
    assert run("sweep-concurrence", "--theta1", "0.25", "--theta2", "0:1:3") == 1
    assert run("eo-run", "--theta1", "0:1:5") == 1  # single runs need one angle
    assert run("eo-run", "--theta1", "bogus") == 1
    assert run("eo-run", "--theta1", "nan") == 1  # non-finite angles
    assert run("eo-run", "--theta1", "inf") == 1
    assert run("sweep-concurrence", "--theta1", "0:nan:3") == 1
    capsys.readouterr()
    for flag in ("--eps-init", "--eps-z", "--eps-relax"):  # chain-demo has no noise model
        assert run("chain-demo", flag, "0.3") == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    for flag in ("--eps-init", "--eps-relax"):  # pumping models dephasing only
        assert run("pump-sim", "--trials", "5", flag, "0.3") == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 3\n")
    assert run("eo-run", "--config", str(cfg)) == 1
    assert run("eo-run", "--config", str(tmp_path / "missing.cfg")) == 1
    capsys.readouterr()
    assert run("eo-run", "--config=", "--out", str(tmp_path / "x.csv")) == 1  # an empty path is no file
    assert "cannot read config file ''" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    cfg.write_bytes(b"\xff\xfe = 1\n")  # not UTF-8
    assert run("eo-run", "--config", str(cfg)) == 1
    # a config file written by another command
    pump = tmp_path / "pump.csv"
    assert run("pump-sim", "--trials", "5", "--out", str(pump)) == 0
    capsys.readouterr()
    assert run("eo-run", "--config", f"{pump}.config") == 1
    assert "pump-sim" in capsys.readouterr().err
    # a key given twice, even in its dashed spelling, does not let the last value win
    cfg.write_text("eps_z = 0.5\neps-z = 0.01\n")
    assert run("eo-run", "--config", str(cfg)) == 1
    assert "'eps_z' given twice" in capsys.readouterr().err
    # an out path that its .config echo would not read back as written
    assert run("eo-run", "--out", " x.csv") == 1
    assert "out: ' x.csv'" in capsys.readouterr().err
    # a flag given twice, --config included, does not let the last value win
    other = tmp_path / "other.cfg"
    cfg.write_text("eps_z = 0.3\n")
    other.write_text("trials = 3\n")
    assert run("eo-run", "--config", str(cfg), "--config", str(other)) == 1
    assert "--config given twice" in capsys.readouterr().err
    assert run("eo-run", "--eps-z", "0.5", "--eps-z", "0.01") == 1
    assert "--eps-z given twice" in capsys.readouterr().err


# each command's flags (besides --config), one flag it does not read, and the flags of one run
COMMAND_SURFACE = {
    "sweep-concurrence": (
        {"--theta1", "--theta2", "--eps-init", "--eps-z", "--eps-relax", "--out"},
        ("--trials", "5"),
        ["--theta1", "0:1:3", "--theta2", "0.1:0.9:4", "--eps-z", "0.05", "--eps-relax", "0.1"],
    ),
    "eo-run": (
        {"--theta1", "--theta2", "--eps-init", "--eps-z", "--eps-relax", "--trials", "--seed",
         "--out"},
        ("--max-rounds", "0"),
        ["--theta1", "0.3", "--eps-init", "0.02", "--eps-z", "0.089", "--trials", "300",
         "--seed", "7"],
    ),
    "pump-sim": (
        {"--eps-z", "--trials", "--seed", "--target-fidelity", "--max-rounds", "--out"},
        ("--theta1", "0.1"),
        ["--eps-z", "0.089", "--trials", "50", "--seed", "11", "--max-rounds", "300",
         "--target-fidelity", "0.999"],
    ),
    "chain-demo": (
        {"--theta1", "--theta2", "--chain-size", "--target-pair", "--out"},
        ("--seed", "1"),
        ["--theta1", "0.3", "--chain-size", "3", "--target-pair", "0"],
    ),
}


@pytest.mark.parametrize("command", sorted(COMMAND_SURFACE))
def test_each_command_accepts_and_echoes_only_its_keys(command, tmp_path, capsys):
    flags, (foreign, foreign_value), argv = COMMAND_SURFACE[command]
    for top in ("--help", "-h"):  # the top-level help names every command
        assert run(top) == 0
        assert command in capsys.readouterr().out
    assert run(command, "--help") == 0
    long_options = set(re.findall(r"^\s+(--[\w-]+)", capsys.readouterr().out, re.MULTILINE))
    assert long_options == {"--config", *flags}
    assert run(command, foreign, foreign_value) == 1
    assert f"unrecognized arguments: {foreign}" in capsys.readouterr().err
    key = foreign[2:].replace("-", "_")
    cfg = tmp_path / "foreign.cfg"
    cfg.write_text(f"{key} = {foreign_value}\n")
    assert run(command, "--config", str(cfg)) == 1
    assert repr(key) in capsys.readouterr().err
    # the echo holds exactly command, the command's keys and out, and reproduces the run
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert run(command, *argv, "--out", str(first)) == 0
    echo = read(tmp_path / "first.csv.config")
    keys = {line.split(" = ")[0] for line in echo.splitlines()}
    assert keys == {"command", *(flag[2:].replace("-", "_") for flag in flags)}
    assert run(command, "--config", str(tmp_path / "first.csv.config"), "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_angle_values_may_start_with_minus(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep.csv"
    for grid in ("-0.5:0.5:3", "-1e-3:0.5:3"):
        assert run("sweep-concurrence", "--theta1", grid, "--theta2", "0:0.5:2",
                   "--out", str(out)) == 0
        assert len(read(out).strip().splitlines()) == 1 + 3 * 2
    assert run("eo-run", "--theta1", "-0.25", "--out", str(tmp_path / "eo.csv")) == 0
    capsys.readouterr()
    assert run("eo-run", "--theta1", "-inf") == 1
    assert "angles must be finite" in capsys.readouterr().err
    # any flag's value may start with '-', -h included; the echo feeds back byte for byte
    monkeypatch.chdir(tmp_path)
    for name in ("-x.csv", "-h"):
        assert run("eo-run", "--trials", "20", "--out", name) == 0
        first = read(tmp_path / name)
        (tmp_path / name).unlink()
        assert run("eo-run", "--config", f"{name}.config") == 0
        assert read(tmp_path / name) == first
    assert "usage" not in capsys.readouterr().out


def test_single_angle_check_builds_no_grid(monkeypatch, capsys):
    # validating a grid spec must not allocate the grid (STEPS may be huge)
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built during validation")

    monkeypatch.setattr(np, "linspace", no_grid)
    assert run("eo-run", "--theta1", "0:1:5") == 1
    assert "expects a single angle" in capsys.readouterr().err


def test_unwritable_output_path(tmp_path, capsys):
    # an output that cannot be written exits 1 with empty stdout and names its path: an --out
    # in a missing directory (every command), a <out>.config that is a directory, or an <out>
    # that is one (its .config, moved into place first, is taken back); no run leaves its file,
    # its .config or a temporary file behind
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    blocked = tmp_path / "eo.csv"
    Path(f"{blocked}.config").mkdir()
    is_dir = tmp_path / "dir.csv"
    is_dir.mkdir()
    cases = [
        (["sweep-concurrence", "--theta1", "0:1:3", "--theta2", "0:1:3"], missing, missing),
        (["eo-run"], missing, missing),
        (["pump-sim", "--trials", "2"], missing, missing),
        (["chain-demo"], missing, missing),
        (["eo-run"], blocked, f"{blocked}.config"),
        (["pump-sim", "--trials", "2"], is_dir, is_dir),
    ]
    for argv, out, named in cases:
        assert run(*argv, "--out", str(out)) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith(f"config error: cannot write output file {named}: "), argv
    assert not Path(f"{missing}.config").exists()
    assert not blocked.exists() and Path(f"{blocked}.config").is_dir()
    assert not Path(f"{is_dir}.config").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir.csv", "eo.csv.config"]


def test_grid_steps_ceiling_is_checked_at_the_config_boundary(tmp_path, capsys):
    # one step above the ceiling exits 1 before any work; the ceiling itself resolves
    out = tmp_path / "big.csv"
    for key in ("--theta1", "--theta2"):
        assert run("sweep-concurrence", key, f"0:1:{_MAX_STEPS + 1}", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert f"{key[2:]}: grid has {_MAX_STEPS + 1} steps, above the ceiling of {_MAX_STEPS}" in err
    assert not out.exists()
    ceiling = f"0:1:{_MAX_STEPS}"
    cfg = _resolve("sweep-concurrence", {"theta1": ceiling, "theta2": ceiling})
    assert len(cfg.grid("theta1")) == len(cfg.grid("theta2")) == _MAX_STEPS


def test_trials_and_max_rounds_ceilings_are_checked_at_the_config_boundary(tmp_path, capsys):
    # one above each ceiling exits 1 within a second, before any work; the ceiling itself resolves
    out = tmp_path / "big.csv"
    cases = [
        ("eo-run", "trials", _MAX_TRIALS["eo-run"]),
        ("pump-sim", "trials", _MAX_TRIALS["pump-sim"]),
        ("pump-sim", "max_rounds", _MAX_ROUNDS),
    ]
    for command, key, ceiling in cases:
        start = time.perf_counter()
        assert run(command, "--" + key.replace("_", "-"), str(ceiling + 1), "--out", str(out)) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert f"{key}: {ceiling + 1} is above the " in err and f"ceiling of {ceiling}\n" in err
        assert getattr(_resolve(command, {key: str(ceiling)}), key) == ceiling
    assert not out.exists()


def test_grid_line_and_count_errors_exit_one(tmp_path, capsys):
    # each exits 1 at the config boundary with its message, and writes nothing
    out = tmp_path / "x.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# eo-run settings\n\n   \ntrials = 7  # short\n   # indented comment\neps_z 0.3\n")
    cases = [
        (["eo-run", "--theta1", "1:2"], "theta1: grid must be START:STOP:STEPS, got '1:2'"),
        (["eo-run", "--config", str(cfg)], f"{cfg}:6: expected 'key = value', got 'eps_z 0.3'"),
        (["eo-run", "--trials", "-1"], "trials cannot be negative, got -1"),
        (["pump-sim", "--max-rounds", "0"], "max_rounds must be at least 1, got 0"),
    ]
    for argv, message in cases:
        assert run(*argv, "--out", str(out)) == 1, argv
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n", argv
    assert not out.exists()
    # blank and comment-only lines are skipped and the line numbers still count them
    cfg.write_text("\n# comment\n  \ntrials = 7  # short\n\t# tab\neps-z = 0.3\n")
    resolved = _resolve("eo-run", {"config": str(cfg)})
    assert (resolved.trials, resolved.eps_z) == (7, 0.3)


def test_pump_sim_peak_memory_stays_within_its_cost_per_trial(tmp_path, capsys):
    # the trials ceiling is the memory budget over this cost, so a whole run, write included,
    # must fit it: the walks share one re-keyed generator and only the CSV rows grow with trials
    out = tmp_path / "pump.csv"
    argv = ["pump-sim", "--eps-z", "0.089", "--seed", "1", "--out", str(out)]
    assert run(*argv, "--trials", "2") == 0  # imports and first-call caches stay out of the count
    tracemalloc.start()
    try:
        assert run(*argv, "--trials", "5000") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5000 * _TRIAL_B["pump-sim"]
    assert len(out.read_text().splitlines()) == 5001
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pump.csv", "pump.csv.config"]


def test_eo_run_peak_memory_stays_within_its_cost_per_trial(tmp_path, capsys):
    # the trials ceiling is the memory budget over this cost: the uniforms, the
    # drawn outcomes and the flags grow with trials, the Philox chunk does not,
    # and at 200k trials its fixed temporaries no longer dominate
    out = tmp_path / "eo.csv"
    argv = ["eo-run", "--theta1", "0.25", "--theta2", "0.5", "--eps-z", "0.089", "--seed", "1",
            "--out", str(out)]
    assert run(*argv, "--trials", "2") == 0  # imports and first-call caches stay out of the count
    tracemalloc.start()
    try:
        assert run(*argv, "--trials", "200000") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200000 * _TRIAL_B["eo-run"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eo.csv", "eo.csv.config"]


def test_unknown_flag_exits_one(capsys):
    # each case exits 1 and names the offending token
    cases = [
        (["eo-run", "--frobnicate", "3"], "--frobnicate"),
        ([], "missing command"),
        (["bogus"], "'bogus'"),
        (["eo-run", "-x", "1"], "-x"),
        (["eo-run", "--trials"], "--trials"),  # no value
        (["eo-run", "--eps_z", "0.1"], "--eps_z"),  # flags spell '_' as '-'
        (["eo-run", "--tri", "5"], "--tri"),  # no abbreviations
    ]
    for argv, named in cases:
        assert run(*argv) == 1, argv
        assert named in capsys.readouterr().err
