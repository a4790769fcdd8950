"""Independent output oracles for the four benchmark workloads.

Every check here is derived from closed forms of the transit amplitudes or
from the bookkeeping rules of the CLI output; nothing imports flyspin. Each
oracle takes the parsed command parameters and the raw outputs of one CLI
invocation and returns a list of error strings (empty when the outputs are
correct).

Transit amplitudes, with the flying qubit prepared up and the statics down:
a = cos t1 cos t2 on |dd>, b = i cos t1 sin t2 on |du> and
c = i e^{i t2} sin t1 on |ud>. Relaxation scales b by sqrt(1 - eps_r) and
moves eps_r cos^2 t1 of weight onto |dd>; dephasing flips the sign of b
with probability eps_z; imperfect initialization sends eps_i onto |dd>.
The static pair is an X state with no |uu> weight, so its concurrence is
C = 2 |rho_{ud,du}| = 2 (1 - eps_i) |1 - 2 eps_z| sqrt(1 - eps_r) |b| |c|.
"""

from __future__ import annotations

import math

import numpy as np

SWEEP_HEADER = "theta1,theta2,concurrence,p1,p2,herald_prob"
PUMP_HEADER = "trial,rounds_to_target,pairs_consumed,converged"

# every closed-form quantity is compared to this absolute tolerance
EXACT_ATOL = 1e-12
MC_SIGMAS = 5.0
PUMP_MEAN_WINDOW = (6.0, 14.0)


def closed_form_concurrence(t1, t2, eps_init=0.0, eps_z=0.0, eps_relax=0.0):
    """Concurrence of the one-transit resource; t1 and t2 in radians."""
    b = np.abs(np.cos(t1) * np.sin(t2))
    c = np.abs(np.sin(t1))
    return 2.0 * (1.0 - eps_init) * abs(1.0 - 2.0 * eps_z) * math.sqrt(1.0 - eps_relax) * b * c


def closed_form_weights(t1, t2):
    """(P1, P2) weights of the resource; t1 and t2 in radians."""
    return 2.0 * np.cos(t1) ** 2 * np.sin(t2) ** 2, 2.0 * np.sin(t1) ** 2


def _close(value: float, expected: float, atol: float = EXACT_ATOL) -> bool:
    return math.isfinite(value) and abs(value - expected) <= atol


def _grid(spec: str) -> np.ndarray:
    start, stop, steps = spec.split(":")
    return np.linspace(float(start) * math.pi, float(stop) * math.pi, int(steps))


def check_sweep(params: dict, stdout: str, files: dict) -> list[str]:
    """Closed-form concurrence and weights on every grid point."""
    lines = files.get("csv", b"").decode().splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"sweep: bad or missing CSV header {lines[:1]}"]
    g1, g2 = _grid(params["theta1"]), _grid(params["theta2"])
    if len(lines) - 1 != g1.size * g2.size:
        return [f"sweep: {len(lines) - 1} rows, expected {g1.size * g2.size}"]
    if stdout.strip() != f"wrote {g1.size * g2.size} rows to {params['out']}":
        return [f"sweep: unexpected stdout {stdout.strip()!r}"]
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    t1 = np.repeat(g1, g2.size)
    t2 = np.tile(g2, g1.size)
    noise = (params["eps_init"], params["eps_z"], params["eps_relax"])
    p1, p2 = closed_form_weights(t1, t2)
    expected = (t1, t2, closed_form_concurrence(t1, t2, *noise), p1, p2, np.ones_like(t1))
    errors = []
    for name, got, want in zip(SWEEP_HEADER.split(","), table.T, expected):
        worst = float(np.max(np.abs(got - want)))
        if not worst <= EXACT_ATOL:
            errors.append(f"sweep: {name} column off by {worst:.3e}")
    return errors


def _key_values(text: str, sep: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        if sep in line:
            key, value = line.split(sep, 1)
            try:
                out[key.strip()] = float(value)
            except ValueError:
                continue
    return out


def check_eo(params: dict, stdout: str, files: dict) -> list[str]:
    """Exact success probability, success fidelity, and the MC within 5 SE."""
    csv_lines = files.get("csv", b"").decode().splitlines()
    if not csv_lines or csv_lines[0] != "metric,value":
        return [f"eo: bad or missing CSV header {csv_lines[:1]}"]
    table = _key_values("\n".join(csv_lines[1:]), ",")
    if _key_values(stdout, " = ") != table:
        return ["eo: stdout report and CSV disagree"]
    t1, t2 = float(params["theta1"]) * math.pi, float(params["theta2"]) * math.pi
    eps_z = params["eps_z"]
    p1, p2 = closed_form_weights(t1, t2)
    exact = 0.5 * p1 * p2
    expected = {
        "p1": p1,
        "p2": p2,
        "herald_prob": 1.0,
        "resource_concurrence": closed_form_concurrence(t1, t2, eps_z=eps_z),
        "success_prob_exact": exact,
        "success_fidelity_psi_plus": 1.0 - 2.0 * eps_z * (1.0 - eps_z),
    }
    errors = [
        f"eo: {key} = {table.get(key)!r}, expected {want!r}"
        for key, want in expected.items()
        if not _close(table.get(key, math.nan), want)
    ]
    trials = params["trials"]
    mc = table.get("success_prob_mc", math.nan)
    se = math.sqrt(exact * (1.0 - exact) / trials)
    if not abs(mc - exact) <= MC_SIGMAS * se:
        errors.append(f"eo: MC estimate {mc!r} is more than {MC_SIGMAS:g} SE from {exact!r}")
    return errors


def pump_rows(files: dict) -> list[tuple[int, int, int, int]]:
    """Parsed (trial, rounds, pairs_consumed, converged) rows of a pump CSV."""
    lines = files.get("csv", b"").decode().splitlines()
    if not lines or lines[0] != PUMP_HEADER:
        raise ValueError(f"bad or missing CSV header {lines[:1]}")
    return [tuple(int(x) for x in line.split(",")) for line in lines[1:]]


def check_pump(params: dict, stdout: str, files: dict) -> list[str]:
    """Row bookkeeping, the summary lines, and the 6-14 mean-rounds window."""
    try:
        rows = pump_rows(files)
    except ValueError as exc:
        return [f"pump: {exc}"]
    trials, max_rounds = params["trials"], params["max_rounds"]
    if [r[0] for r in rows] != list(range(trials)):
        return [f"pump: trial column is not 0..{trials - 1}"]
    errors = []
    converged = []
    for trial, rounds, pairs, conv in rows:
        if pairs != rounds + 1 or conv not in (0, 1):
            errors.append(f"pump: inconsistent row {trial}: {rounds},{pairs},{conv}")
        elif conv and not 1 <= rounds <= max_rounds:
            errors.append(f"pump: converged row {trial} has {rounds} rounds")
        elif not conv and rounds != max_rounds:
            errors.append(f"pump: unconverged row {trial} stopped at {rounds} rounds")
        if conv:
            converged.append(rounds)
        if len(errors) > 5:
            break
    if errors or not converged:
        return errors or ["pump: no trial converged"]
    mean = sum(converged) / len(converged)
    lo, hi = PUMP_MEAN_WINDOW
    if not lo <= mean <= hi:
        errors.append(f"pump: mean converged rounds {mean:.3f} outside [{lo:g}, {hi:g}]")
    summary = _key_values(stdout, " = ")
    if summary.get("trials") != trials or summary.get("non_converged") != trials - len(converged):
        errors.append("pump: summary trial counts disagree with the CSV")
    if not _close(summary.get("mean_rounds", math.nan), mean, 1e-9 * mean):
        errors.append("pump: summary mean_rounds disagrees with the CSV")
    return errors


def check_chain(params: dict, stdout: str, files: dict) -> list[str]:
    """Conservation and spectator diagnostics, plus the closed-form target pair."""
    report = _key_values(stdout, " = ")
    n, pair = params["chain_size"], params["target_pair"]
    t1, t2 = float(params["theta1"]) * math.pi, float(params["theta2"]) * math.pi
    spectators = [j for j in range(n) if j not in (pair, pair + 1)]
    # flying qubit and spectators start up, the target pair down
    expected = {
        "n_static": n,
        "magnetization_before": n + 1 - 4,
        "target_concurrence": closed_form_concurrence(t1, t2),
        "corrected_fidelity_psi_plus": 0.5 * (math.sin(t1) + math.cos(t1) * math.sin(t2)) ** 2,
    }
    errors = [
        f"chain: {key} = {report.get(key)!r}, expected {want!r}"
        for key, want in expected.items()
        if not _close(report.get(key, math.nan), want)
    ]
    for key in ("deviation_from_two_qubit_case", "magnetization_drift"):
        if not report.get(key, math.nan) <= EXACT_ATOL:
            errors.append(f"chain: {key} = {report.get(key)!r} exceeds {EXACT_ATOL:g}")
    purities = {k: v for k, v in report.items() if k.startswith("spectator_")}
    if sorted(purities) != sorted(f"spectator_{j}_purity" for j in spectators):
        errors.append(f"chain: spectator lines {sorted(purities)} for target pair {pair}")
    errors += [
        f"chain: {key} = {value!r} is not pure"
        for key, value in purities.items()
        if not _close(value, 1.0)
    ]
    return errors


ORACLES = {
    "sweep-concurrence": check_sweep,
    "eo-run": check_eo,
    "pump-sim": check_pump,
    "chain-demo": check_chain,
}
