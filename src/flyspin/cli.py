"""Command-line surface: parameter sweeps, single-operation reports, Monte
Carlo pumping experiments and chain demos, with seeded determinism.

Usage: ``flyspin CMD (--key VALUE | --key=VALUE)...``, each key in full,
with '-' for '_'; the token after a flag is always its value, even one
starting with '-', and -h or --help prints the usage. Each command accepts,
as flags and config-file keys, only the keys it reads (``_COMMANDS``).
Angles are in units of pi everywhere on the command line and in config
files (0.25 means pi/4), which keeps the optimal working points exactly
representable. Sweeps take a grid as START:STOP:STEPS (inclusive
endpoints, in units of pi). Config files are flat ``key = value`` text,
each key at most once, with '#' opening a comment at the start of a line
or after whitespace; flags, each given at most once, override file values.
Every run that writes an output file also writes "<out>.config" holding
``command``, the command's keys and ``out``; fed back through --config it
reproduces the run, and another command rejects it. Randomness comes from
per-trial Philox streams keyed by (seed, trial index), so reruns are
byte-identical and independent of any parallel scheduling.

A command writes nothing: ``run(cfg, out)`` returns its stdout text, file
text and exit code. ``main`` alone runs the exit sequence: compute, write
``<out>`` (``--out`` or the command's default; ``chain-demo`` has none),
write ``<out>.config``, print, return the code. A failed write exits 1
with empty stdout and leaves neither file.

Exit codes: 0 success, 1 configuration error, 2 runtime or numerical
error, 3 non-convergence (pump-sim only).
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .channels import NoiseParams
from .metrics import BellLabel, bell_fidelity, concurrence, success_stats
from .protocol import (
    _check_chain,
    chain_report,
    corrected_rho,
    generate_resource,
    parity_success_output,
    parity_tree,
    pump_until,
    resource_rows,
    transit_weights,
)
from .rng import trial_streams, trial_uniforms

_SWEEP_HEADER = "theta1,theta2,concurrence,p1,p2,herald_prob"
_HERALD_PROB = 1.0  # forward scattering reflects nothing, so every transit is heralded

# sweep-concurrence grid of both angles when none is given: [0, pi] in 41 steps
_SWEEP_GRID = "0:1:41"

# grid STEPS ceiling: a sweep at the ceiling on both axes has STEPS^2 points, and at
# the measured time per point (README) it must fit the budget: isqrt(30 s / 22 us) = 1167
_SWEEP_POINT_S = 22e-6
_SWEEP_BUDGET_S = 30.0
_MAX_STEPS = math.isqrt(int(_SWEEP_BUDGET_S / _SWEEP_POINT_S))

# trials and max_rounds ceilings: each key at its ceiling alone keeps a run within one memory
# budget, at the peak bytes per unit measured with tracemalloc (README): a pump-sim or
# eo-run trial, and a round of the pump-sim lattice table (2 max_rounds + 1 sites)
_MEMORY_BUDGET_B = 500_000_000
_TRIAL_B = {"eo-run": 37, "pump-sim": 106}
_ROUND_B = 136
_MAX_TRIALS = {command: _MEMORY_BUDGET_B // cost for command, cost in _TRIAL_B.items()}
_MAX_ROUNDS = _MEMORY_BUDGET_B // _ROUND_B

_COMMENT = re.compile(r"(?:^|\s)#.*")  # '#' opens a comment at a line's start or after whitespace


class ConfigError(ValueError):
    """Invalid configuration (bad flag, bad file value, bad combination)."""


@dataclass
class ExperimentConfig:
    """Fully resolved run configuration.

    theta1/theta2 keep the raw angle specs (units of pi, possibly grids);
    the derived radian values and grids come from the accessors below. A
    command sets only the keys it reads; the other fields keep their defaults.
    """

    command: str
    theta1: str = "0.25"
    theta2: str = "0.5"
    eps_init: float = 0.0
    eps_z: float = 0.0
    eps_relax: float = 0.0
    trials: int = 0
    seed: int = 12345
    target_fidelity: float = 1.0 - 1e-4
    max_rounds: int = 1000
    chain_size: int = 4
    target_pair: int = 1
    out: Optional[str] = None

    def angle(self, key: str) -> float:
        start, _, steps = _parse_angle(getattr(self, key))
        if steps is not None:
            raise ConfigError(f"{key}: {self.command} expects a single angle, not a grid")
        return start

    def grid(self, key: str) -> tuple[float, ...]:
        spec = getattr(self, key)
        start, stop, steps = _parse_angle(spec)
        if steps is None:
            raise ConfigError(f"{key}: sweeps need a START:STOP:STEPS grid, got {spec!r}")
        return tuple(float(v) for v in np.linspace(start, stop, steps))

    def noise(self) -> NoiseParams:
        try:
            return NoiseParams(eps_init=self.eps_init, eps_z=self.eps_z, eps_relax=self.eps_relax)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _parse_angle(text: str) -> tuple[float, float, Optional[int]]:
    """Angle spec in pi units as (START, STOP, STEPS) in radians.

    A single finite value gives (value, value, None); a START:STOP:STEPS grid
    needs finite ends and 2 to ``_MAX_STEPS`` steps. The grid itself is not
    built here.
    """
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"grid must be START:STOP:STEPS, got {text!r}")
    try:
        ends = [float(part) * math.pi for part in parts[:2]]
        steps = int(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise ConfigError(f"cannot parse angle {text!r}") from exc
    if not all(math.isfinite(v) for v in ends):
        raise ConfigError(f"angles must be finite, got {text!r}")
    if steps is not None and steps < 2:
        raise ConfigError(f"grid needs at least 2 steps, got {steps}")
    if steps is not None and steps > _MAX_STEPS:
        raise ConfigError(f"grid has {steps} steps, above the ceiling of {_MAX_STEPS}")
    return ends[0], ends[-1], steps


def _angle_spec(text: str) -> str:
    """An angle spec, checked but kept as text: grids are built on use.

    The text is kept stripped, as its ``.config`` echo reads back.
    """
    _parse_angle(text)
    return text.strip()


# every config key: how its text converts to the ExperimentConfig field, and its flag help
_KEYS: dict[str, tuple[Callable[[str], object], str]] = {
    "theta1": (_angle_spec, "first gate angle in pi units, or grid START:STOP:STEPS"),
    "theta2": (_angle_spec, "second gate angle in pi units, or grid START:STOP:STEPS"),
    "eps_init": (float, "flying-qubit initialization error"),
    "eps_z": (float, "inter-gate dephasing probability"),
    "eps_relax": (float, "inter-gate relaxation probability"),
    "trials": (int, "Monte Carlo trial count"),
    "seed": (int, "64-bit master seed"),
    "target_fidelity": (float, "pumping target fidelity"),
    "max_rounds": (int, "pump round ceiling per trial"),
    "chain_size": (int, "number of static qubits in the chain"),
    "target_pair": (int, "left index i of the target pair (i, i+1)"),
    "out": (str, "output file path"),
}


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
        values[key] = value
    return values


def _resolve(command: str, flags: dict[str, str]) -> ExperimentConfig:
    cfg = ExperimentConfig(command=command)
    if cfg.command == "sweep-concurrence":
        cfg.theta1 = cfg.theta2 = _SWEEP_GRID
    config = flags.get("config")
    merged = _load_config_file(config) if config is not None else {}
    file_command = merged.pop("command", cfg.command)
    if file_command != cfg.command:
        raise ConfigError(f"{config} is a {file_command} config, not {cfg.command}")
    merged.update((key, value) for key, value in flags.items() if key != "config")
    keys = _COMMANDS[cfg.command].keys
    for key, value in merged.items():
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r} for {cfg.command}")
        try:
            setattr(cfg, key, _KEYS[key][0](value))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    if cfg.out and (cfg.out != cfg.out.strip() or len(cfg.out.splitlines()) > 1
                    or _COMMENT.search(cfg.out)):
        raise ConfigError(f"out: {cfg.out!r} would not read back from its .config echo")
    if not (0 <= cfg.seed < 2**64):
        raise ConfigError(f"seed must be a 64-bit value, got {cfg.seed}")
    if cfg.trials < 0:
        raise ConfigError(f"trials cannot be negative, got {cfg.trials}")
    if cfg.trials > (ceiling := _MAX_TRIALS.get(cfg.command, 0)):
        raise ConfigError(f"trials: {cfg.trials} is above the {cfg.command} ceiling of {ceiling}")
    if not (0.0 <= cfg.target_fidelity < 1.0):
        raise ConfigError(f"target_fidelity must lie in [0, 1), got {cfg.target_fidelity}")
    if cfg.max_rounds < 1:
        raise ConfigError(f"max_rounds must be at least 1, got {cfg.max_rounds}")
    if cfg.max_rounds > _MAX_ROUNDS:
        raise ConfigError(f"max_rounds: {cfg.max_rounds} is above the ceiling of {_MAX_ROUNDS}")
    cfg.noise()
    return cfg


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_outputs(cfg: ExperimentConfig, out: str, text: str) -> None:
    """Write ``text`` to ``out`` and the run's config echo to ``<out>.config``, both or neither.

    Both go to temporary files beside them, moved into place with ``os.replace``,
    the ``.config`` first; a failure removes what it wrote and names the path.
    """
    pairs = [("command", cfg.command)]
    for key in _COMMANDS[cfg.command].keys:
        value = getattr(cfg, key)
        if isinstance(value, float):
            value = _fmt(value)
        pairs.append((key, "" if value is None else str(value)))
    echo = "\n".join(f"{k} = {v}" for k, v in sorted(pairs)) + "\n"
    config = out + ".config"
    temps = {path: f"{path}.{os.getpid()}.tmp" for path in (out, config)}
    moved = []
    try:
        for path, body in ((out, text), (config, echo)):
            Path(temps[path]).write_text(body)
        for path in (config, out):
            os.replace(temps[path], path)
            moved.append(path)
    except OSError as exc:
        for leftover in (*temps.values(), *moved):
            with contextlib.suppress(OSError):
                os.remove(leftover)
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def cmd_sweep_concurrence(cfg: ExperimentConfig, out: str) -> tuple[str, str, int]:
    """Concurrence surface over the (theta1, theta2) grid, theta1-major order.

    ``resource_rows`` runs the first leg once over the theta1 grid and builds
    gate 2 once over the theta2 grid; each theta1 row is then one resource
    stack, one CSV line per theta2.
    """
    grid1 = cfg.grid("theta1")
    grid2 = np.array(cfg.grid("theta2"))
    rows = [_SWEEP_HEADER]
    theta2_texts = [_fmt(t2) for t2 in grid2.tolist()]
    herald = _fmt(_HERALD_PROB)
    for t1, rho in zip(grid1, resource_rows(grid1, grid2, cfg.noise())):
        # p1 per grid point, p2 once per row: it depends on theta1 alone
        p1_row, p2 = transit_weights(t1, grid2)
        head, tail = _fmt(t1), f"{_fmt(p2)},{herald}"
        for t2, c, p1 in zip(theta2_texts, concurrence(rho).tolist(), p1_row.tolist()):
            rows.append(f"{head},{t2},{c:.17g},{p1:.17g},{tail}")
    return f"wrote {len(rows) - 1} rows to {out}", "\n".join(rows) + "\n", 0


def cmd_eo_run(cfg: ExperimentConfig, out: str) -> tuple[str, str, int]:
    """One entanglement operation: exact statistics plus optional sampling."""
    noise = cfg.noise()
    theta1, theta2 = cfg.angle("theta1"), cfg.angle("theta2")
    rho = generate_resource(theta1, theta2, noise)
    p1, p2 = transit_weights(theta1, theta2)
    tree = parity_tree(rho)
    p_success, success_state = parity_success_output(tree)
    metrics: list[tuple[str, float]] = [
        ("theta1", theta1),
        ("theta2", theta2),
        ("p1", p1),
        ("p2", p2),
        ("herald_prob", _HERALD_PROB),
        ("resource_concurrence", concurrence(rho)),
        ("success_prob_exact", p_success),
    ]
    for label in BellLabel:
        value = bell_fidelity(success_state, label) if success_state is not None else math.nan
        metrics.append((f"success_fidelity_{label.value}", value))
    if cfg.trials > 0:
        # trial t draws from the first two uniforms of its (seed, t) stream
        flags = tree.sample_success(trial_uniforms(cfg.seed, cfg.trials))
        estimate, se = success_stats(flags)
        metrics.append(("success_prob_mc", estimate))
        metrics.append(("success_prob_mc_se", se))
    report = ["entanglement operation report"]
    report += [f"  {name} = {_fmt(value)}" for name, value in metrics]
    csv_text = "metric,value\n" + "\n".join(f"{name},{_fmt(value)}" for name, value in metrics) + "\n"
    return "\n".join(report), csv_text, 0


def cmd_pump_sim(cfg: ExperimentConfig, out: str) -> tuple[str, str, int]:
    """Seeded pumping trials; per-trial CSV rows plus a summary, exit 3 if none converges."""
    if cfg.trials < 1:
        raise ConfigError("pump-sim needs trials >= 1")
    rows = ["trial,rounds_to_target,pairs_consumed,converged"]
    rounds_converged: list[int] = []
    for t, stream in enumerate(trial_streams(cfg.seed, cfg.trials)):
        syndromes, converged = pump_until(cfg.eps_z, cfg.target_fidelity, cfg.max_rounds, stream)
        rounds = len(syndromes)  # a fresh pair a round; pairs_consumed adds the initial one
        if converged:
            rounds_converged.append(rounds)
        rows.append(f"{t},{rounds},{rounds + 1},{int(converged)}")
    lines = [
        "pump simulation summary",
        f"  trials = {cfg.trials}",
        f"  non_converged = {cfg.trials - len(rounds_converged)}",
    ]
    if rounds_converged:
        mean = statistics.fmean(rounds_converged)
        lines += [
            f"  mean_rounds = {_fmt(mean)}",
            f"  std_rounds = {_fmt(statistics.pstdev(rounds_converged))}",
            f"  median_rounds = {_fmt(statistics.median(rounds_converged))}",
            f"  mean_pairs_consumed = {_fmt(mean + 1.0)}",
        ]
        hist = Counter(rounds_converged)
        lines += [f"  rounds={r}: {hist[r]}" for r in sorted(hist)]
    else:
        lines.append("no trial reached the target fidelity")
    return "\n".join(lines), "\n".join(rows) + "\n", 0 if rounds_converged else 3


def cmd_chain_demo(cfg: ExperimentConfig, out: Optional[str]) -> tuple[str, str, int]:
    """Selective operation on a chain; spectator and conservation diagnostics."""
    theta1, theta2 = cfg.angle("theta1"), cfg.angle("theta2")
    try:
        _check_chain(cfg.chain_size, cfg.target_pair)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rep = chain_report(cfg.chain_size, cfg.target_pair, theta1, theta2)
    baseline = generate_resource(theta1, theta2)
    deviation = float(np.max(np.abs(rep.resource.mat - baseline.mat)))
    corrected = corrected_rho(rep.resource, theta2)
    lines = [
        "chain demo report",
        f"  n_static = {cfg.chain_size}",
        f"  target_pair = ({cfg.target_pair}, {cfg.target_pair + 1})",
        f"  target_concurrence = {_fmt(concurrence(rep.resource))}",
        f"  corrected_fidelity_psi_plus = {_fmt(bell_fidelity(corrected, BellLabel.PSI_PLUS))}",
        f"  deviation_from_two_qubit_case = {_fmt(deviation)}",
        f"  magnetization_before = {_fmt(rep.magnetization_before)}",
        f"  magnetization_after = {_fmt(rep.magnetization_after)}",
        f"  magnetization_drift = {_fmt(abs(rep.magnetization_after - rep.magnetization_before))}",
    ]
    for idx, purity in rep.spectator_purities:
        lines.append(f"  spectator_{idx}_purity = {_fmt(purity)}")
    text = "\n".join(lines)
    return text, text + "\n", 0


class _Command(NamedTuple):
    run: Callable[[ExperimentConfig, Optional[str]], tuple[str, str, int]]  # stdout, file, code
    keys: tuple[str, ...]  # the config keys the command reads, each also a --flag
    out: Optional[str]  # the file written without --out; None writes none
    help: str


_NOISE_KEYS = ("eps_init", "eps_z", "eps_relax")
_COMMANDS = {
    "sweep-concurrence": _Command(cmd_sweep_concurrence, ("theta1", "theta2", *_NOISE_KEYS, "out"),
                                  "sweep.csv",
                                  "concurrence of the generated resource over an angle grid"),
    "eo-run": _Command(cmd_eo_run, ("theta1", "theta2", *_NOISE_KEYS, "trials", "seed", "out"),
                       "eo_run.csv",
                       "single entanglement-operation report with exact and sampled statistics"),
    "pump-sim": _Command(cmd_pump_sim,
                         ("eps_z", "trials", "seed", "target_fidelity", "max_rounds", "out"),
                         "pump_sim.csv", "Monte Carlo entanglement-pumping trajectories"),
    "chain-demo": _Command(cmd_chain_demo, ("theta1", "theta2", "chain_size", "target_pair", "out"),
                           None, "selective operation on a chain of static qubits"),
}


_HELP = ("-h", "--help")


def _flags(command: str) -> dict[str, str]:
    """The command's flags, each mapped to its key; --config maps to "config"."""
    return {"--" + key.replace("_", "-"): key for key in ("config", *_COMMANDS[command].keys)}


def _parse_argv(argv: list[str]) -> tuple[Optional[str], Optional[dict[str, str]]]:
    """argv as (CMD, {key: VALUE}); -h or --help gives flags None, and CMD None if it is first."""
    command, *rest = argv or [""]
    if command in _HELP:
        return None, None
    if command not in _COMMANDS:
        given = f"unknown command {command!r}" if command else "missing command"
        raise ConfigError(f"{given}; choose from {', '.join(_COMMANDS)}")
    known, flags = _flags(command), {}
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            return command, None
        flag, has_value, value = token.partition("=")
        if flag not in known:
            raise ConfigError(f"unrecognized arguments: {flag}")
        if not has_value and (value := next(tokens, None)) is None:  # even one starting with "-"
            raise ConfigError(f"{flag} needs a value")
        if known[flag] in flags:
            raise ConfigError(f"{flag} given twice")
        flags[known[flag]] = value
    return command, flags


def _usage(command: Optional[str]) -> str:
    """The --help text: every command, or one command's flags with their key help."""
    if command is None:
        about = "Spin-chain entanglement-operation simulator; 'flyspin COMMAND -h' lists its flags"
        rows = [(name, spec.help) for name, spec in _COMMANDS.items()]
    else:
        about = _COMMANDS[command].help
        rows = [(flag, _KEYS[key][1] if key in _KEYS else "key = value config file")
                for flag, key in _flags(command).items()]
    return "\n".join([
        f"usage: flyspin {command or 'COMMAND'} [--key VALUE | --key=VALUE]... | -h | --help",
        "", about, "", *(f"  {name:<20}{text}" for name, text in rows), "",
        "Each flag at most once; any value may start with '-'.",
        "Angles are in units of pi (0.25 means pi/4); grids are START:STOP:STEPS.",
    ])


def main(argv: Optional[list[str]] = None) -> int:
    try:
        command, flags = _parse_argv(sys.argv[1:] if argv is None else argv)
        if flags is None:
            print(_usage(command))
            return 0
        cfg, spec = _resolve(command, flags), _COMMANDS[command]
        out = cfg.out or spec.out
        stdout_text, file_text, code = spec.run(cfg, out)
        if out:
            _write_outputs(cfg, out, file_text)
        print(stdout_text)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
