"""Property-based checks of the parity gadget, the trial streams, the
pumping walk, stacked tensor products and the command-line config boundary.

Hypothesis runs derandomized and without an example database, so every
run draws the same examples and the suite stays deterministic.
"""

import contextlib
import io
import math
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flyspin.channels import NoiseParams
from flyspin.cli import _COMMANDS, main
from flyspin.protocol import (
    ROUND_OUTCOMES,
    ParityTree,
    fresh_pair_fidelity,
    generate_resource,
    parity_success_output,
    parity_tree,
    pump_until,
    _pump_lattice,
)
from flyspin.qcore import DensityMatrix, tensor_dm
from flyspin.rng import trial_rng, trial_streams, trial_uniforms

from helpers import born_weights, random_density, scalar_walk

_SETTINGS = settings(derandomize=True, database=None, deadline=None)

angles = st.floats(-20.0, 20.0)
probabilities = st.floats(0.0, 1.0)
noises = st.builds(NoiseParams, eps_init=probabilities, eps_z=probabilities, eps_relax=probabilities)
seeds = st.integers(0, 2**64 - 1)


@settings(_SETTINGS, max_examples=200)
@given(theta1=angles, theta2=angles, eps_init=probabilities)
def test_success_probability_is_the_closed_form(theta1, theta2, eps_init):
    p1 = 2.0 * math.cos(theta1) ** 2 * math.sin(theta2) ** 2
    p2 = 2.0 * math.sin(theta1) ** 2
    tree = parity_tree(generate_resource(theta1, theta2, NoiseParams(eps_init=eps_init)))
    assert abs(parity_success_output(tree)[0] - 0.5 * (1.0 - eps_init) ** 2 * p1 * p2) < 1e-12


@settings(_SETTINGS, max_examples=200)
@given(theta1=angles, theta2=angles, noise=noises)
def test_kept_leaves_and_truncated_mass_sum_to_one(theta1, theta2, noise):
    tree = parity_tree(generate_resource(theta1, theta2, noise))
    kept = math.fsum(prob for _, _, prob, _ in tree.leaves())
    assert abs(kept + tree.truncated_mass - 1.0) < 1e-12


@settings(_SETTINGS, max_examples=60)
@given(theta1=angles, theta2=angles, noise=noises, seed=seeds, trials=st.integers(1, 200))
def test_sampled_success_is_the_generator_choice_draw(theta1, theta2, noise, seed, trials):
    tree = parity_tree(generate_resource(theta1, theta2, noise))
    expected = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        i = int(rng.choice(4, p=born_weights(tree.first)))
        j = int(rng.choice(4, p=born_weights(tree.second[i])))
        expected.append(ParityTree.is_success(ROUND_OUTCOMES[i], ROUND_OUTCOMES[j]))
    assert tree.sample_success(trial_uniforms(seed, trials)).tolist() == expected


@settings(_SETTINGS, max_examples=100)
@given(seed=seeds, trials=st.integers(0, 3), count=st.integers(0, 40))
def test_bulk_and_rekeyed_streams_read_as_trial_rng(seed, trials, count):
    expected = [trial_rng(seed, t).random(count).view(np.uint64).tolist() for t in range(trials)]
    assert [s.random(count).view(np.uint64).tolist() for s in trial_streams(seed, trials)] == expected
    pairs = [trial_rng(seed, t).random(2).view(np.uint64).tolist() for t in range(trials)]
    assert trial_uniforms(seed, trials).view(np.uint64).tolist() == pairs


@settings(_SETTINGS, max_examples=200)
@given(eps_z=st.floats(0.0, 0.49), above=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       max_rounds=st.integers(0, 300), seed=seeds)
def test_pump_walk_replays_its_lattice(eps_z, above, max_rounds, seed):
    fresh = fresh_pair_fidelity(eps_z)
    target = fresh + (1.0 - fresh) * above
    assume(fresh < target < 1.0)
    syndromes, converged = pump_until(eps_z, target, max_rounds, trial_rng(seed, 0))
    assert set(syndromes) <= {0, 1}
    # the walk starts at index max_rounds of the table, the fresh pair's site
    p_even, stop, _ = _pump_lattice(fresh, target, max_rounds)
    steps = np.frombuffer(syndromes, dtype=np.uint8).astype(np.int64) * 2 - 1
    sites = max_rounds + np.concatenate(([0], np.cumsum(steps)))
    assert 0 <= sites.min() and sites.max() < len(p_even)
    assert (sites[:-1] < stop).all() and (sites[-1] == stop) == converged
    assert converged or len(syndromes) == max_rounds
    assert (syndromes, converged) == scalar_walk(eps_z, target, max_rounds, trial_rng(seed, 0))


@settings(_SETTINGS, max_examples=50)
@given(eps_z=st.floats(0.0, 0.5), below=st.floats(0.0, 1.0, exclude_max=True),
       max_rounds=st.integers(0, 300), seed=seeds)
def test_pump_walk_from_a_pair_at_the_target_takes_no_round(eps_z, below, max_rounds, seed):
    target = min(fresh_pair_fidelity(eps_z), below)
    assert pump_until(eps_z, target, max_rounds, trial_rng(seed, 0)) == (b"", True)


def _stacked_density(n_qubits, shape, rng):
    """A stack of random n-qubit states with stack shape ``shape``."""
    d = 2**n_qubits
    states = [random_density(n_qubits, rng).mat for _ in range(math.prod(shape))]
    return DensityMatrix(np.reshape(states, (*shape, d, d)))


@st.composite
def broadcastable_shapes(draw):
    """Two stack shapes that broadcast: a common shape, each axis kept or set to 1, some leading axes dropped."""
    common = draw(st.lists(st.integers(1, 3), max_size=3))
    pair = []
    for _ in range(2):
        axes = [draw(st.sampled_from((size, 1))) for size in common]
        pair.append(tuple(axes[draw(st.integers(0, len(axes))):]))
    return pair


@settings(_SETTINGS, max_examples=60)
@given(qubits=st.tuples(st.integers(1, 3), st.integers(1, 3)), shapes=broadcastable_shapes(),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_tensor_product_is_kron_at_every_index(qubits, shapes, seed):
    rng = np.random.default_rng(seed)
    a, b = (_stacked_density(n, shape, rng) for n, shape in zip(qubits, shapes))
    joint = tensor_dm(a, b).mat
    stack = np.broadcast_shapes(*shapes)
    assert joint.shape == (*stack, 2 ** sum(qubits), 2 ** sum(qubits))
    a_mat = np.broadcast_to(a.mat, (*stack, *a.mat.shape[-2:]))
    b_mat = np.broadcast_to(b.mat, (*stack, *b.mat.shape[-2:]))
    for idx in np.ndindex(*stack):
        expected = np.kron(a_mat[idx], b_mat[idx])
        assert np.array_equal(joint[idx].view(np.uint64), expected.view(np.uint64)), idx


# config-boundary values: angles, grids and two-part specs in units of pi, numbers, and
# garbage text; every drawn integer is at most 100 or above every ceiling, so a run stays small
angle_texts = st.floats(-2.0, 2.0).map(repr)
grid_texts = st.builds("{}:{}:{}".format, angle_texts, angle_texts, st.integers(-1, 5))
negative_texts = st.integers(-(2**64), -1).map(str)
number_texts = st.one_of(
    negative_texts,
    st.integers(-3, 100).map(str),
    st.floats(-0.5, 1.5).map(repr),
    st.sampled_from(["nan", "inf", "-0", "1e-300", str(2**64 - 1), str(2**64)]),
)
any_value = st.one_of(angle_texts, grid_texts, st.builds("{}:{}".format, angle_texts, angle_texts),
                      number_texts, st.text(max_size=6))
padding = st.sampled_from(["", " ", "\t"])
sound_grids = st.builds("{}:{}:{}".format, angle_texts, angle_texts, st.integers(2, 5))
# values each key of a command accepts, mostly
sound_values = {
    "eps_init": probabilities.map(repr),
    "eps_z": probabilities.map(repr),
    "eps_relax": probabilities.map(repr),
    "trials": st.integers(1, 100).map(str),
    "seed": st.integers(0, 2**64 - 1).map(str),
    "target_fidelity": st.floats(0.5, 0.9999).map(repr),
    "max_rounds": st.integers(1, 1000).map(str),
    "chain_size": st.integers(2, 5).map(str),
    "target_pair": st.integers(0, 3).map(str),
}


def sound_value(command, key):
    """A value ``command`` mostly accepts for ``key``, padded with whitespace the parsers ignore."""
    if key.startswith("theta"):
        value = sound_grids if command == "sweep-concurrence" else angle_texts
    else:
        value = sound_values[key]
    return st.builds("{0}{1}{0}".format, padding, value)


@st.composite
def argvs(draw, value_of):
    """A command and a flag for each of some of its keys but ``out``, valued by ``value_of``."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    keys = [key for key in _COMMANDS[command].keys if key != "out"]
    argv = [command]
    for key in draw(st.lists(st.sampled_from(keys), unique=True)):
        argv += ["--" + key.replace("_", "-"), draw(value_of(command, key))]
    return argv


def config_texts(command):
    """Config text for ``command``: key lines with any value or a negative integer, and blank,
    comment-only and garbage lines."""
    keys = st.sampled_from([key for key in _COMMANDS[command].keys if key != "out"])
    line = st.one_of(
        padding,
        st.builds("{}#{}".format, padding, st.text(max_size=6)),
        st.builds("{} = {}".format, keys, st.one_of(any_value, negative_texts)),
        st.text(max_size=6),
    )
    return st.lists(line, max_size=3).map("\n".join)


def _main(argv):
    """Exit code and stdout of one in-process invocation; stderr is dropped."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


@st.composite
def spoiled_argvs(draw):
    """Mostly accepted values for some keys of a command, and any value or a negative integer
    for one more, so that a run often gets past the other keys to the check of that one."""
    argv = draw(argvs(sound_value))
    keys = [key for key in _COMMANDS[argv[0]].keys if key != "out"]
    flag = "--" + draw(st.sampled_from(keys)).replace("_", "-")
    if flag in argv:
        del argv[argv.index(flag) : argv.index(flag) + 2]
    return [*argv, flag, draw(st.one_of(any_value, negative_texts))]


@settings(_SETTINGS, max_examples=300)
@given(argv=st.one_of(argvs(lambda command, key: any_value), spoiled_argvs()), data=st.data())
def test_any_argv_exits_0_1_or_3_and_a_refused_one_writes_nothing(argv, data):
    config = data.draw(st.none() | config_texts(argv[0]), label="config")
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            Path(tmp, "in.config").write_text(config)
            argv = [*argv, "--config", os.path.join(tmp, "in.config")]
        code, _ = _main([*argv, "--out", os.path.join(tmp, "run.csv")])
        assert code in (0, 1, 3)
        if code == 1:
            assert os.listdir(tmp) == ([] if config is None else ["in.config"])


@settings(_SETTINGS, max_examples=100)
@given(argv=argvs(sound_value))
def test_config_echo_reproduces_the_run_byte_for_byte(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "run.csv")
        config = Path(f"{out}.config")
        code, stdout = _main([*argv, "--out", str(out)])
        if code == 1:
            return
        first = (out.read_bytes(), config.read_bytes(), stdout)
        again, stdout = _main([argv[0], "--config", str(config)])
        assert (again, (out.read_bytes(), config.read_bytes(), stdout)) == (code, first)
