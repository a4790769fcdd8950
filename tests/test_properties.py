"""Property-based checks of the parity gadget and the trial streams.

Hypothesis runs derandomized and without an example database, so every
run draws the same examples and the suite stays deterministic.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flyspin.channels import NoiseParams
from flyspin.protocol import ROUND_OUTCOMES, ParityTree, generate_resource, parity_success_output, parity_tree
from flyspin.rng import trial_rng, trial_streams, trial_uniforms

from helpers import born_weights

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
    assert tree.sample_success(trial_uniforms(seed, trials, 2)).tolist() == expected


@settings(_SETTINGS, max_examples=100)
@given(seed=seeds, trials=st.integers(0, 3), count=st.integers(0, 40))
def test_bulk_and_rekeyed_streams_read_as_trial_rng(seed, trials, count):
    expected = [trial_rng(seed, t).random(count).view(np.uint64).tolist() for t in range(trials)]
    assert trial_uniforms(seed, trials, count).view(np.uint64).tolist() == expected
    assert [s.random(count).view(np.uint64).tolist() for s in trial_streams(seed, trials)] == expected
