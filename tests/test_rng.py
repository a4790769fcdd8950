import numpy as np
import pytest

from flyspin.rng import trial_rng

# frozen regression vectors for the documented Philox keying; a change here
# would silently break every seeded experiment
VECTOR_SEED42_TRIAL0 = [
    15129985323320379406,
    3490965594592278910,
    16005516994917231875,
    7278743398533373529,
]
VECTOR_SEED42_TRIAL1 = [
    8185685891515899014,
    15059776042128308896,
    9389875783783897555,
    7150301906005111658,
]


def _draw(rng):
    return rng.integers(0, 2**64, size=4, dtype=np.uint64).tolist()


def test_documented_vectors():
    assert _draw(trial_rng(42, 0)) == VECTOR_SEED42_TRIAL0
    assert _draw(trial_rng(42, 1)) == VECTOR_SEED42_TRIAL1


def test_streams_are_stateless_and_reproducible():
    a = trial_rng(7, 3).random(16)
    b = trial_rng(7, 3).random(16)
    assert np.array_equal(a, b)


def test_streams_differ_between_trials_and_seeds():
    base = trial_rng(7, 0).random(16)
    assert not np.array_equal(base, trial_rng(7, 1).random(16))
    assert not np.array_equal(base, trial_rng(8, 0).random(16))


def test_trial_order_does_not_matter():
    forward = [trial_rng(11, t).random() for t in range(5)]
    backward = [trial_rng(11, t).random() for t in reversed(range(5))]
    assert forward == backward[::-1]


def test_seed_bounds():
    with pytest.raises(ValueError, match="64-bit"):
        trial_rng(2**64, 0)
    with pytest.raises(ValueError, match="64-bit"):
        trial_rng(1, -1)
