import numpy as np
import pytest

from flyspin import rng as rng_module
from flyspin.rng import trial_rng, trial_streams, trial_uniforms

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


TRIAL_SETS = (
    [0],
    [1],
    [7],
    [2**64 - 1],
    [9, 2, 2**64 - 1, 40, 2],  # non-contiguous
    range(2**64 - 3, 2**64),
    np.array([2**64 - 1, 0, 2**63], dtype=np.uint64),
)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 - 1, 2**64 - 1])
def test_bulk_uniforms_equal_trial_rng_bit_for_bit(seed):
    for trials in TRIAL_SETS:
        streams = [trial_rng(seed, t).random(1039 + 33) for t in trials]
        for start in (0, 1, 3, 5, 16, 1039):
            for count in (0, 1, 2, 3, 4, 5, 7, 8, 9, 33):  # across 4-word block boundaries
                bulk = trial_uniforms(seed, trials, start, count)
                assert bulk.shape == (len(trials), count)
                expected = np.array([s[start : start + count] for s in streams]).reshape(bulk.shape)
                assert np.array_equal(bulk.view(np.uint64), expected.view(np.uint64))


def test_bulk_uniforms_cross_the_chunk_size():
    words = 4 * rng_module._CHUNK
    # one trial longer than a chunk, and three trials whose blocks together exceed one
    for trials, start, count in (([5], 3, words + 6), ([0, 11, 2**64 - 1], 2, words // 3 + 1)):
        bulk = trial_uniforms(2**64 - 1, trials, start, count)
        for row, t in zip(bulk, trials):
            assert np.array_equal(row, trial_rng(2**64 - 1, t).random(start + count)[start:])
    assert trial_uniforms(1, range(3 * rng_module._CHUNK), 0, 1).shape == (3 * rng_module._CHUNK, 1)
    assert trial_uniforms(1, [], 5, 3).shape == (0, 3)


def test_bulk_uniforms_range_checks():
    for args in [
        (2**64, [0], 0, 1),
        (-1, [0], 0, 1),
        (1, [0, 2**64], 0, 1),
        (1, [3, -1, 4], 0, 1),
        (1, [np.int64(-1)], 0, 1),
        (1, range(-1, 2), 0, 1),
        (1, range(2**64 - 1, 2**64 + 1), 0, 1),
        (1, [0], -1, 1),
        (1, [0], 2**64, 1),
        (1, [0], 0, -1),
        (1, [0], 0, 2**64),
    ]:
        with pytest.raises(ValueError, match="64-bit"):
            trial_uniforms(*args)
    # the message names the offending trial index
    for trials, value in (([3, -1, 4], "-1"), ([0, 2**64], str(2**64)), (range(-1, 2), "-1")):
        with pytest.raises(ValueError) as err:
            trial_uniforms(1, trials, 0, 1)
        assert str(err.value) == f"trial_index must be a 64-bit unsigned value, got {value}"


def test_trial_streams_continue_past_the_head():
    for t, stream in zip((4, 2**64 - 1), trial_streams(13, (4, 2**64 - 1), 16)):
        reads = [stream.random(n) for n in (5, 11, 3, 1024, 0, 2)]
        assert np.array_equal(np.concatenate(reads), trial_rng(13, t).random(5 + 11 + 3 + 1024 + 2))
