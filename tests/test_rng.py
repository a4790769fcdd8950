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
    # a float is refused, never truncated to a neighbouring stream
    for seed, trial in ((7.9, 0), (7.0, 0), (7, 0.0), (7, np.float64(3))):
        with pytest.raises(ValueError, match="64-bit"):
            trial_rng(seed, trial)
    # numpy integers are integers
    expected = trial_rng(7, 3).random(4)
    for seed, trial in ((np.uint64(7), np.int64(3)), (np.int64(7), np.uint64(3))):
        assert np.array_equal(trial_rng(seed, trial).random(4), expected)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 - 1, 2**64 - 1])
def test_bulk_uniforms_equal_trial_rng_bit_for_bit(seed):
    for trials in (0, 1, 2, 5):
        bulk = trial_uniforms(seed, trials)
        assert bulk.shape == (trials, 2)
        expected = np.array([trial_rng(seed, t).random(2) for t in range(trials)]).reshape(bulk.shape)
        assert np.array_equal(bulk.view(np.uint64), expected.view(np.uint64))


def test_bulk_uniforms_cross_the_chunk_size():
    chunk = rng_module._CHUNK
    # one row past a full chunk, and three full chunks
    bulk = trial_uniforms(1, chunk + 1)
    for t in (0, chunk - 1, chunk):
        assert np.array_equal(bulk[t], trial_rng(1, t).random(2))
    bulk = trial_uniforms(2**64 - 1, 3 * chunk)
    assert bulk.shape == (3 * chunk, 2)
    for t in (chunk, 2 * chunk, 3 * chunk - 1):
        assert np.array_equal(bulk[t], trial_rng(2**64 - 1, t).random(2))
    assert trial_uniforms(1, 0).shape == (0, 2)


def test_bulk_uniforms_range_checks():
    for args in [
        (2**64, 1),
        (-1, 1),
        (1.9, 1),
        (1, -1),
        (1, 2**64),
        (1, 2.0),
        (1, np.float64(2)),
    ]:
        with pytest.raises(ValueError, match="64-bit"):
            trial_uniforms(*args)
    # the message names the argument and the offending value
    for args, message in (
        ((-1, 1), "master_seed must be a 64-bit unsigned value, got -1"),
        ((1, -1), "trials must be a 64-bit unsigned value, got -1"),
        ((1, 2.0), "trials must be a 64-bit unsigned value, got 2.0"),
    ):
        with pytest.raises(ValueError) as err:
            trial_uniforms(*args)
        assert str(err.value) == message
    # numpy integers are integers
    bulk = trial_uniforms(np.uint64(1), np.int64(3))
    assert np.array_equal(bulk, trial_uniforms(1, 3))
    assert np.array_equal(trial_uniforms(np.int64(1), np.uint64(3)), bulk)


def test_trial_streams_read_as_trial_rng_in_order():
    # each stream, read in uneven pieces before the next is drawn, is its
    # trial's stream bit for bit: the key, the counter and the buffer are
    # all reset between trials (1045 uniforms leave a block part-read)
    reads = (5, 11, 3, 1024, 0, 2)
    for seed in (13, 2**63, 2**64 - 1):
        drawn = 0
        for t, stream in enumerate(trial_streams(seed, 3)):
            got = np.concatenate([stream.random(n) for n in reads])
            assert np.array_equal(got, trial_rng(seed, t).random(sum(reads))), (seed, t)
            drawn += 1
        assert drawn == 3
    assert list(trial_streams(13, 0)) == []


def test_trial_streams_reset_a_half_read_word():
    # a float32 draw takes half a 64-bit word and buffers the other half
    # (has_uint32); the re-key must drop it, so the next stream's first
    # float32 draw is its own and not the previous stream's leftover half
    for seed in (13, 2**63, 2**64 - 1):
        for t, stream in enumerate(trial_streams(seed, 3)):
            ref = trial_rng(seed, t)
            for draw in (lambda g: g.random(1, dtype=np.float32), lambda g: g.random(3)):
                assert draw(stream).tobytes() == draw(ref).tobytes(), (seed, t)
            assert stream.bit_generator.state["has_uint32"] == 1


def test_trial_streams_check_their_arguments_at_the_call():
    # the checks run when the streams are asked for, not at the first next()
    for args, message in (
        ((1.0, 3), "master_seed must be a 64-bit unsigned value, got 1.0"),
        ((1, -1), "trials must be a 64-bit unsigned value, got -1"),
    ):
        with pytest.raises(ValueError) as err:
            trial_streams(*args)
        assert str(err.value) == message
