"""Deterministic random streams for trial-parallel experiments.

The package uses numpy's Philox bit generator (Philox-4x64-10, a
counter-based generator with a 128-bit key). Each Monte Carlo trial draws
from its own stream keyed statelessly by (master_seed, trial_index), so
results never depend on execution order or thread scheduling and any trial
can be reproduced in isolation.

A stream is a pure function of its key and counter (Salmon, Moraes, Dror &
Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11). Stream
position rule, as in numpy's ``philox.h``: uniform ``i`` of a stream is
64-bit word ``i``, word ``i`` is word ``i % 4`` of block ``j = i // 4``,
and block ``j`` is Philox-4x64-10 of the counter ``(j + 1, 0, 0, 0)``
(numpy increments the counter before it computes each block). A uniform
is ``(word >> 11) * 2**-53``. So ``trial_uniforms`` computes block 0 of
trials 0 to n - 1 in one vectorized pass instead of building a generator
per trial, and its words 0 and 1 are the two uniforms ``eo-run`` draws a
trial. For the same reason ``trial_streams`` serves any number of trials
from one generator: it builds ``trial_rng(master_seed, 0)`` and re-keys it
to ``(master_seed, t)`` at counter 0 before trial ``t``, so each trial
reads its own stream once, in order, and a run holds one stream at a time.
The re-key copies in the generator's initial state held as plain ints,
which numpy's Philox state setter reads faster than numpy arrays.
``trial_rng`` is thus both the definition of a trial's stream and the one
place a keyed Philox generator is built.

The bulk pass runs the Philox rounds in place on arrays made once per
chunk of ``_CHUNK`` trials, keys included, and its last two rounds make
only what words 0 and 1 read. Its temporaries are 136 bytes per trial,
2.2 MB for a full chunk, at any trial count. They are local to the call:
the module holds no state between calls, only constants.

Reference draws, frozen as regression vectors (see tests):

    trial_rng(42, 0).integers(0, 2**64, 4, dtype=np.uint64)
        -> 15129985323320379406, 3490965594592278910,
           16005516994917231875, 7278743398533373529
    trial_rng(42, 1).integers(0, 2**64, 4, dtype=np.uint64)
        -> 8185685891515899014, 15059776042128308896,
           9389875783783897555, 7150301906005111658
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence

import numpy as np

_U64 = 2**64
_LO32 = 0xFFFFFFFF

# Philox-4x64 multipliers and Weyl key increments
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_ROUNDS = 10

# trials per vectorized pass, one Philox block each: a 10k-trial eo-run
# takes one pass, and the temporaries stay bounded at any trial count
_CHUNK = 16384


def _check_u64(name: str, value: int) -> int:
    try:
        if 0 <= (v := operator.index(value)) < _U64:
            return v
    except TypeError:  # not an integer, a float say: never truncated
        pass
    raise ValueError(f"{name} must be a 64-bit unsigned value, got {value}")


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent stream for one trial, keyed by (master_seed, trial_index)."""
    key = np.array(
        [_check_u64("master_seed", master_seed), _check_u64("trial_index", trial_index)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(
    m: int, x: np.ndarray, hi: np.ndarray, lo: np.ndarray, scratch: Sequence[np.ndarray]
) -> None:
    """Write the high and low words of the 128-bit products m * x into hi and lo.

    The products are built from 32-bit halves, every step in place; ``scratch``
    holds three arrays of x's shape.
    """
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & _LO32)
    x_lo, x_hi, cross = scratch
    np.bitwise_and(x, _LO32, out=x_lo)
    np.right_shift(x, 32, out=x_hi)
    np.multiply(x, np.uint64(m), out=lo)
    np.multiply(x_hi, m_hi, out=hi)
    np.multiply(x_lo, m_lo, out=cross)  # lo_lo
    np.right_shift(cross, 32, out=cross)
    np.multiply(x_hi, m_lo, out=x_hi)  # hi_lo
    np.multiply(x_lo, m_hi, out=x_lo)  # lo_hi
    cross += x_lo
    np.bitwise_and(x_hi, _LO32, out=x_lo)
    cross += x_lo  # (lo_lo >> 32) + (hi_lo & LO32) + lo_hi, at most 2**64 - 1
    np.right_shift(x_hi, 32, out=x_hi)
    hi += x_hi
    np.right_shift(cross, 32, out=cross)
    hi += cross


def _philox(seed: int, keys: np.ndarray, out: np.ndarray) -> None:
    """Write words 0 and 1 of Philox-4x64-10 of the counter (1, 0, 0, 0) under keys (seed, keys).

    ``out`` has shape (n, 2). Rounds 1 to 8 each read one set of four words
    and write the next into a second set. Words 0 and 1 of round 10 read
    only words 1 and 2 of round 9, so round 9 writes only those two,
    lo(M1 c2) as a plain product and hi(M0 c0) ^ c3 ^ k1 (whose
    ``_mulhilo`` still makes lo(M0 c0), left unread), and round 10 only
    hi and lo of M1 c2 and one xor pair.
    """
    n = len(keys)
    hi0, hi1, k1, *scratch = np.empty((6, n), dtype=np.uint64)
    words, nxt = np.zeros((4, n), dtype=np.uint64), np.empty((4, n), dtype=np.uint64)
    words[0] = 1
    for r in range(_ROUNDS - 2):
        # the key gets (W0, W1) added before rounds 2 to 10
        k0 = np.uint64((seed + r * _W0) % _U64)
        np.add(keys, np.uint64(r * _W1 % _U64), out=k1)
        c0, c1, c2, c3 = words
        _mulhilo(_M0, c0, hi0, nxt[3], scratch)
        _mulhilo(_M1, c2, hi1, nxt[1], scratch)
        np.bitwise_xor(hi1, c1, out=nxt[0])
        np.bitwise_xor(nxt[0], k0, out=nxt[0])
        np.bitwise_xor(hi0, c3, out=nxt[2])
        np.bitwise_xor(nxt[2], k1, out=nxt[2])
        words, nxt = nxt, words
    # round 9: word 1 is lo(M1 c2) and word 2 is hi(M0 c0) ^ c3 ^ k1
    c0, _, c2, c3 = words
    np.add(keys, np.uint64((_ROUNDS - 2) * _W1 % _U64), out=k1)
    _mulhilo(_M0, c0, hi0, nxt[3], scratch)
    np.bitwise_xor(hi0, c3, out=nxt[2])
    np.bitwise_xor(nxt[2], k1, out=nxt[2])
    np.multiply(c2, np.uint64(_M1), out=nxt[1])
    # round 10: word 0 is hi(M1 c2) ^ c1 ^ k0 and word 1 is lo(M1 c2)
    _mulhilo(_M1, nxt[2], hi1, out[:, 1], scratch)
    np.bitwise_xor(hi1, nxt[1], out=out[:, 0])
    np.bitwise_xor(out[:, 0], np.uint64((seed + (_ROUNDS - 1) * _W0) % _U64), out=out[:, 0])


def trial_uniforms(master_seed: int, trials: int) -> np.ndarray:
    """The first two uniforms of trials ``0`` to ``trials - 1``, in one pass.

    Returns shape ``(trials, 2)``; row ``t`` equals
    ``trial_rng(master_seed, t).random(2)`` bit for bit, words 0 and 1 of
    the stream's first Philox block, one uniform per round of the parity
    gadget. Seed and ``trials`` must be 64-bit unsigned integers.

    Trials are computed in chunks of ``_CHUNK``. Each chunk makes its keys
    and arrays once and runs the rounds in place: seventeen uint64 words a
    trial, 2.2 MB for a full chunk (``tracemalloc`` peak 2.49 MB at 16384
    trials, the 262 kB result included). Nothing is kept between calls.
    """
    seed, n = _check_u64("master_seed", master_seed), _check_u64("trials", trials)
    out = np.empty((n, 2))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        words = np.empty((hi - lo, 2), dtype=np.uint64)
        _philox(seed, np.arange(lo, hi, dtype=np.uint64), words)
        np.right_shift(words, 11, out=words)
        np.multiply(words, 2.0**-53, out=out[lo:hi])
    return out


def trial_streams(master_seed: int, trials: int) -> Iterator[np.random.Generator]:
    """The streams of trials ``0`` to ``trials - 1``, in order, from one generator.

    Stream ``t`` reads as ``trial_rng(master_seed, t)``: the one generator
    is ``trial_rng(master_seed, 0)``, and before yielding stream ``t`` it is
    re-keyed to ``(master_seed, t)`` at counter 0 with an empty buffer. The
    re-key copies in that generator's initial state with its counter, key
    and buffer held as lists of plain ints, which the Philox state setter
    reads faster than numpy arrays; the state it sets is the same. Each
    stream is valid until the next one is drawn. Seed and ``trials`` are
    checked at the call, as in ``trial_uniforms``.
    """
    stream = trial_rng(master_seed, 0)
    n, bits = _check_u64("trials", trials), stream.bit_generator
    fresh = bits.state  # counter 0, buffer_pos 4: empty
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()

    def rekeyed(t: int) -> np.random.Generator:
        fresh["state"]["key"][1] = t
        bits.state = fresh  # copied in, so ``fresh`` stays at counter 0
        return stream

    return map(rekeyed, range(n))
