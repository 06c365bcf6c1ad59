"""Counter-based randomness with per-trial substreams.

Monte Carlo trials each draw from a Philox stream keyed by (seed, trial).
Philox is counter-based: the key fixes the whole stream, so a trial's draws
depend only on (seed, trial) and its own draw order -- never on which
worker ran it or in what order trials executed. That makes experiment
output byte-reproducible at any parallelism level.

trial_generator builds a fresh generator for one trial. The stream has a
second implementation: philox_words computes the words of many trials'
streams at once in numpy, since each 4-word Philox4x64-10 block is a pure
function of its counter and key. A property test pins it to numpy's Philox
bit for bit (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11).

An engine running many trials keeps one TrialStreams and resumes its
generator in each trial's substream by the count of words the trial has
drawn: the key and the counter fix the stream, so that count is the trial's
whole place in it, and setting the key and counter on an existing generator
yields exactly the stream a fresh one would from there, without building
(and seeding from OS entropy) a new bit generator each time.
"""

from __future__ import annotations

import numpy as np


_MASK64 = (1 << 64) - 1

# Philox4x64-10: the round multipliers of counter words 0 and 2, stacked to
# multiply both words at once, and the Weyl increments of key words 0 and 1
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                     dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_M_HI, _M_LO = _PHILOX_M >> _32, _PHILOX_M & _LOW32


def trial_generator(seed, trial):
    """Deterministic substream for one trial of one experiment.

    seed and trial are reduced mod 2^64, so negative seeds are accepted
    (and still deterministic)."""
    key = np.array([int(seed) & _MASK64, int(trial) & _MASK64],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(x):
    """(high, low) 64-bit halves of the 128-bit products _PHILOX_M * x, for
    a uint64 array x that stacks counter words 0 and 2, from 32-bit limbs:
    no partial sum below overflows 64 bits."""
    x_hi, x_lo = x >> _32, x & _LOW32
    mid = _M_HI * x_lo + ((_M_LO * x_lo) >> _32)
    mid2 = _M_LO * x_hi + (mid & _LOW32)
    return _M_HI * x_hi + (mid >> _32) + (mid2 >> _32), _PHILOX_M * x


def philox_words(seed, trials, count):
    """The first `count` 64-bit words of the substream of each trial in
    `trials` (indices in [0, 2^64)), as a (len(trials), count) uint64
    array: the words numpy's Philox4x64-10 gives for key (seed mod 2^64,
    trial), from counters 1, 2, ... . Generator.random draws word w as the
    double (w >> 11) * 2^-53 (see doubles)."""
    trials = np.asarray(trials, dtype=np.uint64)
    blocks = -(-count // 4)
    # counter words (0, 2), which the rounds multiply, and words (1, 3); the
    # j-th block of words comes from counter (j, 0, 0, 0)
    mul = np.zeros((2, 1, blocks), dtype=np.uint64)
    mul[0] = np.arange(1, blocks + 1)
    rest = np.zeros_like(mul)
    key = np.empty((2, len(trials), 1), dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        key[0] = (int(seed) + r * _PHILOX_W[0]) & _MASK64
        key[1, :, 0] = trials + np.uint64(r * _PHILOX_W[1] & _MASK64)
        hi, lo = _mulhilo(mul)
        # (c0, c1, c2, c3) <- (hi2 ^ c1 ^ k0, lo2, hi0 ^ c3 ^ k1, lo0)
        mul, rest = hi[::-1] ^ rest ^ key, lo[::-1]
    words = np.stack([mul[0], rest[0], mul[1], rest[1]], axis=-1)
    return words.reshape(len(trials), 4 * blocks)[:, :count]


def doubles(words):
    """The uniform doubles in [0, 1) that Generator.random draws from
    Philox words."""
    return (words >> np.uint64(11)) * 2.0 ** -53


class TrialStreams:
    """One Philox generator, resumed at any point of any trial's substream.

    resume(seed, trial, count) returns the shared generator in the state
    trial_generator(seed, trial) reaches after its first `count` words, so
    every draw the trial makes from there is the same as from its own
    generator -- as long as the trial finishes drawing before the next
    resume. Forked workers inherit a copy.
    """

    def __init__(self):
        self._bit_generator = np.random.Philox(0)
        self._generator = np.random.Generator(self._bit_generator)
        self._key = [0, 0]
        self._counter = [0, 0, 0, 0]
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": self._counter, "key": self._key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def resume(self, seed, trial, count):
        """The shared generator, in trial's substream after its first
        `count` words: at the end of block count // 4, its buffer exhausted,
        then past the count % 4 words drawn from the next block."""
        self._key[:] = int(seed) & _MASK64, int(trial) & _MASK64
        self._counter[0] = count // 4
        self._bit_generator.state = self._state
        if count % 4:
            self._bit_generator.random_raw(count % 4)
        return self._generator
