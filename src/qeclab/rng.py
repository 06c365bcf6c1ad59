"""Counter-based randomness with per-trial substreams.

Monte Carlo trials each draw from a Philox stream keyed by (seed, trial).
Philox is counter-based: the key fixes the whole stream, so a trial's draws
depend only on (seed, trial) and its own draw order -- never on which
worker ran it or in what order trials executed. That makes experiment
output byte-reproducible at any parallelism level.

trial_generator builds a fresh generator for one trial. An engine running
many trials instead keeps one TrialStreams and re-keys its generator at the
start of each trial's substream: setting the key and a zero counter on an
existing generator yields exactly the stream a fresh one would, without
building (and seeding from OS entropy) a new bit generator each time.
"""

from __future__ import annotations

import numpy as np


_MASK64 = (1 << 64) - 1


def trial_generator(seed, trial):
    """Deterministic substream for one trial of one experiment.

    seed and trial are reduced mod 2^64, so negative seeds are accepted
    (and still deterministic)."""
    key = np.array([int(seed) & _MASK64, int(trial) & _MASK64],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class TrialStreams:
    """One Philox generator, re-keyed at the start of any trial's substream.

    resume(seed, trial) returns the shared generator in the state
    trial_generator(seed, trial) starts in, so every draw the trial makes
    is the same as from its own generator -- as long as the trial finishes
    drawing before the next resume. Forked workers inherit a copy.
    """

    def __init__(self):
        self._bit_generator = np.random.Philox(0)
        self._generator = np.random.Generator(self._bit_generator)
        self._key = [0, 0]
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": [0, 0, 0, 0], "key": self._key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def resume(self, seed, trial):
        """The shared generator, at the start of trial's substream: counter
        0, its buffer exhausted."""
        self._key[:] = int(seed) & _MASK64, int(trial) & _MASK64
        self._bit_generator.state = self._state
        return self._generator
