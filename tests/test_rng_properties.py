"""Property tests of the trial streams and prefetched deviates.

The engine re-keys one shared generator at the start of each trial's
Philox stream and draws the trial's whole stream from there, its walk
deviates ahead of the walk, for decoder.sample_walks; each must reproduce,
draw for draw, what a fresh rng.trial_generator(seed, trial) would give. The public one-walk calls
draw the same deviates, one per syndrome subspace, in one call.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qeclab import (apply_channel, build_syndrome_table, correct, encode,
                    load_code, measure_exhaustive, measure_hierarchical,
                    random_channel, trial_generator)
from qeclab.decoder import sample_walk, sample_walks
from qeclab.rng import TrialStreams

# derandomized, so that every run of the suite checks the same examples
SETTINGS = settings(max_examples=50, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

SEEDS = st.integers(-(1 << 64), (1 << 64) - 1)
TRIALS = st.integers(0, (1 << 64) - 1)
TABLES = {name: build_syndrome_table(load_code(name), 1, flt)
          for name, flt in [("phase3", "phase-only"), ("shor9", "all"),
                            ("perfect5", "all")]}


def draws(rng, sizes):
    """Alternating uniform and standard-normal draws of the given sizes."""
    return [rng.random(k) if j % 2 == 0 else rng.standard_normal(k)
            for j, k in enumerate(sizes)]


@SETTINGS
@given(st.lists(st.tuples(SEEDS, TRIALS, st.lists(st.integers(0, 40),
                                                  max_size=4)),
                min_size=1, max_size=6))
# draws that end mid-block, on keys at both ends of the trial range
@example([(0, 0, [count, 3, 2]) for count in range(9)])
@example([((1 << 64) - 1, (1 << 64) - 1, [8, 4, 5]),
          (-(1 << 64), (1 << 63) - 1, [12, 3, 2, 7]), (7, 3, [5, 2, 1, 4])])
def test_a_rekeyed_generator_replays_each_trials_stream(keys):
    streams = TrialStreams()
    # any order, repeated keys included, and a stream abandoned partway
    for seed, trial, sizes in keys + keys[::-1]:
        got = draws(streams.resume(seed, trial), sizes)
        want = draws(trial_generator(seed, trial), sizes)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@st.composite
def walks(draw):
    """(table, p, p_none): syndrome probabilities over a table, with
    exact zeros and masses around the zero threshold among them."""
    table = TABLES[draw(st.sampled_from(sorted(TABLES)))]
    weights = draw(st.lists(
        st.one_of(st.just(0.0), st.just(1e-20), st.just(1e-13),
                  st.floats(0.0, 1.0)),
        min_size=len(table) + 1, max_size=len(table) + 1))
    if table.is_complete:
        weights[-1] = 0.0
    total = sum(weights)
    if total == 0.0:
        weights[0] = total = 1.0
    return table, [w / total for w in weights[:-1]], weights[-1] / total


def noisy_block(code):
    """(corrupted block, encoded reference) of a code: qubits 0 and 2 sent
    through random channels, so that its walks can end in many subspaces
    (and, for an incomplete table, in the complement)."""
    ref = encode(code, np.array([0.6, 0.8]))
    rng = np.random.default_rng(1)
    state = ref
    for qubit in (0, 2):
        state = apply_channel(state, qubit, random_channel(2, rng))
    return state, ref


BLOCKS = {name: noisy_block(table.code) for name, table in TABLES.items()}


def value_after(seed, trial, count):
    """The value a fresh trial_generator(seed, trial) draws after count."""
    rng = trial_generator(seed, trial)
    rng.random(count)
    return rng.random()


@SETTINGS
@given(walks(), SEEDS, TRIALS, st.booleans())
def test_prefetched_deviates_drive_the_same_walk(walk, seed, trial, dyadic):
    table, p, p_none = walk
    rng = trial_generator(seed, trial)
    i, trace, forced = sample_walk(table, p, p_none, rng, dyadic)
    prefetched = trial_generator(seed, trial).random((1, len(table)))
    got = sample_walks(table, np.array([p]), np.array([p_none]), prefetched,
                       dyadic)
    assert [int(a[0]) for a in got] == [len(table) if i is None else i,
                                        len(trace), forced]
    # a public walk gives up one deviate per subspace, however many
    # measurements it takes; complete (phase3, perfect5) and incomplete
    # (shor9) tables alike
    assert rng.random() == value_after(seed, trial, len(table))
    for name, public in TABLES.items():
        state, ref = BLOCKS[name]
        want = value_after(seed, trial, len(public))
        for strategy, measure in [("exhaustive", measure_exhaustive),
                                  ("hierarchical", measure_hierarchical)]:
            rng = trial_generator(seed, trial)
            correct(state, public, strategy, rng, ref)
            assert rng.random() == want
            rng = trial_generator(seed, trial)
            measure(state, public, rng)
            assert rng.random() == want
