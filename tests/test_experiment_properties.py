"""Property tests of the batched Monte Carlo engine against a per-trial loop.

The reference runs each trial alone through the public building blocks --
trial_generator, random_channel, encode, apply_channel and correct -- in the
reproducibility contract's draw order: activation (redrawn while it exceeds
the cap), channel parameters, logical state, measurements.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qeclab import (PureState, apply_channel, build_syndrome_table, correct,
                    encode, inner, load_code, make_decoherence,
                    random_channel, trial_generator)
from qeclab.experiment import (ExperimentConfig, _ExperimentContext,
                               run_experiment)

FILTERS = {"phase3": "phase-only", "shor9": "all", "perfect5": "all"}

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_run(config):
    """(records, measurement counts) of config, one trial at a time."""
    code = load_code(config.code)
    t = code.claimed_t
    table = build_syndrome_table(code, t, config.pattern_filter)
    eligible = (list(range(code.n)) if config.qubits == "all"
                else list(config.qubits))
    kind, value = config.channel.split(":")
    records, measurements = [], []
    for trial in range(config.trials):
        rng = trial_generator(config.seed, trial)
        while True:
            activated = [q for q in eligible if rng.random() < config.p]
            if (config.max_active is None
                    or len(activated) <= config.max_active):
                break
        if kind == "random":
            channels = [(q, random_channel(int(value), rng))
                        for q in activated]
        else:
            channels = [(q, make_decoherence(float(value)))
                        for q in activated]
        if config.logical == "random":
            vec = (rng.standard_normal(1 << code.l)
                   + 1j * rng.standard_normal(1 << code.l))
        else:
            vec = np.array(config.logical)
        reference = encode(code, vec / np.linalg.norm(vec))
        state = reference
        for q, ch in channels:
            state = apply_channel(state, q, ch)
        report = correct(state, code, t, config.strategy, rng, reference,
                         pattern_filter=config.pattern_filter, table=table)
        records.append({
            "trial": trial,
            "activated": "+".join(str(q) for q in activated),
            "syndrome": (report.syndrome.text() if report.corrected
                         else "none"),
            "fidelity": report.fidelity,
            "disentangled": report.disentangled,
            "corrected": report.corrected,
        })
        measurements.append(len(report.outcome_trace))
    return records, measurements


@st.composite
def configs(draw):
    code = draw(st.sampled_from(sorted(FILTERS)))
    n = load_code(code).n
    max_active = draw(st.sampled_from([None, 1, 2]))
    qubits = "all"
    if max_active is None and n > 5:
        # keeps the worst-case joint dimension under the cap
        qubits = draw(st.lists(st.integers(0, n - 1), unique=True,
                               max_size=4))
    if draw(st.booleans()):
        channel = "random:%d" % draw(st.integers(1, 2))
    else:
        channel = "decoherence:%s" % draw(st.sampled_from(
            ["0", "0.3", "0.8", "1"]))
    logical = "random"
    if draw(st.booleans()):
        logical = [complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
                   for _ in range(2)]
        if abs(logical[0]) + abs(logical[1]) < 0.1:
            logical = [1, 0]
    return ExperimentConfig(
        code=code, p=draw(st.sampled_from([0.05, 0.2, 0.5])),
        channel=channel, qubits=qubits, trials=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        strategy=draw(st.sampled_from(["exhaustive", "hierarchical"])),
        logical=logical, pattern_filter=FILTERS[code],
        max_active=max_active)


@SETTINGS
@given(configs())
def test_engine_matches_the_per_trial_reference(config):
    records, summary = run_experiment(config)
    expected, measurements = reference_run(config)
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        assert got["fidelity"] == pytest.approx(want["fidelity"], abs=1e-12)
        assert ({k: v for k, v in got.items() if k != "fidelity"}
                == {k: v for k, v in want.items() if k != "fidelity"})
    res = summary["results"]
    assert res["max_measurements"] == max(measurements)
    assert res["mean_measurements"] == pytest.approx(
        sum(measurements) / len(measurements), rel=1e-12)


@SETTINGS
@given(configs(), st.data())
def test_a_trial_range_does_not_depend_on_its_block(config, data):
    whole, _ = _ExperimentContext(config).run_range(0, config.trials)
    ctx = _ExperimentContext(config)
    start = data.draw(st.integers(0, config.trials - 1))
    stop = data.draw(st.integers(start + 1, config.trials))
    ctx.block_trials = data.draw(st.integers(1, config.trials))
    part, _ = ctx.run_range(start, stop)
    assert part == whole[start:stop]


@SETTINGS
@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1), st.data())
def test_apply_channel_is_an_isometry(n, seed, data):
    rng = np.random.default_rng(seed)
    qubits = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                min_size=1, max_size=min(n, 3)))

    def random_state():
        v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        return PureState.from_amplitudes(n, v / np.linalg.norm(v))

    a, b = random_state(), random_state()
    before = inner(a, b)
    for q in qubits:
        ch = random_channel(data.draw(st.integers(1, 3)), rng)
        a, b = apply_channel(a, q, ch), apply_channel(b, q, ch)
        assert abs(a.norm() - 1.0) <= 1e-12
        assert abs(b.norm() - 1.0) <= 1e-12
        assert abs(inner(a, b) - before) <= 1e-12
