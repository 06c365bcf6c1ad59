"""Property tests of the batched Monte Carlo engine against a per-trial loop.

The reference runs each trial alone through the public building blocks --
trial_generator, random_channel, encode, apply_channel and correct -- in the
reproducibility contract's draw order: activation (redrawn while it exceeds
the cap), channel parameters, logical state, measurements. correct checks
each decode on the recovered joint state, with fidelity_against and
schmidt_diagnostics, and shares no verification code with the engine.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qeclab import (PureState, apply_channel, build_syndrome_table, correct,
                    encode, load_code, make_decoherence, random_channel,
                    trial_generator)
from qeclab import experiment
from qeclab.decoder import sample_walk, sample_walks, stack_coordinates
from qeclab.experiment import (CERTAIN_DEVIATE, ExperimentConfig,
                               _ExperimentContext, records_to_csv,
                               run_experiment)

FILTERS = {"phase3": "phase-only", "shor9": "all", "perfect5": "all"}

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_run(config):
    """(records, measurement counts) of config, one trial at a time."""
    code = load_code(config.code)
    table = build_syndrome_table(code, code.claimed_t, config.pattern_filter)
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
        report = correct(state, table, config.strategy, rng, reference)
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
    if n > 5:
        # without the activation cap, at most 4 eligible qubits keep the
        # worst-case joint dimension under its cap; 4 and 8 end each
        # activation draw on a 4-word Philox block
        size = draw(st.sampled_from([0, 1, 2, 3, 4] if max_active is None
                                    else [1, 4, 8, n]))
        if size < n:
            qubits = draw(st.lists(st.integers(0, n - 1), unique=True,
                                   min_size=size, max_size=size))
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
        seed=draw(st.integers(-(1 << 64), 1 << 65)),
        strategy=draw(st.sampled_from(["exhaustive", "hierarchical"])),
        logical=logical, pattern_filter=FILTERS[code],
        max_active=max_active)


def _shor9(qubits, max_active, seed, p=0.3):
    return ExperimentConfig(code="shor9", p=p, channel="random:2",
                            qubits=qubits, trials=12, seed=seed,
                            max_active=max_active)


@SETTINGS
@given(configs())
# one, four and eight eligible qubits, whatever the examples drawn: eight
# under the cap end every draw and redraw on a 4-word Philox block
@example(_shor9((4,), None, (1 << 64) - 1))
@example(_shor9((0, 3, 5, 8), None, -(1 << 64)))
@example(_shor9(tuple(range(8)), 1, (1 << 65) + 3))
# at most one of nine qubits activates with probability 10/512: each trial
# redraws about 50 times, and its later draws start at a word count 9 (1 +
# redraws) in every residue mod 4
@example(_shor9("all", 1, 5, p=0.5))
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


def live_draw(ctx, trial):
    """(its generator, at the walk's deviates; activated qubits; standard
    normals; activation redraws) of one trial, drawn from a fresh
    trial_generator in the draw order reference_run keeps."""
    config = ctx.config
    rng = trial_generator(config.seed, trial)
    redraws = -1
    while True:
        redraws += 1
        activated = tuple(q for q in ctx.eligible if rng.random() < config.p)
        if (config.max_active is None
                or len(activated) <= config.max_active):
            break
    normals = rng.standard_normal(ctx.channel_normals * len(activated)
                                  + ctx.logical_normals)
    return rng, activated, normals, redraws


def live_walks(ctx, start, stop):
    """(index, measurements, forced, redraws, activated qubits) of trials
    [start, stop), each walked alone by sample_walk on its own stream."""
    out = []
    for trial in range(start, stop):
        rng, activated, normals, redraws = live_draw(ctx, trial)
        *_, p, p_none = ctx.propagate(
            np.array(activated, dtype=np.intp).reshape(1, -1),
            normals[np.newaxis])
        i, trace, forced = sample_walk(ctx.table, p[0], p_none[0], rng,
                                       ctx.dyadic)
        out.append((len(ctx.table) if i is None else i, len(trace), forced,
                    redraws, len(activated)))
    return np.array(out, dtype=np.intp).reshape(-1, 5).T


@SETTINGS
@given(configs())
def test_block_walks_match_live_walks(config):
    # clean trials skip drawing their deviates; the block's walks must not
    # show it
    ctx = _ExperimentContext(config)
    records, walks = ctx.run_block(0, config.trials)
    index, *live = live_walks(ctx, 0, config.trials)
    assert np.array_equal(walks, live)
    texts = ctx.table.texts + ("none",)
    assert [r["syndrome"] for r in records] == [texts[i] for i in index]


@pytest.mark.parametrize("strategy", ["exhaustive", "hierarchical"])
@pytest.mark.parametrize("code", sorted(FILTERS))
def test_clean_trials_walk_as_with_their_own_deviates(code, strategy):
    config = ExperimentConfig(code=code, pattern_filter=FILTERS[code], p=0.0,
                              channel="random:2", max_active=1, trials=60,
                              seed=11, strategy=strategy)
    ctx = _ExperimentContext(config)
    _, walks = ctx.run_block(0, config.trials)
    assert np.array_equal(walks, live_walks(ctx, 0, config.trials)[1:])
    # shor9's complement holds rounding dust, so some of its clean walks
    # are not certain and draw their deviates after all: the run above
    # took that path too
    *_, P, p_none = ctx.propagate(
        np.empty((config.trials, 0), dtype=np.intp),
        np.array([live_draw(ctx, k)[2] for k in range(config.trials)]))
    certain = sample_walks(ctx.table, P, p_none,
                           np.full(P.shape, CERTAIN_DEVIATE), ctx.dyadic)
    if code == "shor9":
        assert ((certain[0] != 0) | (certain[2] != 0)).any()


def test_every_walk_deviate_comes_from_its_trials_stream(monkeypatch):
    # a clean walk that is not certain is walked again on its own deviates,
    # which its result shows only with probability about 1e-16: any deviate
    # below 1 gives the same outcomes. So the deviates themselves are
    # checked, those of trials over the cap included.
    config = ExperimentConfig(code="shor9", channel="random:2", p=0.2,
                              max_active=2, trials=200, seed=1)
    ctx = _ExperimentContext(config)
    seen = []
    real_walk = experiment._ExperimentContext.walk

    def walk(self, P, p_none, U, clean, draw):
        got = real_walk(self, P, p_none, U, clean, draw)
        seen.append((U.copy(), clean.tolist()))
        return got

    monkeypatch.setattr(experiment._ExperimentContext, "walk", walk)
    _, walks = ctx.run_block(0, config.trials)
    assert walks[2].any()
    (U, clean), = seen
    redone = 0
    for trial in range(config.trials):
        if trial in clean and (U[trial] == CERTAIN_DEVIATE).all():
            continue
        rng = live_draw(ctx, trial)[0]
        assert np.array_equal(U[trial], rng.random(len(ctx.table)))
        redone += trial in clean
    assert redone > 0


@pytest.mark.parametrize("strategy", ["exhaustive", "hierarchical"])
def test_csv_matches_a_per_trial_walk_loop(monkeypatch, strategy):
    configs = [ExperimentConfig(trials=150, strategy=strategy, seed=seed, **kw)
               for seed in (2, 3)
               for kw in (dict(code="shor9", channel="random:2", p=0.2,
                               max_active=2),
                          dict(code="perfect5", channel="random:2", p=0.05),
                          dict(code="phase3", pattern_filter="phase-only",
                               channel="decoherence:0.3", p=0.3))]
    batched = [run_experiment(c) for c in configs]
    starts = []
    real_block = experiment._ExperimentContext.run_block

    def run_block(self, start, stop):
        starts.append(start)
        return real_block(self, start, stop)

    def walk(self, P, p_none, U, clean, draw):
        return live_walks(self, starts[-1], starts[-1] + len(P))[:3]

    monkeypatch.setattr(experiment._ExperimentContext, "run_block",
                        run_block)
    monkeypatch.setattr(experiment._ExperimentContext, "walk", walk)
    for config, (records, summary) in zip(configs, batched):
        want_records, want_summary = run_experiment(config)
        assert records_to_csv(records) == records_to_csv(want_records)
        assert summary == want_summary


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
    before = np.vdot(a.amps, b.amps)
    for q in qubits:
        ch = random_channel(data.draw(st.integers(1, 3)), rng)
        a, b = apply_channel(a, q, ch), apply_channel(b, q, ch)
        assert abs(a.norm() - 1.0) <= 1e-12
        assert abs(b.norm() - 1.0) <= 1e-12
        assert abs(np.vdot(a.amps, b.amps) - before) <= 1e-12


@pytest.fixture(scope="module")
def channel_file(tmp_path_factory):
    """A fixed channel with three environment levels, neither decoherence
    nor any filter's, as a channel file."""
    ch = random_channel(3, np.random.default_rng(5))
    path = tmp_path_factory.mktemp("channels") / "fixed.json"
    path.write_text(json.dumps(dict(env_dim=3, **{
        name: [[z.real, z.imag] for z in getattr(ch, name)]
        for name in ("a00", "a01", "a10", "a11")})))
    return str(path)


@SETTINGS
@given(st.sampled_from(sorted(FILTERS)), st.data())
def test_overlap_coordinates_match_the_dense_projection(channel_file, code,
                                                        data):
    # every weight the context takes through the overlaps, on random
    # eligible qubits, against the projection of the dense joint states
    n = load_code(code).n
    qubits = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                min_size=1, max_size=n))
    channel = data.draw(st.sampled_from(
        ["random:1", "random:2", "random:3", "decoherence:0.3",
         "decoherence:0", channel_file]))
    env_dim = 2 if channel.startswith("decoherence") else (
        3 if channel == channel_file else int(channel[7:]))
    rule = (n - 1 - (env_dim == 1)) // 2
    ctx = _ExperimentContext(ExperimentConfig(
        code=code, p=0.2, channel=channel, qubits=sorted(qubits),
        pattern_filter=FILTERS[code], max_active=min(rule, len(qubits))))
    assert ctx.overlap_weight == rule
    for m in range(min(rule, len(qubits)) + 1):
        g = data.draw(st.integers(1, 4))
        rows = np.array([sorted(data.draw(st.permutations(qubits))[:m])
                         for _ in range(g)], dtype=np.intp).reshape(g, m)
        normals = np.random.default_rng(data.draw(st.integers(0, 99))) \
            .standard_normal((g, ctx.channel_normals * m
                              + ctx.logical_normals))
        refs, blocks, *got = ctx.propagate(rows, normals)
        want = stack_coordinates(ctx.table, ctx.entangle(refs, rows, blocks))
        for a, b in zip(got, want):  # coeff, p and p_none
            assert a.shape == b.shape
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-12


def test_an_uncapped_shor9_run_keeps_its_overlaps_within_the_rule():
    # random:1 leaves every weight under the dimension cap; the heavier
    # classes project dense joint states instead of growing the overlaps
    experiment._shared_overlaps.cache_clear()
    ctx = _ExperimentContext(ExperimentConfig(
        code="shor9", channel="random:1", p=0.5, trials=300, seed=4))
    _, walks = ctx.run_range(0, 300)
    assert walks[3].max() > ctx.overlap_weight == 3
    keys = ctx.overlaps.keys
    assert ctx.overlaps.weight == 3
    assert np.bitwise_count((keys | keys >> 9) & 511).max() == 3
