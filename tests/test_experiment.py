import collections
import contextlib
import io
import json
import math
import re

import numpy as np
import pytest

from qeclab import ErrorPattern, experiment
from qeclab.cli import main
from qeclab.codes import load_code
from qeclab.decoder import build_syndrome_table
from qeclab.experiment import (BLOCK_AMPLITUDES, CERTAIN_DEVIATE,
                               WILSON_Z95, ExperimentConfig, analytic_success_bound,
                               records_to_csv, run_experiment,
                               wilson_interval)
from qeclab.rng import TrialStreams, trial_generator

from input_files import decoherence_data

SHOR9 = dict(code="shor9", channel="random:2", max_active=2, p=0.2, seed=7)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_forked_workers_reuse_the_parents_context(monkeypatch):
    config = ExperimentConfig(trials=40, **SHOR9)
    expected, _ = run_experiment(config)
    built = []
    real = experiment.build_syndrome_table

    def build_once(*args, **kwargs):
        # a forked worker inherits `built`, so a rebuild there raises
        if built:
            raise AssertionError("syndrome table rebuilt")
        built.append(True)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "build_syndrome_table", build_once)
    records, _ = run_experiment(config, workers=2)
    assert built == [True]
    assert records == expected


@pytest.mark.parametrize("strategy", ["exhaustive", "hierarchical"])
def test_records_are_byte_identical_at_any_worker_count(strategy):
    config = ExperimentConfig(trials=90, strategy=strategy, **SHOR9)
    texts = {records_to_csv(run_experiment(config, workers=w)[0])
             for w in (1, 2, 3)}
    assert len(texts) == 1


def test_summary_counts_the_activation_redraws_the_cap_forced():
    config = ExperimentConfig(trials=120, **SHOR9)
    want = 0
    for trial in range(config.trials):
        rng = trial_generator(config.seed, trial)
        while (rng.random(9) < config.p).sum() > config.max_active:
            want += 1
    assert want > 0
    for workers in (1, 2, 3):
        _, summary = run_experiment(config, workers=workers)
        assert summary["results"]["activation_redraws"] == want
    uncapped = ExperimentConfig(code="perfect5", channel="random:2", p=0.5,
                                trials=40)
    assert run_experiment(uncapped)[1]["results"]["activation_redraws"] == 0


def test_summary_explains_the_run(tmp_path):
    records_path = tmp_path / "records.csv"
    rc, out, _ = run(["simulate", "--code", "shor9", "--channel", "random:2",
                      "--max-active", "2", "--p", "0.2", "--trials", "120",
                      "--seed", "5", "--out", str(records_path)])
    assert rc == 0
    res = json.loads(out)["results"]
    syndromes = [line.split(",")[2]
                 for line in records_path.read_text().splitlines()[1:]]
    assert sum(res["syndrome_histogram"].values()) == res["trials"] == 120
    assert res["syndrome_histogram"] == dict(collections.Counter(syndromes))
    bound = analytic_success_bound(9, 1, 0.2, max_active=2)
    sigma = math.sqrt(bound * (1 - bound) / 120)
    assert res["bound_margin_sigma"] == pytest.approx(
        (res["success_rate"] - bound) / sigma, rel=1e-12)
    # the exhaustive walk over 28 subspaces measures between 1 and 28 times
    assert 1 <= res["mean_measurements"] <= res["max_measurements"] <= 28
    lo, hi = res["success_rate_wilson95"]
    assert [lo, hi] == wilson_interval(res["success_count"], 120)
    assert 0.0 < lo < res["success_rate"] < hi < 1.0


def test_summary_margin_is_null_when_the_bound_is_certain():
    config = ExperimentConfig(code="trivial1", p=0.0, trials=3, t=0)
    _, summary = run_experiment(config)
    res = summary["results"]
    assert res["analytic_success_bound"] == 1.0
    assert res["bound_margin_sigma"] is None
    assert res["syndrome_histogram"] == {"A(0)P(0)": 3}
    assert res["mean_measurements"] == res["max_measurements"] == 1
    assert res["success_rate_wilson95"][1] == 1.0


#: a fixed bit-flip channel, a00 = a11 and a01 = a10: its errors are all
#: amplitude flips
BIT_FLIP = {"env_dim": 2, "a00": [[0.8, 0.0], [0.0, 0.0]],
            "a01": [[0.0, 0.0], [0.6, 0.0]], "a10": [[0.0, 0.0], [0.6, 0.0]],
            "a11": [[0.8, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize("code, pattern_filter, channel, max_active, covered", [
    ("phase3", "phase-only", "random:2", None, False),
    ("perfect5", "amplitude-only", "random:2", None, False),
    ("shor9", "amplitude-only", "decoherence:0", 2, False),
    ("phase3", "phase-only", "bit-flip", None, False),
    ("phase3", "phase-only", "decoherence:0.3", None, True),
    ("shor9", "all", "random:2", 2, True),
    ("shor9", "amplitude-only", "bit-flip", 2, True),
])
def test_the_bound_counts_only_clean_trials_when_the_filter_misses_errors(
        tmp_path, code, pattern_filter, channel, max_active, covered):
    if channel == "bit-flip":
        channel = str(tmp_path / "bit_flip.json")
        with open(channel, "w") as fh:
            json.dump(BIT_FLIP, fh)
    config = ExperimentConfig(code=code, p=0.2, channel=channel, trials=5,
                              pattern_filter=pattern_filter,
                              max_active=max_active)
    res = run_experiment(config)[1]["results"]
    n = load_code(code).n
    bound = analytic_success_bound(n, 1 if covered else 0, 0.2, max_active)
    assert res["analytic_success_bound"] == bound
    sigma = math.sqrt(bound * (1 - bound) / 5)
    assert res["bound_margin_sigma"] == (res["success_rate"] - bound) / sigma


def _wilson_closed_form(successes, trials):
    # the textbook form, centred on the observed rate
    z = WILSON_Z95
    p, z2 = successes / trials, z * z
    centre = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = (z / (1 + z2 / trials)
            * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials ** 2)))
    return centre - half, centre + half


def test_wilson_interval_ends_and_interior():
    z2 = WILSON_Z95 ** 2
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0
    assert hi == pytest.approx(z2 / (50 + z2), rel=1e-12)
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0
    assert lo == pytest.approx(50 / (50 + z2), rel=1e-12)
    lo, hi = wilson_interval(37, 120)
    want_lo, want_hi = _wilson_closed_form(37, 120)
    assert lo == pytest.approx(want_lo, rel=1e-12)
    assert hi == pytest.approx(want_hi, rel=1e-12)
    assert lo < 37 / 120 < hi


def test_summary_counts_the_outcomes_the_zero_threshold_forced(monkeypatch):
    # a nearly coherent channel: a decohered qubit's phase flip carries
    # about 5e-14 of the mass, below the zero threshold
    config = ExperimentConfig(code="phase3", channel="decoherence:%r"
                              % (1.0 - 1e-13), pattern_filter="phase-only",
                              p=0.5, trials=150, seed=3)
    assert run_experiment(config)[1]["results"]["forced_outcomes"] == 0
    # deviates just below 1 draw outcome 0 for the unflipped subspace, which
    # the threshold then forces to 1
    real_walks = experiment.sample_walks

    def walks(table, P, p_none, U, dyadic):
        return real_walks(table, P, p_none,
                          np.full_like(U, np.nextafter(1.0, 0.0)), dyadic)

    monkeypatch.setattr(experiment, "sample_walks", walks)
    forced = []
    real_block = experiment._ExperimentContext.run_block

    def run_block(self, start, stop):
        got = real_block(self, start, stop)
        forced.append(int(got[1][1].sum()))
        return got

    monkeypatch.setattr(experiment._ExperimentContext, "run_block",
                        run_block)
    _, summary = run_experiment(config)
    total = sum(forced)
    assert summary["results"]["forced_outcomes"] == total > 0
    _, summary = run_experiment(config, workers=2)
    assert summary["results"]["forced_outcomes"] == total


@pytest.mark.parametrize("kw", [
    SHOR9, dict(code="perfect5", channel="random:2", p=0.05, seed=7)])
def test_a_trial_rekeys_its_stream_once_and_again_for_a_redone_walk(
        monkeypatch, kw):
    # a trial draws its whole stream from the start in one pass; only a
    # clean walk that was not certain replays it, for its deviates
    config = ExperimentConfig(trials=300, **kw)
    rekeyed, redone = [], []
    real_resume = TrialStreams.resume
    real_walk = experiment._ExperimentContext.walk

    def resume(self, seed, trial):
        rekeyed.append(trial)
        return real_resume(self, seed, trial)

    def walk(self, P, p_none, U, clean, draw):
        got = real_walk(self, P, p_none, U, clean, draw)
        redone.append(int((U[clean] != CERTAIN_DEVIATE).any(axis=1).sum()))
        return got

    monkeypatch.setattr(TrialStreams, "resume", resume)
    monkeypatch.setattr(experiment._ExperimentContext, "walk", walk)
    run_experiment(config)
    assert len(rekeyed) == config.trials + sum(redone)
    assert set(rekeyed) == set(range(config.trials))
    assert sum(redone) > 0 if kw is SHOR9 else sum(redone) == 0


def test_blocks_bound_the_amplitudes_held_at_once(monkeypatch):
    stacks, blocks = [], []
    real_coordinates = experiment.stack_coordinates
    real_block = experiment._ExperimentContext.run_block

    def coordinates(table, M):
        stacks.append(M.size)
        return real_coordinates(table, M)

    def run_block(self, start, stop):
        blocks.append(stop - start)
        return real_block(self, start, stop)

    monkeypatch.setattr(experiment, "stack_coordinates", coordinates)
    monkeypatch.setattr(experiment._ExperimentContext, "run_block",
                        run_block)
    run_experiment(ExperimentConfig(trials=1100, **SHOR9))
    # 512 amplitudes times 2^2 environment levels at most per trial
    assert blocks == [BLOCK_AMPLITUDES // 2048] * 2 + [76]
    assert max(stacks) <= BLOCK_AMPLITUDES


def test_an_invalid_channel_file_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(dict(decoherence_data(),
                                    a00=[[0.5, 0.0], [0.0, 0.0]])))
    rc, out, err = run(["simulate", "--code", "phase3", "--filter",
                        "phase-only", "--p", "0.5", "--channel", str(path),
                        "--trials", "5"])
    assert rc == 2
    assert "invalid channel" in err
    # a NaN entry compares false against every tolerance, and is refused too
    data = decoherence_data()
    data["a00"][0][0] = float("nan")
    path.write_text(json.dumps(data))
    rc, out, err = run(["simulate", "--code", "phase3", "--filter",
                        "phase-only", "--p", "0.5", "--channel", str(path),
                        "--trials", "5"])
    assert rc == 2
    assert "invalid channel" in err
    # an env_dim that is not a JSON integer, though it rounds to the
    # vectors' length
    data = decoherence_data()
    for env_dim in (2.5, 2.0):
        data["env_dim"] = env_dim
        path.write_text(json.dumps(data))
        rc, out, err = run(["simulate", "--code", "phase3", "--filter",
                            "phase-only", "--p", "0.5", "--channel",
                            str(path), "--trials", "5"])
        assert rc == 2
        assert out == ""
        assert err == ("error: cannot load channel %r: malformed channel "
                       "data: env_dim must be an integer, not %r\n"
                       % (str(path), env_dim))


def test_table_texts_name_the_patterns():
    table = build_syndrome_table(load_code("shor9"), 1)
    patterns = [ErrorPattern.from_key(key, 9) for key in table.keys]
    assert table.texts == tuple("A%rP%r" % (p.alpha, p.beta)
                                for p in patterns)
    assert table.labels == tuple("H[%s]" % text for text in table.texts)


@pytest.mark.parametrize("field, value, message", [
    ("t", 4, "t = 4 lies outside [0, n = 3]"),
    ("pattern_filter", "bogus", "unknown pattern filter 'bogus'"),
    ("logical", ["1", "x"], "bad logical amplitude"),
    ("logical", [1, 0, 0], "logical state needs 2 amplitudes"),
    ("channel", "decoherence:2", "|overlap| must be <= 1"),
    ("channel", "decoherence:nan", "overlap must be finite, got (nan+0j)"),
    ("qubits", ["x"], "--qubits must be 'all' or a comma list of ints"),
    ("qubits", [0, 1.5], "--qubits must be 'all' or a comma list of ints"),
    ("qubits", "0,x", "--qubits must be 'all' or a comma list of ints"),
])
def test_the_context_reads_each_input_into_bad_input(field, value, message):
    # the decode weight and the pattern filter are checked by the table
    # build alone, the rest by their readers
    kwargs = dict(code="phase3", p=0.1, trials=2, pattern_filter="phase-only")
    kwargs[field] = value
    with pytest.raises(experiment.BadInput, match=re.escape(message)):
        run_experiment(ExperimentConfig(**kwargs))
