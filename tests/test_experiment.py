import collections
import contextlib
import io
import json
import math

import pytest

from qeclab import experiment
from qeclab.channels import QubitChannel, save_channel
from qeclab.cli import main
from qeclab.codes import load_code
from qeclab.decoder import build_syndrome_table
from qeclab.experiment import (BLOCK_AMPLITUDES, ExperimentConfig,
                               analytic_success_bound, records_to_csv,
                               run_experiment)

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


def test_summary_margin_is_null_when_the_bound_is_certain():
    config = ExperimentConfig(code="trivial1", p=0.0, trials=3, t=0)
    _, summary = run_experiment(config)
    res = summary["results"]
    assert res["analytic_success_bound"] == 1.0
    assert res["bound_margin_sigma"] is None
    assert res["syndrome_histogram"] == {"A(0)P(0)": 3}
    assert res["mean_measurements"] == res["max_measurements"] == 1


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
    save_channel(QubitChannel(a00=[0.5, 0], a01=[0, 0], a10=[0, 0],
                              a11=[0, 1]), str(path))
    rc, out, err = run(["simulate", "--code", "phase3", "--filter",
                        "phase-only", "--p", "0.5", "--channel", str(path),
                        "--trials", "5"])
    assert rc == 2
    assert "invalid channel" in err


def test_table_texts_name_the_patterns():
    table = build_syndrome_table(load_code("shor9"), 1)
    assert table.texts == tuple(p.text() for p in table.patterns)
    assert table.labels == tuple("H[%s]" % text for text in table.texts)
