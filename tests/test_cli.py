import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qeclab
from qeclab import cli, codes, experiment
from qeclab.codes import CATALOGUE_EXPECTATIONS
from qeclab.cli import main
from qeclab.experiment import analytic_success_bound
from input_files import (decoherence_data, repetition_code_data,
                         shipped_code_data, spoiled_phase3_data)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


# -- verify ---------------------------------------------------------------------


def test_verify_passing_condition_exits_zero():
    rc, out, err = run(["verify", "--code", "phase3", "--condition", "phase", "--t", "1"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["code"] == "phase3"
    assert payload["condition"] == "phase"
    assert payload["t"] == 1
    assert payload["passed"] is True
    assert payload["violation_count"] == 0


def test_verify_failing_condition_exits_one_with_details():
    rc, out, err = run(["verify", "--code", "phase3", "--condition", "general", "--t", "1"])
    assert rc == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["violation_count"] > 0
    flagged = {(v["pattern"], v["pattern2"]) for v in payload["violations"]}
    assert ("A(000)P(000)", "A(100)P(000)") in flagged


def test_verify_unknown_code_exits_two():
    rc, out, err = run(["verify", "--code", "nonsense", "--condition", "phase", "--t", "1"])
    assert rc == 2


def test_verify_bad_t_exits_two():
    rc, out, err = run(["verify", "--code", "phase3", "--condition", "phase", "--t", "-1"])
    assert rc == 2


def test_verify_past_the_hamming_bound_exits_one_with_a_report():
    # 25652 image rows of 2^9 amplitudes: a 9.8 GiB Gram matrix, answered
    # from the 2t-ball instead
    rc, out, err = run(["verify", "--code", "shor9", "--t", "4"])
    assert rc == 1
    assert err == ""
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["t"] == 4
    assert payload["violation_count"] > 0
    assert len(payload["violations"]) == 64


def test_simulate_past_the_hamming_bound_exits_one_through_its_report():
    rc, out, err = run(["simulate", "--code", "shor9", "--t", "4",
                        "--max-active", "2", "--p", "0.1"])
    assert rc == 1
    assert out == ""
    report, _, message = err.rpartition("}\n")
    assert json.loads(report + "}")["passed"] is False
    assert message.startswith("error: ConditionReport(general, t=4: FAIL")


def test_a_check_over_the_cap_exits_two(tmp_path):
    path = tmp_path / "rep16.json"
    path.write_text(json.dumps(repetition_code_data(16)))
    # a Gram matrix, then a 2t-ball, over the cap, from either command
    for t in ("3", "4"):
        for argv in (["verify"], ["simulate", "--p", "0.1", "--max-active",
                                  "0", "--trials", "1"]):
            rc, out, err = run(argv + ["--code", str(path), "--t", t])
            assert rc == 2
            assert out == ""
            assert err.startswith("error: the general condition at t = %s "
                                  "needs " % t)
            assert err.count("\n") == 1


@pytest.mark.parametrize("n", [14, 16])
def test_an_amplitude_check_far_past_the_bound_runs_in_little_memory(
        tmp_path, n):
    # 2 V_t image rows, V_t = 9908 or 39203 at t = n / 2, against 2^n
    # amplitudes, and 2 x 2 overlaps for each of the 2^n amplitude parts
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(repetition_code_data(n)))
    tracemalloc.start()
    try:
        rc, out, err = run(["verify", "--code", str(path), "--condition",
                            "amplitude", "--t", str(n // 2)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert err == ""
    # only E = X on every qubit fails, from |C^0> to |C^1> and back, for
    # each of the comb(n, n / 2) ordered pairs of patterns it is made of
    assert json.loads(out)["violation_count"] == 2 * math.comb(n, n // 2)
    assert peak < 32 << 20


@pytest.mark.parametrize("argv", [
    ["verify", "--code", "phase3", "--seed", "1"],
    ["verify", "--code", "phase3", "--format", "json"],
    ["bounds", "--l", "1", "--t", "1", "--seed", "1"],
    ["catalogue", "--seed", "1"],
    ["demo3", "--format", "json"],
])
def test_an_option_the_subcommand_does_not_read_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in captured.err


_SIMULATE = ["simulate", "--code", "phase3", "--filter", "phase-only",
             "--p", "0.1", "--trials", "3"]


@pytest.mark.parametrize("place, reason", [
    (lambda tmp: tmp / "missing" / "x.out", "No such file or directory"),
    (lambda tmp: tmp, "Is a directory"),
])
@pytest.mark.parametrize("argv, option", [
    (["verify", "--code", "phase3", "--condition", "phase", "--t", "1"],
     "--out"),
    (["bounds", "--l", "1", "--t", "1"], "--out"),
    (["demo3"], "--out"),
    (["catalogue"], "--out"),
    (_SIMULATE, "--out"),
    (_SIMULATE, "--summary"),
])
def test_an_unwritable_output_path_exits_two(monkeypatch, tmp_path, argv,
                                             option, place, reason):
    def no_trials(*args, **kwargs):
        raise AssertionError("simulate ran trials before opening its files")

    # simulate opens its files before any trial runs
    monkeypatch.setattr(cli, "run_experiment", no_trials)
    path = str(place(tmp_path))
    rc, out, err = run(argv + [option, path])
    assert rc == 2
    assert out == ""
    assert err == "error: cannot write %s: %s\n" % (path, reason)
    assert "Traceback" not in err


# -- bounds ---------------------------------------------------------------------


def test_bounds_csv_table_and_summary():
    rc, out, err = run(["bounds", "--l", "1", "--t", "1", "--max-n", "10"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,l,t,sphere_volume,hamming,gv_codewords,gv_ok"
    assert "5,1,1,16,true,1,false" in lines
    assert "9,1,1,28,true,2,true" in lines
    assert lines[-2] == "min_n_hamming,5"
    assert lines[-1] == "min_n_gv,9"


def test_bounds_json_format():
    rc, out, err = run(["bounds", "--l", "1", "--t", "1", "--max-n", "6", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["min_n_hamming"] == 5
    assert payload["min_n_gv"] == 9
    rows = payload["rows"]
    assert rows[0]["n"] == 1
    assert any(r["n"] == 5 and r["hamming"] for r in rows)


def test_bounds_write_to_file(tmp_path):
    target = tmp_path / "bounds.csv"
    rc, out, err = run(["bounds", "--l", "1", "--t", "1", "--max-n", "5",
                        "--out", str(target)])
    assert rc == 0
    text = target.read_text()
    assert text.splitlines()[0].startswith("n,l,t,")
    assert "min_n_hamming,5" in text


def test_bounds_rejects_negative_parameters():
    rc, out, err = run(["bounds", "--l", "-1", "--t", "1"])
    assert rc == 2
    rc, out, err = run(["bounds", "--l", "1", "--t", "1", "--max-n", "0"])
    assert rc == 2


# sha256 of the CSV and the JSON for (l, t, max-n) over (50, 100), t > l,
# l = 0, t = 0 and a max-n below t, so that rows with t > n and 2t > n
# appear; a change here is a change to the bounds output and must be
# announced
@pytest.mark.parametrize("l, t, max_n, csv_digest, json_digest", [
    ("50", "100", None,
     "021e9c699d00b7682d9dbe67d64abab9d3e78a849fdc6a4d942790e260d859a5",
     "7a02ccd56d6f4d8a53338a430f3df56f2ecd87ca20c1fd5ccb935920f3cbd3e3"),
    ("1", "1", None,
     "26ea4c906099171c479b78a64a07b890f0df28398136e1e3b1a1024829ece789",
     "79c870dab0bd0edd23a4ca69243e39a6fc72e947c5df83ca2d137303663c0b7a"),
    ("2", "5", None,
     "4f7e8b539580b677a6e57be5a16fd7a4015d1c3716a7990c7b289e9e2bff79da",
     "6635b4758ab59f90defc356d60f5e8e879e010281336ab854f3151d747327e2f"),
    ("0", "3", None,
     "1cba006d2af18c1354add20e08d8c61752d2331cc8f71e76884dd0ee8093eb45",
     "a13bb461afeed27936fad6bbd6339c66f4ac643441f5eced40ba28d8d4bc30d0"),
    ("0", "0", None,
     "02c7ccb1a936d1db7aee559ad3933256f203e8d0a6a69bff52be4e0691f0a561",
     "bfdcda08bf18e63afd04c65d1bb24c995bf1dc5ee5ac29cae630b9139fe903e7"),
    ("4", "0", None,
     "f03384c8d021f93d9523ac675418c4c34a1475144a12e8c7361baeb6731e9d98",
     "c2c28dccbc12e326911fd110fb06de1d14842abddaa0cf3bcce1f4022b4ffef4"),
    ("1", "6", "8",
     "056761697a71f5336fd066ad13df536f333706228edca570c5a3a5e46edae8ff",
     "52d3c8861d65d3686cbc280f4e5fa335d206fa3dcaa10aed6d8d4e6d4bb72213"),
    ("3", "2", "40",
     "4156b56e67a280c41dd1de1a572f6567d1110b8302dda097593c5fb7f2273b22",
     "28b935d52c3b1d7d9c9552ba4fb1171a62d24994cc379497aa1c951487cfe356"),
    ("0", "1", "0",
     "7ae897bb4387e1ef06faa998f2837b1076c8abadb1433a3b8d40accb1ca2fba4",
     "8839742e5a021d32f90f6c83f48c55d58af2d0b4c6f4f01cc64b1623a6661d9c"),
])
def test_bounds_output_is_pinned(l, t, max_n, csv_digest, json_digest):
    for fmt, digest in (("csv", csv_digest), ("json", json_digest)):
        argv = ["bounds", "--l", l, "--t", t, "--format", fmt]
        if max_n is not None:
            argv += ["--max-n", max_n]
        rc, out, err = run(argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bounds_refuses_an_unprintable_integer(tmp_path, fmt):
    # under the l and t cap every integer prints at Python's default digit
    # limit, so lower it to its floor of 640 digits, as PYTHONINTMAXSTRDIGITS
    # may: gv_codewords(2200, 0) = 2^2200 has 663 decimal digits
    argv = ["bounds", "--l", "2000", "--t", "0", "--max-n", "2200",
            "--format", fmt]
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc, out, err = run(argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "decimal digits" in err
        target = tmp_path / "bounds.out"
        rc, out, err = run(argv + ["--out", str(target)])
        assert rc == 2
        assert out == "" and not target.exists()
    finally:
        sys.set_int_max_str_digits(old_limit)


def test_bounds_refuses_l_or_t_over_the_cap():
    # in a child process, so that scanning before the check fails the test
    # at its timeout instead of hanging the suite
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qeclab.__file__)))
    for l, t, max_n in [("0", "1000000", "0"), ("15000", "0", "15000"),
                        ("0", str(cli.BOUNDS_MAX_LT + 1), "0")]:
        proc = subprocess.run(
            [sys.executable, "-m", "qeclab", "bounds", "--l", l, "--t", t,
             "--max-n", max_n],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("error: l = %s and t = %s: both must be at "
                               "most %d\n" % (l, t, cli.BOUNDS_MAX_LT))
    cap = str(cli.BOUNDS_MAX_LT)
    rc, out, err = run(["bounds", "--l", cap, "--t", cap, "--max-n", cap])
    assert rc == 0
    assert len(out.splitlines()) == 4  # header, one row, two summary lines


def test_bounds_refuses_a_table_over_the_row_cap():
    # in a child process, so that building every row first fails the test
    # at its timeout instead of hanging the suite
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qeclab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "qeclab", "bounds", "--l", "0", "--t", "0",
         "--max-n", "100000000"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert ("error: a table of 100000001 rows exceeds the cap of %d rows"
            % cli.BOUNDS_MAX_ROWS) in proc.stderr
    rc, out, err = run(["bounds", "--l", "0", "--t", "0", "--max-n",
                        str(cli.BOUNDS_MAX_ROWS - 1)])
    assert rc == 0
    assert len(out.splitlines()) == cli.BOUNDS_MAX_ROWS + 3


# -- demo3 ----------------------------------------------------------------------


def test_demo3_walkthrough_recovers_exactly():
    rc, out, err = run(["demo3", "--c0", "0.6", "--c1", "0.8", "--qubit", "0",
                        "--seed", "5"])
    assert rc == 0
    assert "outcome map ((L1, L2) -> correction):" in out
    assert "(1, 1) -> no error, no correction" in out
    assert "(1, 0) -> phase flip on qubit 0, apply P(100)" in out
    assert "(0, 1) -> phase flip on qubit 1, apply P(010)" in out
    assert "(0, 0) -> phase flip on qubit 2, apply P(001)" in out
    assert "L1 measures U[0..1] -> outcome" in out
    assert "fidelity against the encoded block: 1.000000000000" in out
    assert "disentangled from the environment: yes" in out


def test_demo3_without_noise_reports_clean_outcome():
    rc, out, err = run(["demo3", "--qubit", "none"])
    assert rc == 0
    assert "no qubit decoheres" in out
    assert "L1 measures U[0..1] -> outcome 1" in out
    assert "L2 measures H[A(000)P(000)] -> outcome 1" in out
    assert "fidelity against the encoded block: 1.000000000000" in out


def test_demo3_prints_a_zero_real_part_unsigned():
    # the phase flip that recovers this block turns zero real parts into
    # -0.0, which would print as "(-0.0000-0.3225j)"
    rc, out, err = run(["demo3", "--c0", "0.6", "--c1", "0.8j", "--qubit",
                        "1", "--overlap", "0.3", "--seed", "5"])
    assert rc == 0
    assert "identified error pattern A(000)P(010)" in out
    assert "+(0.0000-0.3225j) |010>|e1>" in out
    assert "-0.0000" not in out


def test_demo3_is_seed_reproducible():
    first = run(["demo3", "--seed", "17", "--overlap", "0.2"])
    second = run(["demo3", "--seed", "17", "--overlap", "0.2"])
    assert first == second


def test_demo3_normalizes_the_logical_pair():
    rc, out, err = run(["demo3", "--c0", "1", "--c1", "1"])
    assert rc == 0
    assert "logical state: (0.7071+0.0000j)|0> + (0.7071+0.0000j)|1>" in out


def test_demo3_validates_inputs():
    rc, out, err = run(["demo3", "--c0", "0", "--c1", "0"])
    assert rc == 2
    rc, out, err = run(["demo3", "--qubit", "7"])
    assert rc == 2
    rc, out, err = run(["demo3", "--overlap", "1.5"])
    assert rc == 2
    # non-finite numbers and a non-numeric qubit end in a message, not a
    # traceback
    for argv in (["--c0", "nan"], ["--c1", "inf"], ["--overlap", "nan"],
                 ["--c0", "x"], ["--overlap", "x"], ["--qubit", "abc"]):
        rc, out, err = run(["demo3"] + argv)
        assert rc == 2
        assert err.startswith("error: ")


# -- simulate ---------------------------------------------------------------------


def test_simulate_records_and_summary_are_consistent(tmp_path):
    records_path = tmp_path / "records.csv"
    rc, out, err = run([
        "simulate", "--code", "phase3", "--p", "0.2", "--trials", "25",
        "--filter", "phase-only", "--seed", "11", "--out", str(records_path),
    ])
    assert rc == 0
    lines = records_path.read_text().strip().splitlines()
    assert lines[0] == "trial,activated,syndrome,fidelity,disentangled,corrected"
    assert len(lines) == 26
    summary = json.loads(out)
    assert summary["config"]["code"] == "phase3"
    assert summary["config"]["p"] == 0.2
    assert summary["results"]["trials"] == 25

    threshold = summary["config"]["fidelity_threshold"]
    successes = corrected = 0
    for line in lines[1:]:
        trial, activated, syndrome, fidelity, disentangled, corrected_s = line.split(",")
        fidelity = float(fidelity)
        assert 0.0 <= fidelity <= 1.0 + 1e-9
        if corrected_s == "true":
            corrected += 1
            assert syndrome != "none"
        else:
            assert syndrome == "none"
        if fidelity >= threshold and disentangled == "true":
            successes += 1
    assert summary["results"]["success_count"] == successes
    assert summary["results"]["corrected_count"] == corrected
    assert summary["results"]["success_rate"] == pytest.approx(successes / 25)


def test_simulate_single_activated_general_channel_always_succeeds():
    rc, out, err = run([
        "simulate", "--code", "shor9", "--p", "0.6", "--channel", "random:4",
        "--max-active", "1", "--trials", "12", "--strategy", "hierarchical",
        "--seed", "3",
    ])
    assert rc == 0
    summary = json.loads(err)
    assert summary["results"]["success_rate"] == 1.0


def test_simulate_summary_goes_to_chosen_file(tmp_path):
    records_path = tmp_path / "r.csv"
    summary_path = tmp_path / "s.json"
    rc, out, err = run([
        "simulate", "--code", "trivial1", "--p", "0.0", "--trials", "4",
        "--t", "0", "--seed", "0", "--out", str(records_path),
        "--summary", str(summary_path),
    ])
    assert rc == 0
    assert out == ""
    summary = json.loads(summary_path.read_text())
    assert summary["results"]["success_rate"] == 1.0


def test_simulate_same_seed_reproduces_byte_identical_records():
    argv = ["simulate", "--code", "phase3", "--p", "0.4", "--trials", "10",
            "--filter", "phase-only", "--seed", "21"]
    assert run(argv) == run(argv)
    rc, other, err = run(argv[:-1] + ["22"])
    _, first, _ = run(argv)
    assert first != other


def test_simulate_rejects_oversized_joint_space():
    # nine qubits times a 4-level environment per qubit blows the 2^16 cap
    rc, out, err = run(["simulate", "--code", "shor9", "--p", "0.5",
                        "--channel", "random:4", "--trials", "2", "--seed", "0"])
    assert rc == 2


def test_simulate_rejects_bad_parameters():
    rc, _, _ = run(["simulate", "--code", "phase3", "--p", "1.5", "--trials", "2"])
    assert rc == 2
    rc, _, _ = run(["simulate", "--code", "phase3", "--p", "0.1", "--trials", "0"])
    assert rc == 2
    rc, _, _ = run(["simulate", "--code", "phase3", "--p", "0.1", "--trials", "2",
                    "--channel", "random:one"])
    assert rc == 2
    # the generic filter fails the matching precondition for this code
    rc, _, _ = run(["simulate", "--code", "phase3", "--p", "0.1", "--trials", "2"])
    assert rc == 1
    # a decode weight outside [0, n], a NaN overlap and a non-finite logical
    # state end in a message, not a traceback
    for extra in (["--t", "5"], ["--t", "-1"],
                  ["--channel", "decoherence:nan"],
                  ["--logical", "nan,0"], ["--logical", "inf,0"]):
        rc, _, err = run(["simulate", "--code", "phase3", "--filter",
                          "phase-only", "--p", "0.1", "--trials", "2"] + extra)
        assert rc == 2
        assert err.startswith("error: ")


@pytest.mark.parametrize("n,l,entries,message", [
    (1, 0, [{"re": 1.0}], None),                  # no basis label
    (1, 0, [{"basis": "(0)", "re": "x"}], None),  # a non-numeric amplitude
    (1, 0, ["(0)"], None),                # an entry that is not an object
    (40, 0, [{"basis": "(0)"}], None),    # refused before 2^40 amplitudes
    # not a normalized state
    (1, 0, [{"basis": "(0)", "re": float("nan")}],
     "malformed code file: state not normalized: |amps|^2 = nan"),
    # a later entry for the same label would silently replace the first
    (1, 0, [{"basis": "(0)", "re": 0.5}, {"basis": "(0)", "re": 1.0}],
     "malformed code file: basis label (0) repeats"),
    (1, -1, [{"basis": "(0)", "re": 1.0}],
     "malformed code file: l = -1 is negative"),
    # squares, and a sum of squares, past the largest float: refused with
    # no overflow warning
    (1, 0, [{"basis": "(0)", "re": 1e308}, {"basis": "(1)", "re": 1e308}],
     "malformed code file: state not normalized: |amps|^2 = inf"),
    (1, 0, [{"basis": "(0)", "re": 1.3e154}, {"basis": "(1)", "im": 1.3e154}],
     "malformed code file: state not normalized: |amps|^2 = inf"),
    # a label that is no string would end in from_text's AttributeError,
    # and a bool amplitude would read as 1
    (1, 0, [{"basis": 5}], "malformed code file: basis must be a string, "
     "not 5"),
    (1, 0, [{"basis": None}], "malformed code file: basis must be a "
     "string, not None"),
    (1, 0, [{"basis": "x"}], "malformed code file: not a bitstring literal: "
     "'x'"),
    (1, 0, [{"basis": ""}], "malformed code file: not a bitstring literal: "
     "''"),
    (1, 0, [{"basis": "(01)"}], "malformed code file: basis label '(01)' has "
     "wrong length"),
    (1, 0, [{"basis": "(0)", "re": True}], "malformed code file: re must "
     "be a number, not True"),
    (1, 0, [{"basis": "(0)", "im": True}], "malformed code file: im must "
     "be a number, not True"),
])
@pytest.mark.parametrize("command", [["verify"], ["simulate", "--p", "0.1"]])
def test_a_malformed_code_file_exits_two(tmp_path, command, n, l, entries,
                                         message):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"name": "x", "n": n, "l": l, "t": 0,
                                "vectors": [entries]}))
    rc, out, err = run(command + ["--code", str(path)])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")
    if message is not None:
        assert err == "error: %s\n" % message


@pytest.mark.parametrize("data, message", spoiled_phase3_data())
@pytest.mark.parametrize("command", [["verify"], ["simulate", "--p", "0.1"]])
def test_a_code_file_that_describes_no_code_exits_two(tmp_path, command, data,
                                                      message):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(command + ["--code", str(path)])
    assert rc == 2
    assert out == ""
    assert err == "error: malformed code file: %s\n" % message


@pytest.mark.parametrize("field, value", [
    ("n", 3.7), ("l", True), ("t", 1.9), ("n", "3"), ("t", None),
])
@pytest.mark.parametrize("command", [["verify"], ["simulate", "--p", "0.1"]])
def test_a_code_file_integer_field_must_be_a_json_integer(
        tmp_path, command, field, value):
    # int() would truncate 3.7 and 1.9 and read true as 1
    data = shipped_code_data("phase3")
    data[field] = value
    path = tmp_path / "code.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(command + ["--code", str(path)])
    assert rc == 2
    assert out == ""
    assert err == ("error: malformed code file: %s must be an integer, "
                   "not %r\n" % (field, value))


@pytest.mark.parametrize("command", [["verify"], ["simulate", "--p", "0.1"]])
def test_a_code_files_name_must_be_a_json_string(tmp_path, command):
    # verify would echo the number back as the code's name
    path = tmp_path / "code.json"
    path.write_text(json.dumps(dict(shipped_code_data("phase3"), name=5)))
    rc, out, err = run(command + ["--code", str(path)])
    assert rc == 2
    assert out == ""
    assert err == "error: malformed code file: name must be a string, not 5\n"


def test_a_channel_file_with_a_bool_entry_exits_two(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(dict(decoherence_data(),
                                    a00=[[True, 0.0], [0.0, 0.0]])))
    rc, out, err = run(["simulate", "--code", "phase3", "--filter",
                        "phase-only", "--p", "0.5", "--channel", str(path),
                        "--trials", "5"])
    assert rc == 2
    assert out == ""
    assert err == ("error: cannot load channel %r: malformed channel data: "
                   "a00 must be a number, not True\n" % str(path))


def test_a_code_file_with_a_huge_n_exits_two(tmp_path):
    # in a child process under a 2 GB address-space limit, so that shifting
    # 1 by n before the check fails the test instead of the machine
    data = shipped_code_data("phase3")
    data["n"] = 10 ** 12
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qeclab.__file__)))

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "qeclab", "verify", "--code", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=limit_address_space)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: malformed code file: %d qubits\n"
                           % 10 ** 12)


def test_simulate_refuses_a_repeated_qubit():
    # a repeated qubit would be eligible, and entangled, twice
    rc, out, err = run(["simulate", "--code", "shor9", "--channel", "random:2",
                        "--qubits", "0,0,1", "--p", "0.5", "--trials", "3"])
    assert rc == 2
    assert out == ""
    assert "qubit list repeats an index" in err


def test_simulate_refuses_a_qubit_list_that_is_not_ints():
    rc, out, err = run(["simulate", "--code", "shor9", "--channel", "random:2",
                        "--qubits", "0,x", "--p", "0.5", "--trials", "3"])
    assert rc == 2
    assert out == ""
    assert err == "error: --qubits must be 'all' or a comma list of ints\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "0.1", "--channel", "decoherence:nan"],
    ["demo3", "--overlap", "nan"],
])
def test_a_nan_overlap_is_refused_by_name(argv):
    rc, out, err = run(argv)
    assert rc == 2
    assert out == ""
    assert err == ("error: bad overlap in channel spec 'decoherence:nan': "
                   "overlap must be finite, got (nan+0j)\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "--code", "phase3", "--filter", "phase-only", "--p", "0.5",
     "--trials", "3", "--logical", "1e200,1e200"],
    ["demo3", "--c0", "1e308", "--c1", "1e308"],
])
def test_a_logical_state_whose_norm_overflows_is_refused(argv):
    # finite amplitudes whose norm is not: dividing by it would leave the
    # zero state
    rc, out, err = run(argv)
    assert rc == 2
    assert out == ""
    assert err == "error: logical state's norm overflows a float\n"


@pytest.mark.parametrize("c0", ["1e-13", "1e-200", "5e-324", "1e-200j"])
def test_a_tiny_logical_state_is_normalized(c0):
    # a norm below 1e-12, or one that underflows to 0, is not the zero
    # vector: the state is (1, 0) up to its phase
    c = complex(c0) / abs(complex(c0))
    assert experiment.read_amplitudes([c0, "0"], 2).tolist() == [c, 0j]
    rc, out, err = run(["simulate", "--code", "phase3", "--filter",
                        "phase-only", "--p", "0.5", "--trials", "2",
                        "--logical", c0 + ",0"])
    assert rc == 0
    assert out.startswith("trial,")
    assert json.loads(err)["results"]["success_count"] == 2
    rc, out, err = run(["demo3", "--c0", c0, "--c1", "0"])
    assert rc == 0
    assert ("logical state: (%.4f%+.4fj)|0> + (0.0000+0.0000j)|1>"
            % (c.real, c.imag)) in out
    assert "fidelity against the encoded block: 1.000000000000" in out


def test_a_logical_state_keeps_every_bit_it_had():
    # states the zero check never refused are divided by their norm alone
    for values in (["0.6", "0.8"], ["1e-6", "3e-7j"], ["3", "-4j"]):
        vec = np.array([complex(v) for v in values])
        assert (experiment.read_amplitudes(values, 2).tobytes()
                == (vec / np.linalg.norm(vec)).tobytes())
    with pytest.raises(experiment.BadInput, match="the zero vector"):
        experiment.read_amplitudes(["0", "-0j"], 2)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_refuses_fewer_than_one_worker(workers):
    # in a child process, so that a hang fails the test at its timeout
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qeclab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "qeclab", "simulate", "--code", "phase3",
         "--filter", "phase-only", "--p", "0.1", "--trials", "3",
         "--workers", workers],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "need at least one worker, not %s" % workers in proc.stderr


def test_simulate_refuses_more_workers_than_the_cap(monkeypatch):
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(experiment.os, "fork", no_fork)
    over = str(experiment.MAX_WORKERS + 1)
    rc, out, err = run(["simulate", "--code", "phase3", "--filter",
                        "phase-only", "--p", "0.1", "--trials", over,
                        "--workers", over])
    assert rc == 2
    assert out == ""
    assert err == "error: at most %d workers, not %s\n" % (
        experiment.MAX_WORKERS, over)
    # at the cap, one trial runs in this process alone
    rc, _, _ = run(["simulate", "--code", "phase3", "--filter", "phase-only",
                    "--p", "0.1", "--trials", "1", "--workers",
                    str(experiment.MAX_WORKERS)])
    assert rc == 0


#: runs a two-worker simulate whose run_range first runs {share}, then
#: reports its exit code (or the exception it raised) and whether any child
#: process is left
_WORKER_FAILURE = """
import os, pickle, signal, time
from qeclab import cli, experiment

run_range = experiment._ExperimentContext.run_range


class ShortPickle:  # sends the first 10 bytes of a payload
    HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL

    @staticmethod
    def dump(obj, pipe, protocol):
        pipe.write(pickle.dumps(obj, protocol)[:10])


def failing(self, start, stop):
    {share}
    return run_range(self, start, stop)

experiment._ExperimentContext.run_range = failing
try:
    rc = cli.main(["simulate", "--code", "phase3", "--filter", "phase-only",
                   "--p", "0.1", "--trials", "40", "--workers", "2"])
except RuntimeError as exc:
    rc = "raised %s" % exc
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left", rc)
except ChildProcessError:
    print("no child left", rc)
"""


@pytest.mark.parametrize("share, rc, error", [
    ('if start: raise RuntimeError("share %d-%d failed" % (start, stop))',
     "1", "worker for trials [20, 40) raised RuntimeError: share 20-40 "
     "failed"),
    ("if start: os._exit(3)", "1",
     "worker for trials [20, 40) exited with status 3 after sending 0 bytes "
     "that hold no complete result"),
    ("if start: os.kill(os.getpid(), signal.SIGKILL)", "1",
     "worker for trials [20, 40) was killed by signal 9 after sending 0 "
     "bytes that hold no complete result"),
    ("if start: experiment.pickle = ShortPickle", "1",
     "worker for trials [20, 40) exited with status 0 after sending 10 "
     "bytes that hold no complete result"),
    # the worker would sleep for ten minutes unless killed
    ('if not start: raise RuntimeError("own share failed")\n'
     "    time.sleep(600)", "raised own share failed", ""),
])
def test_a_failed_share_fails_the_run_and_leaves_no_process(share, rc, error):
    # in a child process of its own session, so that a hang fails the test
    # at its timeout, and whatever the run leaves behind is killed after it
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qeclab.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", _WORKER_FAILURE.format(share=share)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == 0, err
    assert out == "no child left %s\n" % rc
    assert err == ("error: %s\n" % error if error else "")


def test_simulate_refuses_an_activation_cap_it_cannot_sample():
    # no activation among 9 qubits at p = 0.99 has probability 1e-18, so
    # redrawing activations until the cap holds would never finish; the run
    # goes in a child process so that a hang fails the test at its timeout
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qeclab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "qeclab", "simulate", "--code", "shor9",
         "--p", "0.99", "--max-active", "0", "--trials", "3"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "probability 1e-18, below the floor" in proc.stderr
    # p = 1 with a cap below the eligible count can never be sampled at all
    rc, out, err = run(["simulate", "--code", "phase3", "--p", "1",
                        "--max-active", "2", "--filter", "phase-only",
                        "--trials", "2"])
    assert rc == 2
    assert "probability 0," in err


def _digest_without_fidelity(csv_text):
    lines = []
    for line in csv_text.splitlines():
        cols = line.split(",")
        lines.append(",".join(cols[:3] + cols[4:]))
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


@pytest.mark.parametrize("strategy, digest", [
    ("exhaustive",
     "b13e19122dfb66b095c15444f705c6d4532d9ef9c8c33ba1a17ae0ce4af50b2d"),
    ("hierarchical",
     "392d477ada465cfe459a94935a17eff282a1b6cd2a8738a6df6190fa5fcf2cf1"),
])
def test_simulate_per_trial_draw_order_is_pinned(tmp_path, strategy, digest):
    # every column but fidelity (whose last bits may move with the order of
    # floating-point operations) of a fixed-seed run; a change here is a
    # change to the reproducibility contract and must be announced
    out = tmp_path / "records.csv"
    rc, _, _ = run(["simulate", "--code", "shor9", "--channel", "random:2",
                    "--max-active", "2", "--p", "0.2", "--trials", "300",
                    "--seed", "7", "--strategy", strategy, "--out", str(out),
                    "--summary", str(tmp_path / "summary.json")])
    assert rc == 0
    assert _digest_without_fidelity(out.read_text()) == digest


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full, whose writes fail with ENOSPC")
@pytest.mark.parametrize("argv, option", [
    (["bounds", "--l", "1", "--t", "1"], "--out"),
    (_SIMULATE, "--out"),
    (_SIMULATE, "--summary"),
])
def test_a_write_that_fails_exits_two(argv, option):
    rc, out, err = run(argv + [option, "/dev/full"])
    assert rc == 2
    assert err == "error: cannot write /dev/full: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full, whose writes fail with ENOSPC")
@pytest.mark.parametrize("argv", [
    ["verify", "--code", "phase3"],
    ["bounds", "--l", "1", "--t", "1"],
    ["demo3"],
    ["catalogue"],
    _SIMULATE,
    # the summary goes to stdout when the records go to --out
    _SIMULATE + ["--out", os.devnull],
    ["--help"],
    ["verify", "--help"],
], ids=["verify", "bounds", "demo3", "catalogue", "simulate",
        "simulate-summary", "help", "verify-help"])
def test_a_write_to_stdout_that_fails_exits_two(argv):
    # in a child process, so that the interpreter's own flush of stdout at
    # exit would show too
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qeclab.__file__)))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qeclab"] + argv,
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == ("error: cannot write <stdout>: No space left on "
                           "device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full, whose writes fail with ENOSPC")
@pytest.mark.parametrize("argv, code", [
    # the summary goes to stderr, which cannot take it
    (_SIMULATE, 2),
    # only main's error line goes to stderr: it is dropped, the exit code
    # stays the failure's
    (["verify", "--code", "nonsense"], 2),
    (["simulate", "--code", "phase3", "--p", "0.1", "--trials", "3"], 1),
], ids=["simulate-summary", "bad-input", "condition"])
def test_a_write_to_stderr_that_fails_keeps_the_exit_code(argv, code):
    # in a child process, so that the interpreter's own flush of stderr at
    # exit would show too
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qeclab.__file__)))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qeclab"] + argv,
                              stdout=subprocess.PIPE, stderr=full, text=True,
                              env=env, timeout=120)
    assert proc.returncode == code
    if argv is _SIMULATE:  # the records went out before the summary failed
        assert proc.stdout.startswith(experiment.CSV_HEADER + "\n")


def _context(**kwargs):
    return experiment._ExperimentContext(experiment.ExperimentConfig(
        p=0.2, trials=5, **kwargs))


def test_consecutive_calls_share_no_state(tmp_path):
    # the parser is built once per process; no call's options may leak into
    # the next
    simulate = ["simulate", "--code", "perfect5", "--p", "0.05", "--trials",
                "5"]
    rc, _, err = run(simulate + ["--t", "0"])
    assert rc == 0 and json.loads(err)["config"]["t"] == 0
    rc, _, err = run(simulate)
    assert rc == 0 and json.loads(err)["config"]["t"] == 1
    path = tmp_path / "verify.json"
    verify = ["verify", "--code", "phase3", "--condition", "phase"]
    rc, out, _ = run(verify + ["--out", str(path)])
    assert rc == 0 and out == ""
    rc, out, _ = run(verify)
    assert rc == 0 and out == path.read_text()
    assert cli.build_parser() is cli.build_parser()
    # a catalogue code's syndrome table and overlaps are cached within the
    # process, per weight t and filter: another t or filter gets its own
    t0 = _context(code="perfect5", t=0).table
    t1 = _context(code="perfect5").table
    assert (len(t0), len(t1)) == (1, 16)
    assert _context(code="perfect5", t=0).table is t0
    phase = ["simulate", "--code", "phase3", "--p", "0.2", "--trials", "5"]
    rc, _, _ = run(phase + ["--filter", "phase-only"])
    assert rc == 0
    rc, _, err = run(phase + ["--filter", "all"])  # fails the general check
    assert rc == 1 and "ConditionReport(general, t=1: FAIL" in err
    only = _context(code="phase3", pattern_filter="phase-only")
    assert len(only.table) == 4 and only.table.keys.tolist() == [
        0, 8, 16, 32]
    # a code file is read again by every call, never served from a cache
    path = tmp_path / "code.json"
    path.write_text(json.dumps(shipped_code_data("phase3")))
    code_file = ["simulate", "--code", str(path), "--filter", "phase-only",
                 "--p", "0.2", "--trials", "5"]
    assert run(code_file)[0] == 0
    path.write_text(json.dumps(repetition_code_data(3)))
    rc, _, err = run(code_file)  # the repetition code corrects no phase
    assert rc == 1 and "ConditionReport(phase, t=1: FAIL" in err
    # what the caches hold cannot be written to
    ctx = _context(code="shor9", channel="random:2", max_active=2)
    ctx.run_range(0, 5)
    assert ctx.overlaps.weight >= 0
    for array in (ctx.code.matrix(), ctx.table.keys, ctx.table.rows,
                  ctx.table.conj_rows, ctx.table.halves, ctx.overlaps.keys,
                  ctx.overlaps.columns):
        assert not array.flags.writeable
    # a run with cold caches writes the bytes of one with warm caches
    mc = ["simulate", "--code", "shor9", "--channel", "random:2",
          "--max-active", "2", "--p", "0.2", "--trials", "80", "--seed", "3",
          "--summary", os.devnull]
    outputs = []
    for cold in (True, False):
        if cold:
            codes._load_builtin.cache_clear()
            experiment._shared_table.cache_clear()
            experiment._shared_overlaps.cache_clear()
        rc, out, _ = run(mc)
        assert rc == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_simulate_refuses_one_file_for_records_and_summary(tmp_path):
    # each would overwrite the other
    path = str(tmp_path / "both.txt")
    rc, out, err = run(_SIMULATE + ["--out", path, "--summary", path])
    assert rc == 2
    assert out == ""
    assert err == ("error: --out and --summary name the same file %s\n"
                   % path)
    # a device that discards what it is given may take both
    rc, out, err = run(_SIMULATE + ["--out", os.devnull, "--summary",
                                    os.devnull])
    assert rc == 0
    assert out == err == ""


_PERFECT5 = ("--code", "perfect5", "--channel", "random:2", "--p", "0.05",
             "--trials", "1200", "--seed", "7")
_PHASE3 = ("--code", "phase3", "--filter", "phase-only", "--channel",
           "decoherence:0", "--p", "0.05", "--trials", "1000", "--seed", "7")
# eight eligible qubits end each activation draw on a 4-word Philox block
_SHOR9_EIGHT = ("--code", "shor9", "--channel", "random:2", "--max-active",
                "2", "--qubits", "0,1,2,3,4,5,6,7", "--p", "0.2", "--trials",
                "300", "--seed", "-1")


# (whole CSV, CSV without fidelity) digests. The fidelity-free digests were
# recorded with the dense engine, before syndrome coordinates came from the
# overlaps; that change moved the last bits of some perfect5 and shor9
# fidelities (by at most 1.1e-15) and nothing else, so only the whole-CSV
# digests of those runs were recorded again.
@pytest.mark.parametrize("argv, workers, digest, records_digest", [
    (_PERFECT5 + ("--strategy", "exhaustive"), workers,
     "9c202b1b3bf8b6eef3eabc861f76ecb8df749e78941d8596d78056feb4077288",
     "71fb7c6281b0b02511a3a7959e453abc0a1488444e317657c84a8db28e3acb48")
    for workers in (1, 2)] + [
    (_PERFECT5 + ("--strategy", "hierarchical"), workers,
     "e8d63fd4a3c1415ad645ac82f673f7a4f212795479cd149d4f85474722f0be79",
     "8823eb30011047e497dd09826bf095d3d09cfec7fdf09ad2d90ce2d604de94fd")
    for workers in (1, 2)] + [
    (_PHASE3, workers,
     "769ae305df7bf8c687b9bcc547f525578b79bc128b7ff0140ba622df99eb4edc",
     "b6df6a04bf4b8adc4450db0b29570d6a29c2d5aa9b095c69d88db8b05c137796")
    for workers in (1, 3)] + [
    (_SHOR9_EIGHT, 1,
     "d36bbe14608108a5c2eb761815d4773668d8fe452c34da3603aae88ecd69e57f",
     "ee565e28e18ed3620c1629af46cbab4a977b100c8d3f9f64a0cae50a214330bd"),
])
def test_simulate_csv_is_pinned(tmp_path, argv, workers, digest,
                                records_digest):
    # the whole CSV, fidelity included, of fixed-seed runs: a change to how
    # trials draw or compute must reproduce every byte
    out = tmp_path / "records.csv"
    rc, _, _ = run(["simulate", *argv, "--workers", str(workers),
                    "--out", str(out), "--summary", os.devnull])
    assert rc == 0
    assert _digest_without_fidelity(out.read_text()) == records_digest
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _forked_blas_threads(get):
    """The OpenBLAS thread count that a process forked now sees."""
    read, write = os.pipe()
    pid = os.fork()
    if not pid:
        try:
            os.write(write, bytes([get()]))
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        seen = pipe.read()
    assert os.waitpid(pid, 0)[1] == 0
    return seen[0]


def test_one_blas_thread_holds_forked_workers_and_restores_the_count():
    controls = experiment._openblas_thread_controls()
    if controls is None:
        pytest.skip("numpy's bundled OpenBLAS is not available here")
    get, set_ = controls
    before = get()
    with pytest.raises(RuntimeError):
        with experiment._one_blas_thread():
            assert get() == 1
            assert _forked_blas_threads(get) == 1
            raise RuntimeError("the count is restored on the way out")
    assert get() == before


def test_one_blas_thread_is_a_no_op_without_openblas(monkeypatch, tmp_path):
    bogus = tmp_path / "libscipy_openblas64_-0.so"
    bogus.write_bytes(b"not a shared library")
    monkeypatch.setattr(experiment.glob, "glob", lambda pattern: [str(bogus)])
    assert experiment._openblas_thread_controls() is None
    with experiment._one_blas_thread():
        pass


# -- catalogue --------------------------------------------------------------------


def test_catalogue_reports_every_builtin_verdict():
    rc, out, err = run(["catalogue"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "code,n,l,claimed_t,condition,t,expected,actual"
    assert "phase3,3,1,1,phase,1,pass,pass" in lines
    assert "phase3,3,1,1,general,1,fail,fail" in lines
    assert "shor9,9,1,1,general,1,pass,pass" in lines
    assert "perfect5,5,1,1,general,1,pass,pass" in lines
    assert "trivial1,1,1,0,general,0,pass,pass" in lines
    assert len(lines) == 1 + 18


# sha256 of every catalogue and built-in verify output, recorded when every
# check still went through the full Gram matrix of its pattern images; a
# check computed another way must reproduce each byte, signed zeros
# included, and a change here is a change to a report that must be announced
@pytest.mark.parametrize("fmt, digest", [
    ("csv", "a8f41d9adb93b65c88c3eaebfc69016b8c161be16ad8f63e1f4c027fd2d18015"),
    ("json", "2a7bda94ff1e63fbfffd6e84b891bdea7bcb62d8eba0829f98a5ddb73f346012"),
])
def test_catalogue_output_is_pinned(fmt, digest):
    rc, out, err = run(["catalogue", "--format", fmt])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


VERIFY_PINS = [
    ("phase3", "amplitude", 1, 1,
     "63cc8b7e92383aaea33679d5891af2f0a1528b24793878af340372f0b0593225"),
    ("phase3", "phase", 1, 0,
     "6ef041e9a6a62527918a9eed8163a715766e38fd50d807b846daea6bbdf615b4"),
    ("phase3", "general", 1, 1,
     "494406c0ae86a4e812a7a7cc28c636be445ede5f45cc0ef3c1490a527329c28e"),
    ("phase3", "phase", 3, 1,
     "9d62c9d51c92c1169f126d00068701d258ab4047c3dc40fadfa99c1a63a301b4"),
    ("shor9", "amplitude", 1, 0,
     "8bb53dcf08daf61b77546d3633d17855ec59a57333ff797172499faba173d875"),
    ("shor9", "phase", 1, 0,
     "8df91010f79e0d83893106f353a2c8da8a7b2bfe2a3999af7a568804d183816a"),
    ("shor9", "general", 1, 0,
     "df040be2a747b527c1b4cd98fa7a90ce1a4ee63c8708b99a4c72d15258dd6ae1"),
    ("shor9", "general", 2, 1,
     "74dab9ef6cf975cb80e2a0bd6c4ade994d3d7e805682a80e800cc5f3a454315a"),
    ("shor9", "general", 3, 1,
     "e0578dfa3053c3ec6929a3d6833e0ed441438388dd1c2b51d8a2bccafa9f4fa9"),
    ("perfect5", "amplitude", 1, 0,
     "13da7e37585bbcffa85a86fee4eab352bc6021928e7de40e30ceca2435722062"),
    ("perfect5", "phase", 1, 0,
     "b756ff1b568c668205a920e7651a3b6ea0d5330925300133572269ae0e05f130"),
    ("perfect5", "general", 1, 0,
     "223ea352f1f659eb96e3bb774145dad74ca36abecf0c54af53dcd8583b1ea03f"),
    ("perfect5", "general", 2, 1,
     "68180b24095c5eb61cb3aa63b8bae6d1091d0738e4e0f6364d2bfa83a28ad8ed"),
    ("trivial1", "amplitude", 0, 0,
     "85e5c230a6165c40b85bdfeb095a2dfd1bec2cd2eea30ede919e8804150dbe5a"),
    ("trivial1", "phase", 0, 0,
     "c199e669a313452f10d2345325048d60c585772cbdc89b1aa7a854dd876a1303"),
    ("trivial1", "general", 0, 0,
     "dfd0ed71532a592f885985d7624530f8b171a583fa08fc763ff024a4aa73d15a"),
    ("trivial1", "amplitude", 1, 1,
     "94c522bd446ae697d6febce5751701e2938b421df2431360f20f65c52bd32c54"),
    ("trivial1", "phase", 1, 1,
     "57b9a64497ddd62c550352bcbd2ff1693e0bd42481ff1cd01d4d172bde444952"),
    ("trivial1", "general", 1, 1,
     "827f1910e76c59331747df32aaa2f1fb57756c827a085d78bc1f66c6a6703573"),
]


@pytest.mark.parametrize("name, condition, t, rc, digest", VERIFY_PINS)
def test_verify_output_is_pinned(name, condition, t, rc, digest):
    got_rc, out, err = run(["verify", "--code", name, "--condition",
                            condition, "--t", str(t)])
    assert got_rc == rc
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pinned_verify_cases_cover_the_catalogue():
    pinned = {pin[:3] for pin in VERIFY_PINS}
    assert pinned >= {(name, condition, t)
                      for name, rows in CATALOGUE_EXPECTATIONS.items()
                      for condition, t, _ in rows}


# -- shared plumbing ---------------------------------------------------------------


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_analytic_bound_matches_binomial_tail():
    # three qubits, one correctable error: (1-p)^3 + 3p(1-p)^2
    p = 0.05
    expected = (1 - p) ** 3 + 3 * p * (1 - p) ** 2
    assert analytic_success_bound(3, 1, p) == pytest.approx(expected)
    assert analytic_success_bound(3, 1, 0.0) == pytest.approx(1.0)
    # capping the number of active qubits conditions the tail
    assert analytic_success_bound(9, 1, 0.9, max_active=1) == pytest.approx(1.0)
