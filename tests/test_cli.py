import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import qeclab
from qeclab import experiment
from qeclab.cli import main
from qeclab.experiment import analytic_success_bound


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


def _blas_threads():
    return experiment._openblas_thread_controls()[0]()


def test_one_blas_thread_holds_forked_workers_and_restores_the_count():
    controls = experiment._openblas_thread_controls()
    if controls is None:
        pytest.skip("numpy's bundled OpenBLAS is not available here")
    get, set_ = controls
    before = get()
    with pytest.raises(RuntimeError):
        with experiment._one_blas_thread():
            assert get() == 1
            with multiprocessing.get_context("fork").Pool(1) as pool:
                assert pool.apply(_blas_threads) == 1
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
