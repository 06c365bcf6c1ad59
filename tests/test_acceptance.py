"""End-to-end acceptance checks, one per criterion, each printing a verdict line.

Every numeric expectation here was fixed in advance (worked examples,
closed-form values, or independently derived bounds); the tests compare the
library's behavior against those frozen values at the stated tolerances.
"""

import math

import numpy as np

from qeclab import (
    BitString,
    ErrorPattern,
    PureState,
    apply_amplitude,
    apply_channel,
    apply_pattern,
    apply_phase,
    asymptotic_hamming_rate,
    build_syndrome_table,
    correct,
    encode,
    finite_hamming_rate,
    hamming_holds,
    load_code,
    make_decoherence,
    min_n_gv,
    min_n_hamming,
    random_channel,
    residue_oracle,
    run_checker,
    sphere_volume,
    trial_generator,
)
from qeclab.cli import main

from walk_trees import check_strategies


def random_logical(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def test_criterion_01_operator_ground_truth(acceptance):
    with acceptance.criterion(1, "amplitude and phase operators on the worked 6-bit example, exact"):
        alpha = beta = BitString.from_text("(001010)")
        ket = PureState.basis_state("(110111)")
        flipped = apply_amplitude(alpha, ket)
        assert np.array_equal(flipped.amps, PureState.basis_state("(111101)").amps)
        signed = apply_phase(beta, ket)
        assert np.array_equal(signed.amps, -ket.amps)


def test_criterion_02_minimal_block_sizes(acceptance):
    with acceptance.criterion(2, "one protected qubit needs n=5 by packing, n=9 by covering"):
        assert min_n_hamming(1, 1) == 5
        assert min_n_gv(1, 1) == 9


def test_criterion_03_perfect_packing_equality(acceptance):
    with acceptance.criterion(3, "the (5,1,1) packing bound holds with equality 2*16 = 32"):
        assert hamming_holds(5, 1, 1)
        assert 2 * sphere_volume(5, 1) == 32 == 2 ** 5


def test_criterion_04_condition_checker_verdicts(acceptance):
    with acceptance.criterion(4, "checker separates phase-only from general correctability"):
        phase3 = load_code("phase3")
        assert run_checker(phase3, "phase", 1).passed

        report = run_checker(phase3, "general", 1)
        assert not report.passed
        # the failure must include the bit-flip cross term <C^1|A(100)|C^0> = 1
        hits = [
            val
            for (k, m, p, p2, val) in report.violations
            if {k, m} == {0, 1}
            and {p.text(), p2.text()} == {"A(000)P(000)", "A(100)P(000)"}
        ]
        assert hits and abs(hits[0] - 1.0) <= 1e-9

        assert run_checker(load_code("shor9"), "general", 1).passed


def test_criterion_05_exact_recovery_at_desk_scale(acceptance):
    with acceptance.criterion(5, "single-error recovery is exact for shor9 and phase3"):
        # 200 trials: one random qubit of shor9 through a fresh random
        # general-dissipation channel with a 4-level environment
        code = load_code("shor9")
        table = build_syndrome_table(code, 1)
        for trial in range(200):
            rng = trial_generator(505, trial)
            qubit = int(rng.integers(code.n))
            channel = random_channel(4, rng)
            ref = encode(code, random_logical(rng))
            report = correct(apply_channel(ref, qubit, channel), table,
                             "hierarchical", rng, ref)
            assert report.fidelity >= 1 - 1e-8
            assert report.disentangled

        # phase-only recovery: every position x 20 overlaps x 20 logicals
        code = load_code("phase3")
        table = build_syndrome_table(code, 1, "phase-only")
        rng = trial_generator(506, 0)
        for qubit in range(3):
            for _ in range(20):
                overlap = rng.uniform() * np.exp(2j * np.pi * rng.uniform())
                channel = make_decoherence(overlap)
                for _ in range(20):
                    ref = encode(code, random_logical(rng))
                    report = correct(apply_channel(ref, qubit, channel),
                                     table, "exhaustive", rng, ref)
                    assert report.fidelity >= 1 - 1e-8
                    assert report.disentangled


def test_criterion_06_decomposition_identity(acceptance):
    with acceptance.criterion(6, "dissipated joint state = sum of pattern images tensor residues"):
        rng = trial_generator(607, 0)
        for code_name, affected_sets in [("phase3", [(0,), (1,), (2,)]),
                                          ("shor9", [(0,), (4,), (8,)])]:
            code = load_code(code_name)
            n = code.n
            for affected in affected_sets:
                chans = [(q, random_channel(int(rng.integers(2, 4)), rng))
                         for q in affected]
                m = len(affected)
                patterns = []
                for a_mask in range(1 << m):
                    for b_mask in range(1 << m):
                        alpha = [0] * n
                        beta = [0] * n
                        for j, q in enumerate(affected):
                            alpha[q] = (a_mask >> j) & 1
                            beta[q] = (b_mask >> j) & 1
                        patterns.append(ErrorPattern(BitString(alpha), BitString(beta)))
                residues = [residue_oracle(chans, pat.alpha, pat.beta)
                            for pat in patterns]

                # the same residues must rebuild the joint state for any
                # logical content
                for seed in (1, 2):
                    ref = encode(code, random_logical(trial_generator(608, seed)))
                    joint = ref
                    for q, ch in chans:
                        joint = apply_channel(joint, q, ch)
                    acc = np.zeros(joint.amps.shape, dtype=complex)
                    for pat, res in zip(patterns, residues):
                        errored = apply_pattern(pat, ref)
                        acc += np.multiply.outer(
                            errored.amps, res.amps.ravel()).reshape(joint.amps.shape)
                    assert np.linalg.norm(acc - joint.amps) < 1e-8


def test_criterion_07_monte_carlo_meets_the_analytic_bound(acceptance):
    with acceptance.criterion(7, "10^5-trial success rate clears the guaranteed bound minus 3 sigma"):
        from qeclab.cli import ExperimentConfig, run_experiment

        config = ExperimentConfig(code="phase3", p=0.05, channel="decoherence:0",
                                  trials=100000, seed=2026,
                                  pattern_filter="phase-only")
        records, summary = run_experiment(config, workers=4)
        q = 0.99275  # = (1-p)^3 + 3p(1-p)^2 at p = 0.05
        assert abs(summary["results"]["analytic_success_bound"] - q) < 1e-12
        sigma = math.sqrt(q * (1 - q) / 100000)
        assert summary["results"]["success_rate"] >= q - 3 * sigma


def test_criterion_08_strategies_agree_exactly(acceptance):
    with acceptance.criterion(8, "exhaustive and dyadic walks give identical syndrome distributions"):
        rng = trial_generator(809, 0)

        code = load_code("phase3")
        table = build_syndrome_table(code, 1, "phase-only")
        ref = encode(code, random_logical(rng))
        states = [apply_channel(ref, q, make_decoherence(0.3)) for q in range(3)]
        states += [apply_phase(BitString.from_text(beta), ref)
                   for beta in ("(100)", "(010)", "(001)")]

        code9 = load_code("shor9")
        table9 = build_syndrome_table(code9, 1)
        ref9 = encode(code9, random_logical(rng))
        states9 = [apply_channel(ref9, q, random_channel(3, rng)) for q in (0, 5)]
        states9 += [apply_pattern(ErrorPattern.from_text(
            "A(010000000)P(010000000)"), ref9)]

        for st, tab in [(s, table) for s in states] + [(s, table9) for s in states9]:
            check_strategies(st, tab)


def test_criterion_09_finite_rates_track_the_asymptote(acceptance):
    with acceptance.criterion(9, "block-1000 packing rates sit within 0.02 of the asymptotic curve"):
        for tau in (0.01, 0.05, 0.1):
            finite = finite_hamming_rate(1000, int(tau * 1000))
            assert abs(finite - asymptotic_hamming_rate(tau)) < 0.02


def test_criterion_10_worker_count_cannot_change_the_records(acceptance, tmp_path):
    with acceptance.criterion(10, "simulate emits byte-identical CSV at any worker count"):
        outputs = []
        for workers in ("1", "3"):
            path = tmp_path / ("records_w%s.csv" % workers)
            rc = main(["simulate", "--code", "phase3", "--p", "0.3",
                       "--trials", "60", "--filter", "phase-only",
                       "--seed", "909", "--workers", workers,
                       "--out", str(path),
                       "--summary", str(tmp_path / ("s%s.json" % workers))])
            assert rc == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
