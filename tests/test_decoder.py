import numpy as np
import pytest

from qeclab import (
    BitString,
    ConditionError,
    ErrorPattern,
    apply_channel,
    apply_pattern,
    build_syndrome_table,
    condition_patterns,
    correct,
    encode,
    load_code,
    make_decoherence,
    measure_exhaustive,
    measure_hierarchical,
    random_channel,
    recover,
    schmidt_diagnostics,
    syndrome_distribution,
    trial_generator,
)
from qeclab import decoder
from qeclab.decoder import sample_walk

from walk_trees import Stream, check_strategies


def encoded(code_name, c0=0.6, c1=0.8):
    code = load_code(code_name)
    return code, encode(code, np.array([c0, c1]))


def decohered(ref, qubits, overlap=0.0):
    st = ref
    for qb in qubits:
        st = apply_channel(st, qb, make_decoherence(overlap))
    return st


# -- table construction --------------------------------------------------------


def test_table_requires_the_matching_condition():
    code = load_code("phase3")
    with pytest.raises(ConditionError) as exc:
        build_syndrome_table(code, 1)  # fails the general condition
    assert exc.value.report.condition == "general"
    assert not exc.value.report.passed
    # the phase-only condition holds, so that table builds
    table = build_syndrome_table(code, 1, "phase-only")
    assert len(table) == 4


def test_table_rejects_unknown_filter():
    with pytest.raises(ValueError):
        build_syndrome_table(load_code("shor9"), 1, "sideways")


def test_table_layout_for_general_patterns():
    code = load_code("shor9")
    table = build_syndrome_table(code, 1)
    assert len(table) == 28  # 1 + 3*9 weight <= 1 patterns
    assert table.keys.shape == (28,)
    assert (tuple(ErrorPattern.from_key(k, 9) for k in table.keys)
            == tuple(condition_patterns(9, 1, "general")))
    assert table.labels[0] == "H[A(000000000)P(000000000)]"
    assert table.labels[1] == "H[A(100000000)P(000000000)]"
    assert not table.is_complete  # 56 of 512 dimensions
    # every subspace holds one image per code vector, all orthonormal
    assert table.rows.shape == (56, 512)
    gram = table.rows.conj() @ table.rows.T
    assert np.max(np.abs(gram - np.eye(56))) < 1e-10


def test_table_holds_the_checkers_arrays_read_only(monkeypatch):
    checks, real_check = [], decoder._gram_check

    def gram_check(code, condition, t):
        checks.append(real_check(code, condition, t))
        return checks[-1]

    monkeypatch.setattr(decoder, "_gram_check", gram_check)
    table = build_syndrome_table(load_code("shor9"), 1)
    (report, keys, rows), = checks
    assert table.keys is keys and table.rows is rows
    for array in (table.keys, table.rows, table.conj_rows):
        assert not array.flags.writeable
    assert np.array_equal(table.conj_rows, rows.conj())


def test_complete_tables_cover_the_whole_space():
    assert build_syndrome_table(load_code("phase3"), 1, "phase-only").is_complete
    assert build_syndrome_table(load_code("perfect5"), 1).is_complete
    assert build_syndrome_table(load_code("trivial1"), 0).is_complete


def test_trivial_code_table_is_the_identity_subspace():
    table = build_syndrome_table(load_code("trivial1"), 0)
    assert table.labels == ("H[A(0)P(0)]",)


# -- measurement ---------------------------------------------------------------


def test_uncorrupted_state_yields_the_zero_syndrome():
    code, ref = encoded("shor9")
    table = build_syndrome_table(code, 1)
    for measure in (measure_exhaustive, measure_hierarchical):
        collapsed, syndrome, trace = measure(ref, table, Stream([0.5] * 30))
        assert syndrome == ErrorPattern.from_key(table.keys[0], 9)
        assert syndrome.is_zero()
        assert np.allclose(collapsed.amps, ref.amps, atol=1e-12)
        assert all(outcome in (0, 1) for _, outcome in trace)


def test_forced_outcomes_walk_the_canonical_order():
    code, ref = encoded("phase3")
    table = build_syndrome_table(code, 1, "phase-only")
    st = decohered(ref, (0, 1))
    for i, key in enumerate(table.keys):
        expected = ErrorPattern.from_key(key, 3)
        collapsed, syndrome, trace = measure_exhaustive(st, table, Stream([1.0] * i + [0.0]))
        assert syndrome == expected
        assert len(trace) == i + 1
        assert trace[-1] == (table.labels[i], 1)
        assert [o for _, o in trace[:-1]] == [0] * i


def test_hierarchical_walk_is_a_binary_search():
    code, ref = encoded("phase3")
    table = build_syndrome_table(code, 1, "phase-only")
    st = decohered(ref, (0, 1))
    # a complete table starts with membership known, so two block
    # measurements pin down one of four subspaces
    collapsed, syndrome, trace = measure_hierarchical(st, table, Stream([1.0, 0.0]))
    assert syndrome.text() == "A(000)P(010)"
    assert trace == [("U[0..1]", 0), ("H[A(000)P(010)]", 1)]
    collapsed, syndrome, trace = measure_hierarchical(st, table, Stream([0.0, 0.0]))
    assert syndrome.text() == "A(000)P(000)"
    assert trace == [("U[0..1]", 1), ("H[A(000)P(000)]", 1)]


def test_hierarchical_descends_past_every_block_for_orphan_states():
    code, ref = encoded("shor9")
    table = build_syndrome_table(code, 1)
    orphan = apply_pattern(ErrorPattern.from_text("A(000000000)P(110000000)"), ref)
    collapsed, syndrome, trace = measure_hierarchical(orphan, table, Stream([]))
    assert syndrome is None
    assert [lbl for lbl, _ in trace] == [
        "U[0..15]",
        "U[16..23]",
        "U[24..25]",
        "H[A(000000000)P(000000001)]",
        "H[A(000000001)P(000000001)]",
    ]
    assert all(outcome == 0 for _, outcome in trace)
    assert np.allclose(collapsed.amps, orphan.amps, atol=1e-12)


def test_measurement_collapse_is_consistent_with_distribution():
    code, ref = encoded("phase3", 0.48, np.sqrt(1 - 0.48 ** 2))
    table = build_syndrome_table(code, 1, "phase-only")
    st = decohered(ref, (0,), overlap=0.25)
    labels, probs = syndrome_distribution(st, table)
    assert probs.sum() == pytest.approx(1.0)
    # drive the sampler with a deviate just below / above the first mass
    eps = 1e-9
    _, syn_low, _ = measure_exhaustive(st, table, Stream([probs[0] - eps]))
    _, syn_high, _ = measure_exhaustive(st, table, Stream([probs[0] + eps, 0.0]))
    assert syn_low == ErrorPattern.from_key(table.keys[0], 3)
    assert syn_high == ErrorPattern.from_key(table.keys[1], 3)


# -- distributions -------------------------------------------------------------


def test_single_decoherence_splits_between_identity_and_one_flip():
    code, ref = encoded("phase3")
    table = build_syndrome_table(code, 1, "phase-only")
    labels, probs = syndrome_distribution(decohered(ref, (0,)), table)
    assert labels == ["A(000)P(000)", "A(000)P(100)", "A(000)P(010)", "A(000)P(001)", "none"]
    assert np.allclose(probs, [0.5, 0.5, 0.0, 0.0, 0.0], atol=1e-12)


def test_multi_decoherence_spreads_uniformly():
    code, ref = encoded("phase3")
    table = build_syndrome_table(code, 1, "phase-only")
    for qubits in [(0, 1), (0, 1, 2)]:
        labels, probs = syndrome_distribution(decohered(ref, qubits), table)
        assert np.allclose(probs[:4], 0.25, atol=1e-12)
        assert probs[4] == pytest.approx(0.0, abs=1e-15)


def test_strategies_agree_on_syndrome_distributions():
    code, ref = encoded("phase3")
    table = build_syndrome_table(code, 1, "phase-only")
    check_strategies(decohered(ref, (0, 1), overlap=0.3), table)
    code, ref = encoded("shor9")
    st = apply_channel(ref, 4, random_channel(2, np.random.default_rng(8)))
    check_strategies(decohered(st, (7,), overlap=0.5),
                     build_syndrome_table(code, 1))


# -- recovery ------------------------------------------------------------------


def test_recover_undoes_a_unitary_pattern():
    code, ref = encoded("shor9")
    pat = ErrorPattern.from_text("A(000010000)P(000010000)")
    errored = apply_pattern(pat, ref)
    restored = recover(errored, pat)
    # A P followed by A then P restores the input up to the anticommutation
    # sign, which is physically irrelevant; compare via overlap magnitude
    overlap = np.vdot(restored.amps, ref.amps)
    assert abs(overlap) == pytest.approx(1.0)


def test_correct_restores_single_decoherence_exactly():
    code, ref = encoded("phase3")
    table = build_syndrome_table(code, 1, "phase-only")
    st = decohered(ref, (1,))
    for strategy in ("exhaustive", "hierarchical"):
        rep = correct(st, table, strategy, trial_generator(7, 0), ref)
        assert rep.fidelity >= 1 - 1e-8
        assert rep.disentangled
        assert rep.corrected
        assert rep.syndrome.alpha.is_zero()


def test_correct_conditioned_fidelities_for_two_decohered_qubits():
    # with two fully decohered qubits the four syndromes are equally likely;
    # three of them still lead to perfect recovery and the fourth leaves a
    # disentangled but logically flipped state with overlap (c0^2 - c1^2)^2
    code, ref = encoded("phase3")
    table = build_syndrome_table(code, 1, "phase-only")
    st = decohered(ref, (0, 1))
    fidelities = {}
    for i in range(4):
        rep = correct(st, table, "exhaustive", Stream([1.0] * i + [0.0]), ref)
        assert rep.corrected
        assert rep.disentangled
        fidelities[rep.syndrome.text()] = rep.fidelity
    assert fidelities["A(000)P(000)"] == pytest.approx(1.0)
    assert fidelities["A(000)P(100)"] == pytest.approx(1.0)
    assert fidelities["A(000)P(010)"] == pytest.approx(1.0)
    assert fidelities["A(000)P(001)"] == pytest.approx((0.36 - 0.64) ** 2)


def test_correct_leaves_residual_entanglement_for_three_decohered_qubits():
    code, ref = encoded("phase3")
    table = build_syndrome_table(code, 1, "phase-only")
    st = decohered(ref, (0, 1, 2))
    rep = correct(st, table, "exhaustive", Stream([0.0]), ref)
    assert rep.syndrome.is_zero()
    assert rep.fidelity == pytest.approx(0.6 ** 4 + 0.8 ** 4)
    top, _ = schmidt_diagnostics(rep.recovered_state)
    assert top == pytest.approx(0.8)
    assert not rep.disentangled


def test_correct_flags_aliased_double_error_as_corrected_but_wrong():
    code, ref = encoded("shor9")
    table = build_syndrome_table(code, 1)
    st = apply_pattern(ErrorPattern.from_text("A(110000000)P(000000000)"), ref)
    rep = correct(st, table, "exhaustive", Stream([0.0] * 30), ref)
    assert rep.syndrome.text() == "A(000000100)P(000000000)"
    assert rep.corrected  # a syndrome was found ...
    assert rep.disentangled
    assert rep.fidelity == pytest.approx(1 - (0.36 - 0.64) ** 2)  # ... wrongly


def test_correct_reports_failure_when_no_subspace_matches():
    code, ref = encoded("shor9")
    table = build_syndrome_table(code, 1)
    st = apply_pattern(ErrorPattern.from_text("A(000000000)P(110000000)"), ref)
    for strategy in ("exhaustive", "hierarchical"):
        rep = correct(st, table, strategy, Stream([]), ref)
        assert rep.syndrome is None
        assert not rep.corrected
        assert rep.fidelity == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(rep.recovered_state.amps, st.amps, atol=1e-12)
    # the exhaustive walk visits all 28 subspaces, the dyadic walk 5 blocks
    rep_e = correct(st, table, "exhaustive", Stream([]), ref)
    rep_h = correct(st, table, "hierarchical", Stream([]), ref)
    assert len(rep_e.outcome_trace) == 28
    assert len(rep_h.outcome_trace) == 5


def test_correct_handles_random_general_dissipation_on_shor9():
    code, ref_logical = load_code("shor9"), None
    rng = trial_generator(42, 1)
    vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vec /= np.linalg.norm(vec)
    ref = encode(code, vec)
    table = build_syndrome_table(code, 1)
    st = apply_channel(ref, 5, random_channel(4, rng))
    rep = correct(st, table, "hierarchical", rng, ref)
    assert rep.fidelity >= 1 - 1e-8
    assert rep.disentangled
    assert rep.corrected
    assert rep.syndrome.alpha.support() <= {5}
    assert rep.syndrome.beta.support() <= {5}


def test_a_state_of_another_block_size_than_the_tables_code_is_refused():
    # the table is a decode's only handle on its code
    table = build_syndrome_table(load_code("shor9"), 1)
    _, ref = encoded("phase3")
    st = decohered(ref, (0,))
    for call in (
            lambda: correct(st, table, "exhaustive", trial_generator(0, 0),
                            ref),
            lambda: measure_exhaustive(st, table, trial_generator(0, 0)),
            lambda: syndrome_distribution(st, table)):
        with pytest.raises(ValueError, match="state has 3 qubits but the "
                                             "table's code has 9"):
            call()


def test_deterministic_given_the_same_deviates():
    code, ref = encoded("phase3")
    table = build_syndrome_table(code, 1, "phase-only")
    st = decohered(ref, (0, 2), overlap=0.4)
    reps = [
        correct(st, table, "hierarchical", trial_generator(11, 5), ref)
        for _ in range(2)
    ]
    assert reps[0].syndrome == reps[1].syndrome
    assert reps[0].outcome_trace == reps[1].outcome_trace
    assert reps[0].fidelity == reps[1].fidelity
    assert np.array_equal(reps[0].recovered_state.amps, reps[1].recovered_state.amps)


@pytest.mark.parametrize("p, u, answer, trace", [
    # outcome 1 drawn for a union of negligible mass: forced to 0
    ([1e-20, 1.0, 0.0, 0.0], 0.0, 1, [0, 1]),
    # outcome 0 drawn while the rest holds negligible mass: forced to 1
    ([1.0 - 1e-13, 1e-13, 0.0, 0.0], 1.0 - 2.0 ** -53, 0, [1]),
])
def test_sample_walk_counts_the_outcomes_the_zero_threshold_forced(
        p, u, answer, trace):
    table = build_syndrome_table(load_code("phase3"), 1, "phase-only")
    i, got, forced = sample_walk(table, p, 0.0, Stream([u] * 4), False)
    assert i == answer
    assert [outcome for _, outcome in got] == trace
    assert forced == 1
    # deviates away from the threshold force nothing
    assert sample_walk(table, [0.5, 0.5, 0.0, 0.0], 0.0, Stream([0.7, 0.2]),
                       False)[2] == 0
