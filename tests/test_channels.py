import numpy as np
import pytest

from qeclab import (
    BitString,
    ErrorPattern,
    FactorLayout,
    PureState,
    QubitChannel,
    apply_channel,
    apply_pattern,
    channel_from_dict,
    channel_to_dict,
    encode,
    load_channel,
    load_code,
    make_decoherence,
    random_channel,
    residue_oracle,
    save_channel,
    validate,
)


def random_system_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState.from_amplitudes(n, v / np.linalg.norm(v))


def test_channel_stores_vectors_and_env_dim():
    ch = QubitChannel(a00=[1, 0], a01=[0, 0], a10=[0, 0], a11=[0, 1])
    assert ch.env_dim == 2
    assert np.array_equal(ch.block(), [[1, 0, 0, 0], [0, 0, 0, 1]])
    assert validate(ch) == []


def test_channel_requires_consistent_env_dim():
    with pytest.raises(ValueError):
        QubitChannel(a00=[1, 0], a01=[0, 0], a10=[0], a11=[0, 1])


def test_validate_reports_each_broken_constraint():
    bad_norm = QubitChannel(a00=[0.5, 0], a01=[0, 0], a10=[0, 0], a11=[0, 1])
    names = [name for name, _ in validate(bad_norm)]
    assert names == ["row0_norm"]
    assert validate(bad_norm)

    # the two isometry rows are (a00 || a01) and (a10 || a11)
    overlapping = QubitChannel(a00=[1, 0], a01=[0, 0], a10=[1, 0], a11=[0, 0])
    names = [name for name, _ in validate(overlapping)]
    assert names == ["row_orthogonality"]

    both = QubitChannel(a00=[1, 0], a01=[1, 0], a10=[1, 0], a11=[1, 0])
    names = [name for name, _ in validate(both)]
    assert names == ["row0_norm", "row1_norm", "row_orthogonality"]

    # a NaN magnitude compares false against the tolerance; it still counts
    nan_entry = QubitChannel(a00=[np.nan, 0], a01=[0, 0], a10=[0, 0],
                             a11=[0, 1])
    names = [name for name, _ in validate(nan_entry)]
    assert names == ["row0_norm", "row_orthogonality"]
    with pytest.raises(ValueError):
        apply_channel(random_system_state(1, 0), 0, nan_entry)


def test_make_decoherence_family():
    for overlap in [0.0, 0.25, 0.5 + 0.5j, 1.0]:
        ch = make_decoherence(overlap)
        assert ch.env_dim == 2
        assert not validate(ch)
        assert np.allclose(ch.a01, 0)
        assert np.allclose(ch.a10, 0)
        assert np.vdot(ch.a00, ch.a11) == pytest.approx(overlap)
    with pytest.raises(ValueError):
        make_decoherence(1.0000001)
    for overlap in (float("nan"), complex(0.5, float("nan"))):
        with pytest.raises(ValueError, match="overlap must be finite"):
            make_decoherence(overlap)


def test_identity_channel_leaves_state_alone():
    st = random_system_state(2, 0)
    e0, zero = np.eye(3)[0], np.zeros(3)
    # no entanglement: the environment stays in its reference state
    out = apply_channel(st, 1, QubitChannel(e0, zero, zero, e0))
    assert out.layout.env_factors == ((1, 3),)
    mat = out.matrix()
    assert np.allclose(mat[:, 0], st.amps)
    assert np.allclose(mat[:, 1:], 0)


def test_random_channels_are_valid_isometries():
    rng = np.random.default_rng(99)
    for env_dim in [2, 3, 4]:
        for _ in range(5):
            ch = random_channel(env_dim, rng)
            assert ch.env_dim == env_dim
            assert validate(ch) == []


def test_random_channel_with_trivial_environment_is_a_rotation():
    # d_E = 1 leaves no room for entanglement: the channel acts as a plain
    # unitary on the qubit and the joint state stays a product
    rng = np.random.default_rng(0)
    ch = random_channel(1, rng)
    assert validate(ch) == []
    out = apply_channel(random_system_state(2, 6), 0, ch)
    assert out.norm() == pytest.approx(1.0)
    from qeclab import is_disentangled

    assert is_disentangled(out)


def test_apply_channel_decoherence_marks_bit_value():
    # c0|0> + c1|1> -> c0|0>|a0> + c1|1>|a1>
    c0, c1 = 0.6, 0.8
    st = PureState.from_amplitudes(1, [c0, c1])
    ch = make_decoherence(0.3)
    out = apply_channel(st, 0, ch)
    mat = out.matrix()
    assert np.allclose(mat[0], c0 * ch.a00)
    assert np.allclose(mat[1], c1 * ch.a11)
    assert out.norm() == pytest.approx(1.0)


def test_apply_channel_general_dissipation_mixes_bit_values():
    ch = QubitChannel(a00=[1, 0], a01=[0, 0], a10=[0, 0], a11=[0, 1])
    # swap-style channel on |1>: contributes through a11 only
    st = PureState.basis_state("(1)")
    out = apply_channel(st, 0, ch)
    mat = out.matrix()
    assert np.allclose(mat[0], [0, 0])
    assert np.allclose(mat[1], [0, 1])

    rng = np.random.default_rng(1)
    general = random_channel(3, rng)
    out = apply_channel(random_system_state(3, 2), 1, general)
    assert out.norm() == pytest.approx(1.0)
    assert out.layout.env_factors == ((1, 3),)


def test_apply_channel_preserves_norm_on_random_inputs():
    rng = np.random.default_rng(21)
    for n in [1, 2, 4]:
        st = random_system_state(n, int(rng.integers(1 << 30)))
        for qubit in range(n):
            st = apply_channel(st, qubit, random_channel(2, rng))
        assert st.norm() == pytest.approx(1.0)


def test_apply_channel_rejects_second_pass_on_same_qubit():
    st = apply_channel(random_system_state(2, 3), 0, make_decoherence(0.0))
    with pytest.raises(ValueError):
        apply_channel(st, 0, make_decoherence(0.0))


def test_apply_channel_rejects_bad_qubit_and_invalid_channel():
    st = random_system_state(2, 4)
    with pytest.raises(ValueError):
        apply_channel(st, 2, make_decoherence(0.0))
    broken = QubitChannel(a00=[0.5, 0], a01=[0, 0], a10=[0, 0], a11=[0, 1])
    with pytest.raises(ValueError):
        apply_channel(st, 0, broken)


def test_residue_of_decoherence_is_sum_and_difference():
    # a single decohered qubit splits into (a0 +/- a1)/2 residues attached
    # to the identity and to the phase flip on that qubit
    ch = make_decoherence(0.3)
    r_plus = residue_oracle([(0, ch)], BitString.zeros(3), BitString.zeros(3))
    r_minus = residue_oracle([(0, ch)], BitString.zeros(3), BitString.from_text("(100)"))
    assert r_plus.layout.qubit_count == 0
    assert np.allclose(r_plus.amps.ravel(), (ch.a00 + ch.a11) / 2)
    assert np.allclose(r_minus.amps.ravel(), (ch.a00 - ch.a11) / 2)
    # amplitude-flip residues vanish for pure decoherence
    r_flip = residue_oracle([(0, ch)], BitString.from_text("(100)"), BitString.zeros(3))
    assert np.allclose(r_flip.amps, 0)


def test_residue_supports_must_lie_inside_affected_set():
    ch = make_decoherence(0.0)
    with pytest.raises(ValueError):
        residue_oracle([(0, ch)], BitString.from_text("(010)"), BitString.zeros(3))
    with pytest.raises(ValueError):
        residue_oracle([(0, ch), (0, ch)], BitString.zeros(3), BitString.zeros(3))


def test_dissipated_state_decomposes_over_patterns():
    # after sending qubits 0 and 2 of a random 3-qubit state through
    # independent channels, the joint state equals the sum over all 16
    # patterns supported on {0, 2} of (pattern applied to the input) tensor
    # (that pattern's residue)
    rng = np.random.default_rng(8)
    st = random_system_state(3, 12)
    chans = [(0, random_channel(2, rng)), (2, random_channel(3, rng))]
    joint = st
    for qubit, ch in chans:
        joint = apply_channel(joint, qubit, ch)

    acc = np.zeros(joint.amps.shape, dtype=complex)
    for a_mask in range(4):
        for b_mask in range(4):
            alpha = BitString(((a_mask >> 1) & 1, 0, a_mask & 1))
            beta = BitString(((b_mask >> 1) & 1, 0, b_mask & 1))
            errored = apply_pattern(ErrorPattern(alpha, beta), st)
            residue = residue_oracle(chans, alpha, beta)
            acc += np.multiply.outer(errored.amps, residue.amps.ravel()).reshape(
                joint.amps.shape)
    assert np.max(np.abs(acc - joint.amps)) < 1e-12


def test_residues_do_not_depend_on_the_transmitted_state():
    # residues are built from the channels alone: the same four residues
    # reconstruct the joint state for every choice of logical coefficients
    code = load_code("phase3")
    rng = np.random.default_rng(17)
    ch = random_channel(2, rng)
    patterns = [
        ErrorPattern(BitString((0, a, 0)), BitString((0, b, 0)))
        for a in (0, 1)
        for b in (0, 1)
    ]
    residues = [residue_oracle([(1, ch)], p.alpha, p.beta) for p in patterns]
    for seed in [1, 2, 3]:
        ref = encode(code, random_system_state(1, seed))
        joint = apply_channel(ref, 1, ch)
        acc = np.zeros(joint.amps.shape, dtype=complex)
        for pat, res in zip(patterns, residues):
            errored = apply_pattern(pat, ref)
            acc += np.multiply.outer(errored.amps, res.amps.ravel()).reshape(
                joint.amps.shape)
        assert np.max(np.abs(acc - joint.amps)) < 1e-12


def test_channel_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    ch = random_channel(3, rng)
    back = channel_from_dict(channel_to_dict(ch))
    assert np.allclose(back.block(), ch.block())

    path = tmp_path / "channel.json"
    save_channel(ch, path)
    loaded = load_channel(path)
    assert np.allclose(loaded.block(), ch.block())


def test_channel_from_dict_rejects_malformed_data():
    data = channel_to_dict(make_decoherence(0.0))
    short = dict(data, a00=[[1.0, 0.0]])  # wrong vector length
    with pytest.raises(ValueError):
        channel_from_dict(short)
    with pytest.raises(ValueError):
        channel_from_dict({"env_dim": 2})
    # parsing keeps broken isometries loadable; validate() reports them
    data["a00"] = [[0.5, 0.0], [0.0, 0.0]]
    loaded = channel_from_dict(data)
    assert validate(loaded)
