import numpy as np
import pytest

from qeclab import codes
from qeclab import (
    BUILTIN_CODES,
    CATALOGUE_EXPECTATIONS,
    BitString,
    ErrorPattern,
    PureState,
    QuantumCode,
    apply_pattern,
    catalogue,
    check_general_condition,
    check_phase_condition,
    code_from_dict,
    code_to_dict,
    encode,
    extract_component,
    inner,
    load_code,
    run_checker,
    save_code,
    synthesize_encoder,
)


def test_builtin_codes_load_with_expected_parameters():
    expected = {
        "phase3": (3, 1, 1),
        "shor9": (9, 1, 1),
        "perfect5": (5, 1, 1),
        "trivial1": (1, 1, 0),
    }
    assert set(BUILTIN_CODES) == set(expected)
    for name, (n, l, t) in expected.items():
        code = load_code(name)
        assert (code.n, code.l, code.claimed_t) == (n, l, t)
        assert len(code.vectors) == 1 << l
        mat = code.matrix()
        assert mat.shape == (1 << l, 1 << n)
        gram = mat.conj() @ mat.T
        assert np.allclose(gram, np.eye(1 << l), atol=1e-12)


def test_catalogue_returns_all_builtins():
    names = [c.name for c in catalogue()]
    assert names == list(BUILTIN_CODES)


@pytest.mark.parametrize("name", sorted(CATALOGUE_EXPECTATIONS))
def test_condition_checker_verdicts(name):
    code = load_code(name)
    for condition, t, expected in CATALOGUE_EXPECTATIONS[name]:
        report = run_checker(code, condition, t)
        assert report.passed is expected, (name, condition, t)
        assert report.condition == condition
        assert report.t == t
        if expected:
            assert report.worst <= 1e-9
            assert report.violation_count == 0
        else:
            assert report.worst > 1e-9
            assert report.violation_count > 0


@pytest.mark.parametrize("condition, t, refused", [
    ("general", 3, False),   # 5240 image rows, 27.5e6 Gram entries
    ("general", 4, True),    # 25652 image rows, 658e6 Gram entries
    ("phase", 9, False),     # 1024 image rows, twice 2^n
])
def test_gram_check_refuses_before_enumerating_what_it_cannot_hold(
        monkeypatch, condition, t, refused):
    def no_images(code, patterns):
        raise LookupError("enumerated %d patterns" % len(patterns))

    monkeypatch.setattr(codes, "pattern_images", no_images)
    if refused:
        monkeypatch.setattr(codes, "condition_patterns", None)
    with pytest.raises(ValueError if refused else LookupError):
        run_checker(load_code("shor9"), condition, t)


def test_gram_check_runs_a_16_qubit_code():
    zeros, ones = "(" + "0" * 16 + ")", "(" + "1" * 16 + ")"
    code = QuantumCode("rep16", 16, 1, 1, [PureState.basis_state(zeros),
                                           PureState.basis_state(ones)])
    assert run_checker(code, "amplitude", 1).passed
    assert not run_checker(code, "phase", 1).passed


def test_run_checker_rejects_unknown_condition():
    with pytest.raises(ValueError):
        run_checker(load_code("phase3"), "parity", 1)


def test_three_qubit_code_general_failure_pinpoints_bit_flip_confusion():
    # the code distinguishes phases but a single bit flip maps one code
    # vector onto the other: <C^1| A(100) |C^0> = 1
    report = check_general_condition(load_code("phase3"), 1)
    assert not report.passed
    found = [
        (k, m, p, p2, val)
        for (k, m, p, p2, val) in report.violations
        if p.is_zero() and p2.text() == "A(100)P(000)"
    ]
    assert found, "expected the identity/bit-flip cross term to be flagged"
    k, m, p, p2, val = found[0]
    assert {k, m} == {0, 1}
    assert val == pytest.approx(1.0, abs=1e-12)


def test_report_to_dict_shape():
    d = check_phase_condition(load_code("phase3"), 3).to_dict()
    assert d["condition"] == "phase"
    assert d["t"] == 3
    assert d["passed"] is False
    assert d["violation_count"] == len(d["violations"]) or d["violation_count"] > len(d["violations"])
    row = d["violations"][0]
    assert set(row) == {"k", "l", "pattern", "pattern2", "re", "im"}


def test_encoder_is_unitary_with_designated_columns():
    for name in BUILTIN_CODES:
        code = load_code(name)
        U = synthesize_encoder(code)
        dim = 1 << code.n
        assert U.shape == (dim, dim)
        assert np.allclose(U.conj().T @ U, np.eye(dim), atol=1e-9)
        # column k << (n - l) carries |C^k>: the logical basis state padded
        # with trailing zero qubits maps to the k-th code vector
        for k in range(1 << code.l):
            col = U[:, k << (code.n - code.l)]
            assert np.allclose(col, code.vectors[k].amps.ravel(), atol=1e-12)


def test_encode_matches_encoder_action():
    code = load_code("phase3")
    U = synthesize_encoder(code)
    logical = np.array([0.6, 0.8j])
    st = encode(code, logical)
    padded = np.zeros(8, dtype=complex)
    padded[[0, 4]] = logical
    assert np.allclose(st.amps, U @ padded, atol=1e-12)


def test_encode_is_isometric():
    code = load_code("shor9")
    rng = np.random.default_rng(5)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = rng.normal(size=2) + 1j * rng.normal(size=2)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    ea, eb = encode(code, a), encode(code, b)
    assert ea.norm() == pytest.approx(1.0)
    assert inner(ea, eb) == pytest.approx(np.vdot(a, b))


def test_encode_validates_logical_shape():
    code = load_code("phase3")
    with pytest.raises(ValueError):
        encode(code, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        encode(code, PureState.basis_state("(00)"))


def test_extract_component_filters_basis_prefix():
    code = load_code("phase3")
    c0 = code.vectors[0]  # (|000>+|011>+|101>+|110>)/2
    part0 = extract_component(c0, [0], "(0)")
    part1 = extract_component(c0, [0], "(1)")
    expected0 = np.zeros(8, dtype=complex)
    expected0[[0b000, 0b011]] = 0.5
    expected1 = np.zeros(8, dtype=complex)
    expected1[[0b101, 0b110]] = 0.5
    assert np.allclose(part0.amps, expected0)
    assert np.allclose(part1.amps, expected1)


def test_extract_component_sums_back_to_input():
    code = load_code("perfect5")
    vec = code.vectors[1]
    pieces = [
        extract_component(vec, [1, 3], BitString.from_index(g, 2))
        for g in range(4)
    ]
    total = sum(p.amps for p in pieces)
    assert np.allclose(total, vec.amps, atol=1e-12)


def test_extract_component_matches_direct_bit_filter():
    code = load_code("shor9")
    vec = code.vectors[0]
    affected = [2, 5]
    gamma = BitString.from_text("(10)")
    got = extract_component(vec, affected, gamma)
    mask = np.ones(1 << 9, dtype=bool)
    for q, g in zip(affected, gamma):
        bit = (np.arange(1 << 9) >> (9 - 1 - q)) & 1
        mask &= bit == g
    expected = np.where(mask, vec.amps.ravel(), 0.0)
    assert np.allclose(got.amps.ravel(), expected, atol=1e-12)


def test_extract_component_validates_inputs():
    code = load_code("phase3")
    vec = code.vectors[0]
    with pytest.raises(ValueError):
        extract_component(vec, [0, 0], "(00)")
    with pytest.raises(ValueError):
        extract_component(vec, [3], "(0)")
    with pytest.raises(ValueError):
        extract_component(vec, [0, 1], "(0)")


def test_pattern_images_stay_inside_block():
    # applying any weight-1 pattern to a shor9 code vector gives another
    # unit vector orthogonal to both code vectors
    code = load_code("shor9")
    c0, c1 = code.vectors
    pat = ErrorPattern.from_text("A(000010000)P(000010000)")
    img = apply_pattern(pat, c0)
    assert img.norm() == pytest.approx(1.0)
    assert abs(inner(img, c0)) < 1e-12
    assert abs(inner(img, c1)) < 1e-12


def test_code_round_trip(tmp_path):
    code = load_code("perfect5")
    back = code_from_dict(code_to_dict(code))
    assert back.name == code.name
    assert (back.n, back.l, back.claimed_t) == (code.n, code.l, code.claimed_t)
    assert np.allclose(back.matrix(), code.matrix())

    path = tmp_path / "code.json"
    save_code(code, path)
    loaded = load_code(path)
    assert loaded.name == code.name
    assert np.allclose(loaded.matrix(), code.matrix())


def test_code_from_dict_rejects_non_orthonormal_vectors():
    payload = code_to_dict(load_code("phase3"))
    payload["vectors"][1] = payload["vectors"][0]
    with pytest.raises(ValueError):
        code_from_dict(payload)
