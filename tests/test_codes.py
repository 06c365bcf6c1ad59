import re

import numpy as np
import pytest

from qeclab import codes
from qeclab import (
    BUILTIN_CODES,
    CATALOGUE_EXPECTATIONS,
    ErrorPattern,
    PureState,
    apply_pattern,
    catalogue,
    code_from_dict,
    code_to_dict,
    encode,
    inner,
    load_code,
    run_checker,
    save_code,
)
from repetition import repetition_code


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


@pytest.mark.parametrize("condition, t, gram", [
    ("general", 1, True),    # 56 image rows of 2^9 amplitudes
    ("phase", 9, False),     # 1024 image rows, twice 2^9
    ("general", 3, False),   # 5240 image rows
    ("general", 4, False),   # 25652 image rows, a 9.8 GiB Gram matrix
])
def test_only_a_check_within_the_hamming_bound_builds_images(
        monkeypatch, condition, t, gram):
    def no_images(code, patterns):
        raise LookupError("built %d pattern images" % len(patterns))

    monkeypatch.setattr(codes, "pattern_images", no_images)
    if gram:
        with pytest.raises(LookupError):
            run_checker(load_code("shor9"), condition, t)
    else:
        report = run_checker(load_code("shor9"), condition, t)
        assert not report.passed
        assert len(report.violations) == 64


@pytest.mark.parametrize("condition, t, needs", [
    # 32498 image rows of 2^16 amplitudes, within the Hamming bound
    ("general", 3, "32498 pattern images of 2^16 amplitudes"),
    # past it: c of weight <= 8 (39203 of them), every d, 2 x 2 (j, k)
    ("general", 4, "%d overlaps" % (39203 << 18)),
])
def test_a_check_over_the_cap_is_refused_before_it_enumerates(
        monkeypatch, condition, t, needs):
    monkeypatch.setattr(codes, "pattern_keys", None)
    monkeypatch.setattr(codes, "condition_patterns", None)
    with pytest.raises(ValueError, match=re.escape("needs " + needs)):
        run_checker(repetition_code(16), condition, t)


def test_gram_check_runs_a_16_qubit_code():
    code = repetition_code(16)
    assert run_checker(code, "amplitude", 1).passed
    assert not run_checker(code, "phase", 1).passed


def test_run_checker_rejects_unknown_condition():
    with pytest.raises(ValueError):
        run_checker(load_code("phase3"), "parity", 1)


def test_three_qubit_code_general_failure_pinpoints_bit_flip_confusion():
    # the code distinguishes phases but a single bit flip maps one code
    # vector onto the other: <C^1| A(100) |C^0> = 1
    report = run_checker(load_code("phase3"), "general", 1)
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
    d = run_checker(load_code("phase3"), "phase", 3).to_dict()
    assert d["condition"] == "phase"
    assert d["t"] == 3
    assert d["passed"] is False
    assert d["violation_count"] == len(d["violations"]) or d["violation_count"] > len(d["violations"])
    row = d["violations"][0]
    assert set(row) == {"k", "l", "pattern", "pattern2", "re", "im"}


def test_encode_matches_encoder_action():
    code = load_code("phase3")
    logical = np.array([0.6, 0.8j])
    st = encode(code, logical)
    # sum_k c_k |C^k>
    expected = sum(c * v.amps for c, v in zip(logical, code.vectors))
    assert np.allclose(st.amps, expected, atol=1e-12)


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
