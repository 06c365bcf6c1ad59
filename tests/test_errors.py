import itertools
import math

import numpy as np
import pytest

from qeclab import (
    BitString,
    ErrorPattern,
    FactorLayout,
    PureState,
    apply_amplitude,
    apply_pattern,
    apply_phase,
    condition_patterns,
    inner,
)


def dense_operator(n, fn):
    """Materialize a (2**n x 2**n) matrix by applying `fn` to each basis state."""
    dim = 1 << n
    cols = []
    for i in range(dim):
        ket = PureState.basis_state(BitString.from_index(i, n))
        cols.append(fn(ket).amps.ravel())
    return np.stack(cols, axis=1)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState.from_amplitudes(n, v / np.linalg.norm(v))


def test_amplitude_error_on_basis_state():
    alpha = BitString.from_text("(001010)")
    out = apply_amplitude(alpha, PureState.basis_state("(110111)"))
    expected = PureState.basis_state("(111101)")
    assert np.array_equal(out.amps, expected.amps)


def test_phase_error_on_basis_state():
    beta = BitString.from_text("(001010)")
    ket = PureState.basis_state("(110111)")
    out = apply_phase(beta, ket)
    assert np.array_equal(out.amps, -ket.amps)
    # an even overlap leaves the sign alone
    ket2 = PureState.basis_state("(001011)")
    out2 = apply_phase(beta, ket2)
    assert np.array_equal(out2.amps, ket2.amps)


def test_amplitude_is_permutation_phase_is_diagonal():
    n = 4
    rng = np.random.default_rng(11)
    alpha = BitString.from_index(int(rng.integers(1 << n)), n)
    beta = BitString.from_index(int(rng.integers(1 << n)), n)
    A = dense_operator(n, lambda s: apply_amplitude(alpha, s))
    P = dense_operator(n, lambda s: apply_phase(beta, s))
    assert np.array_equal(np.abs(A), A.real)  # entries are 0/1
    assert np.array_equal(A.sum(axis=0), np.ones(1 << n))
    assert np.array_equal(A, A.T)  # mod-2 shift is an involution
    assert np.array_equal(P, np.diag(np.diag(P)))
    assert set(np.diag(P.real)) <= {1.0, -1.0}


def test_pattern_applies_phase_before_amplitude():
    # the composite acts as A_alpha P_beta, so the sign is read off the
    # original bits, then the bits are flipped
    n = 3
    alpha = BitString.from_text("(110)")
    beta = BitString.from_text("(011)")
    pat = ErrorPattern(alpha, beta)
    for i in range(8):
        v = BitString.from_index(i, n)
        out = apply_pattern(pat, PureState.basis_state(v))
        sign = (-1) ** beta.dot(v)
        expected = sign * PureState.basis_state(v + alpha).amps
        assert np.array_equal(out.amps, expected)


def test_amplitude_and_phase_anticommute_per_overlap():
    # P_beta A_alpha = (-1)^{alpha . beta} A_alpha P_beta
    n = 3
    for ai, bi in itertools.product(range(8), repeat=2):
        alpha = BitString.from_index(ai, n)
        beta = BitString.from_index(bi, n)
        AP = dense_operator(n, lambda s: apply_amplitude(alpha, apply_phase(beta, s)))
        PA = dense_operator(n, lambda s: apply_phase(beta, apply_amplitude(alpha, s)))
        sign = (-1) ** alpha.dot(beta)
        assert np.array_equal(PA, sign * AP)


def test_pattern_squares_to_signed_identity():
    # (A_alpha P_beta)^2 = (-1)^{alpha . beta} I
    n = 3
    for ai, bi in itertools.product(range(8), repeat=2):
        pat = ErrorPattern(BitString.from_index(ai, n), BitString.from_index(bi, n))
        st = random_state(n, seed=100 + 8 * ai + bi)
        twice = apply_pattern(pat, apply_pattern(pat, st))
        sign = (-1) ** pat.alpha.dot(pat.beta)
        assert np.allclose(twice.amps, sign * st.amps, atol=1e-14)


def test_pattern_preserves_norm_and_inner_products():
    n = 4
    pat = ErrorPattern(BitString.from_text("(1010)"), BitString.from_text("(0110)"))
    a, b = random_state(n, 1), random_state(n, 2)
    ea, eb = apply_pattern(pat, a), apply_pattern(pat, b)
    assert ea.norm() == pytest.approx(1.0)
    assert inner(ea, eb) == pytest.approx(inner(a, b))


def test_pattern_ignores_environment_factors():
    # errors act on the qubit block only; environment axes ride along
    lay = FactorLayout(1, [(0, 2)])
    amps = np.array([[0.6, 0.0], [0.0, 0.8]], dtype=complex)
    st = PureState(lay, amps)
    pat = ErrorPattern.from_text("A(1)P(1)")
    out = apply_pattern(pat, st)
    expected = np.array([[0.0, -0.8], [0.6, 0.0]])
    assert np.allclose(out.amps, expected)


def test_pattern_text_round_trip():
    pat = ErrorPattern.from_text("A(100)P(010)")
    assert pat.alpha == BitString.from_text("(100)")
    assert pat.beta == BitString.from_text("(010)")
    assert pat.text() == "A(100)P(010)"
    assert ErrorPattern.from_text(pat.text()) == pat
    with pytest.raises(ValueError):
        ErrorPattern.from_text("X(100)")


def test_pattern_union_weight():
    assert ErrorPattern.from_text("A(110)P(011)").union_weight() == 3
    assert ErrorPattern.from_text("A(100)P(100)").union_weight() == 1
    assert ErrorPattern.zero(3).union_weight() == 0
    assert ErrorPattern.zero(3).is_zero()


def test_enumerate_bitstrings_by_weight():
    got = condition_patterns(3, 1, "amplitude")
    assert [repr(p.alpha) for p in got] == ["(000)", "(100)", "(010)",
                                            "(001)"]
    assert all(p.beta.is_zero() for p in got)
    assert len(condition_patterns(5, 2, "amplitude")) == 1 + 5 + 10
    assert len(condition_patterns(4, 4, "amplitude")) == 16


def test_enumerate_patterns_count():
    # sum over i <= t of 3^i C(n, i) distinct patterns
    for n, t in [(3, 1), (4, 2), (5, 2), (9, 1)]:
        expected = sum(3 ** i * math.comb(n, i) for i in range(t + 1))
        pats = condition_patterns(n, t, "general")
        assert len(pats) == expected
        assert len(set(pats)) == expected
        assert all(p.union_weight() <= t for p in pats)


def test_enumerate_patterns_canonical_order():
    got = [p.text() for p in condition_patterns(3, 1, "general")]
    assert got == [
        "A(000)P(000)",
        "A(100)P(000)",
        "A(010)P(000)",
        "A(001)P(000)",
        "A(000)P(100)",
        "A(100)P(100)",
        "A(000)P(010)",
        "A(010)P(010)",
        "A(000)P(001)",
        "A(001)P(001)",
    ]
    keys = [p.sort_key() for p in condition_patterns(4, 2, "general")]
    assert keys == sorted(keys)


def test_pattern_length_mismatch_rejected():
    with pytest.raises(ValueError):
        ErrorPattern(BitString.zeros(3), BitString.zeros(4))
    st = PureState.basis_state("(00)")
    with pytest.raises(ValueError):
        apply_amplitude(BitString.zeros(3), st)
    with pytest.raises(ValueError):
        apply_phase(BitString.zeros(3), st)
