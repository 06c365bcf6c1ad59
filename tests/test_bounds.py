import math

import numpy as np
import pytest

from qeclab import (
    asymptotic_gv_rate,
    asymptotic_hamming_rate,
    entropy,
    finite_hamming_rate,
    gv_guaranteed_codewords,
    hamming_holds,
    hamming_rate_root,
    min_n_gv,
    min_n_hamming,
    sphere_volume,
)


def test_sphere_volume_known_values():
    assert sphere_volume(5, 1) == 16
    assert sphere_volume(9, 1) == 28
    assert sphere_volume(9, 2) == 352
    assert sphere_volume(5, 2) == 106
    assert sphere_volume(3, 1) == 10
    assert sphere_volume(4, 2) == 67
    assert sphere_volume(6, 3) == 694


def test_sphere_volume_edges():
    for n in [1, 4, 16, 40]:
        assert sphere_volume(n, 0) == 1
        assert sphere_volume(n, n) == 4 ** n  # all patterns on n qubits
    with pytest.raises(ValueError):
        sphere_volume(3, 4)
    with pytest.raises(ValueError):
        sphere_volume(-1, 0)


def test_sphere_volume_is_exact_big_integer():
    # 3^i C(n, i) terms overflow floats long before n = 300
    v = sphere_volume(300, 150)
    assert isinstance(v, int)
    assert v == sum(3 ** i * math.comb(300, i) for i in range(151))


def test_hamming_holds_known_cases():
    assert hamming_holds(5, 1, 1)       # 2 * 16 = 32 = 2^5, equality
    assert not hamming_holds(4, 1, 1)   # 2 * 13 > 16
    assert hamming_holds(9, 1, 1)       # 2 * 28 <= 512
    assert not hamming_holds(9, 1, 2)   # 2 * 352 > 512
    assert hamming_holds(3, 3, 0)       # trivial packing, equality


def test_min_n_hamming_known_values():
    assert min_n_hamming(1, 1) == 5
    assert min_n_hamming(2, 1) == 7
    assert min_n_hamming(1, 2) == 10
    assert min_n_hamming(3, 0) == 3
    assert min_n_hamming(0, 0) == 0


def test_min_n_hamming_is_tight():
    for l in range(4):
        for t in range(4):
            n = min_n_hamming(l, t)
            assert hamming_holds(n, l, t)
            if n > max(l, t):
                assert not hamming_holds(n - 1, l, t)


def test_gv_guaranteed_codewords_known_values():
    assert gv_guaranteed_codewords(9, 1) == 2  # ceil(512 / 352)
    assert gv_guaranteed_codewords(5, 1) == 1  # ceil(32 / 106)
    assert gv_guaranteed_codewords(10, 1) == 3  # ceil(1024 / 421)
    for n in [1, 3, 8]:
        assert gv_guaranteed_codewords(n, 0) == 2 ** n


def test_gv_guaranteed_codewords_degenerate_radius():
    # when 2t exceeds n a single sphere swallows the space
    assert gv_guaranteed_codewords(3, 2) == 1
    assert gv_guaranteed_codewords(1, 1) == 1


def test_min_n_gv_known_values():
    assert min_n_gv(1, 1) == 9
    assert min_n_gv(2, 0) == 2
    assert min_n_gv(0, 0) == 0


def test_gv_needs_at_least_as_many_qubits_as_hamming():
    # for at least one logical qubit the covering guarantee is the stricter
    # requirement (l = 0 is degenerate: one codeword is always guaranteed)
    for l in range(1, 4):
        for t in range(4):
            n = min_n_gv(l, t)
            assert n >= min_n_hamming(l, t)
            assert gv_guaranteed_codewords(n, t) >= 2 ** l
            if n > max(l, t):
                assert gv_guaranteed_codewords(n - 1, t) < 2 ** l


def test_entropy_values():
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    assert entropy(0.5) == pytest.approx(1.0)
    assert entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)
    assert entropy(0.25) == pytest.approx(entropy(0.75))
    with pytest.raises(ValueError):
        entropy(-0.01)
    with pytest.raises(ValueError):
        entropy(1.01)


def test_asymptotic_rates_at_zero_noise():
    assert asymptotic_hamming_rate(0.0) == pytest.approx(1.0)
    assert asymptotic_gv_rate(0.0) == pytest.approx(1.0)


def test_asymptotic_rate_formulas():
    log2_3 = math.log2(3)
    for tau in [0.01, 0.05, 0.1, 0.18]:
        assert asymptotic_hamming_rate(tau) == pytest.approx(
            1 - tau * log2_3 - entropy(tau))
        assert asymptotic_gv_rate(tau) == pytest.approx(
            1 - 2 * tau * log2_3 - entropy(2 * tau))
    with pytest.raises(ValueError):
        asymptotic_gv_rate(0.51)  # 2*tau leaves the entropy domain


def test_hamming_rate_positive_below_root_negative_above():
    root = hamming_rate_root()
    assert root == pytest.approx(0.18928962491523177, abs=1e-9)
    assert asymptotic_hamming_rate(root - 1e-6) > 0
    assert asymptotic_hamming_rate(root + 1e-6) < 0


def test_finite_rate_tracks_the_asymptotic_rate():
    # frozen gaps at n = 1000 (regression guard; the 0.02 envelope is the
    # acceptance-level requirement)
    gaps = {0.01: 0.002987, 0.05: 0.004088, 0.1: 0.004519}
    for tau, gap in gaps.items():
        t = int(tau * 1000)
        finite = finite_hamming_rate(1000, t)
        asym = asymptotic_hamming_rate(tau)
        assert abs(finite - asym) == pytest.approx(gap, abs=5e-7)
        assert abs(finite - asym) < 0.02


def test_finite_rate_validates_input():
    with pytest.raises(ValueError):
        finite_hamming_rate(0, 0)
    with pytest.raises(ValueError):
        finite_hamming_rate(10, 11)
