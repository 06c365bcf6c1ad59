"""Property tests of the checks that break the quantum Hamming bound.

A check with more image rows R = 2^l V_t than amplitudes 2^n cannot pass,
and codes._gram_check reports it from the overlaps <C^j|E|C^k> over the
2t-ball instead of the R x R Gram matrix of its images. gram_oracle below
keeps the Gram computation as the reference: the report must hold the same
violation count and the same capped (k, m, P, Q) rows, with the worst
deviation and every value within 1e-12. product_pairs, which weighs each
product pattern in the count, is checked against counting pattern pairs.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qeclab import BUILTIN_CODES, PureState, QuantumCode, load_code
from qeclab.bounds import sphere_volume
from qeclab.codes import (CHECK_TOL, _VIOLATION_CAP, ConditionReport,
                          _gram_check, condition_patterns, pattern_images,
                          product_pairs, run_checker)

# derandomized, so that every run of the suite checks the same examples
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

CONDITIONS = ("amplitude", "phase", "general")


def image_rows(n, l, t, condition):
    volume = (sphere_volume(n, t) if condition == "general" else
              sum(math.comb(n, i) for i in range(t + 1)))
    return volume << l


def gram_oracle(code, condition, t):
    """(rows, count, worst) of the full Gram matrix G of the pattern images,
    taken a block of rows at a time: rows holds (k, m, P, Q, G entry) for
    the first _VIOLATION_CAP entries of |G - I| above CHECK_TOL in row-major
    order, count all of them, worst the largest entry of |G - I|."""
    patterns = condition_patterns(code.n, t, condition)
    K = 1 << code.l
    B = pattern_images(code, [p.sort_key() for p in patterns])
    rows, count, worst = [], 0, 0.0
    for lo in range(0, len(B), 256):
        G = B[lo:lo + 256].conj() @ B.T
        target = np.eye(len(B))[lo:lo + 256]
        dev = np.abs(G - target)
        worst = max(worst, float(dev.max()))
        bad = np.argwhere(dev > CHECK_TOL)
        count += len(bad)
        for i, j in bad[:_VIOLATION_CAP - len(rows)]:
            rows.append((int((lo + i) % K), int(j % K),
                         patterns[(lo + i) // K], patterns[j // K],
                         complex(G[i, j])))
    return rows, count, worst


def random_code(n, l, rng, size, complex_amplitudes):
    """A random orthonormal code supported on `size` random basis states."""
    dim = 1 << n
    block = rng.standard_normal((size, 1 << l))
    if complex_amplitudes:
        block = block + 1j * rng.standard_normal((size, 1 << l))
    q, _ = np.linalg.qr(block)
    vectors = np.zeros((dim, 1 << l), dtype=np.complex128)
    vectors[rng.permutation(dim)[:size]] = q
    return QuantumCode("random", n, l, 0,
                       [PureState.from_amplitudes(n, v) for v in vectors.T])


@st.composite
def random_checks(draw):
    """A random orthonormal code, complex or real, supported on a random set
    of basis states (so that many overlaps are exactly zero), n <= 5 and
    l <= 2, with a condition and a t whose check breaks the Hamming bound."""
    n = draw(st.integers(1, 5))
    l = draw(st.integers(0, min(n, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    code = random_code(n, l, rng, draw(st.integers(1 << l, 1 << n)),
                       draw(st.booleans()))
    condition, t = draw(st.sampled_from(
        [(c, t) for c in CONDITIONS for t in range(n + 1)
         if image_rows(n, l, t, c) > 1 << n]))
    return code, condition, t


def assert_matches_oracle(code, condition, t):
    report, keys, images = _gram_check(code, condition, t)
    assert keys is None and images is None
    rows, count, worst = gram_oracle(code, condition, t)
    assert not report.passed
    assert report.violation_count == count
    assert abs(report.worst - worst) <= 1e-12
    assert [v[:4] for v in report.violations] == [r[:4] for r in rows]
    for got, want in zip(report.violations, rows):
        assert abs(got[4] - want[4]) <= 1e-12


@SETTINGS
@given(random_checks())
def test_a_check_past_the_hamming_bound_reports_what_its_gram_matrix_does(
        case):
    assert_matches_oracle(*case)


#: every check past the Hamming bound with n <= 5, l <= 2 whose products
#: leave some qubit untouched (2t < n), so that the ball is a proper part of
#: the overlaps a transform computes
SHORT_PRODUCTS = [(n, l, c, t)
                  for n in range(1, 6) for l in range(min(n, 2) + 1)
                  for c in CONDITIONS for t in range(n + 1)
                  if 2 * t < n and image_rows(n, l, t, c) > 1 << n]


@pytest.mark.parametrize("complex_amplitudes", [False, True])
@pytest.mark.parametrize("n, l, condition, t", SHORT_PRODUCTS)
def test_a_check_whose_products_miss_a_qubit_matches_the_oracle(
        n, l, condition, t, complex_amplitudes):
    rng = np.random.default_rng([n, l, t, complex_amplitudes])
    assert_matches_oracle(random_code(n, l, rng, 1 << n, complex_amplitudes),
                          condition, t)


def test_catalogue_checks_past_the_hamming_bound_match_the_oracle():
    for name in BUILTIN_CODES:
        code = load_code(name)
        for condition in CONDITIONS:
            for t in range(min(code.n, 2) + 1):
                if image_rows(code.n, code.l, t, condition) > 1 << code.n:
                    assert_matches_oracle(code, condition, t)


def test_a_report_from_the_ball_holds_the_zeros_its_gram_matrix_does():
    # phase3 times i: the ball's sign flips turn zero imaginary parts into
    # -0.0, where the Gram product of the images gives +0.0, and a report's
    # JSON text shows the sign
    phase3 = load_code("phase3")
    code = QuantumCode("phase3i", 3, 1, 1, [
        PureState.from_amplitudes(3, 1j * v.amps) for v in phase3.vectors])
    assert image_rows(3, 1, 1, "general") > 1 << 3
    report = run_checker(code, "general", 1)
    oracle = ConditionReport("general", 1, *gram_oracle(code, "general", 1))
    assert report.violations
    assert json.dumps(report.to_dict()) == json.dumps(oracle.to_dict())


def test_product_pairs_count_the_pattern_pairs_of_each_product():
    choices = {"general": 3, "phase": 1, "amplitude": 1}
    for n in range(1, 7):
        for condition in CONDITIONS:
            for t in range(n + 1):
                keys = np.array([p.sort_key() for p in
                                 condition_patterns(n, t, condition)])
                counts = np.zeros(1 << (2 * n), dtype=np.int64)
                for lo in range(0, len(keys), 256):
                    counts += np.bincount(
                        (keys[lo:lo + 256, np.newaxis] ^ keys).ravel(),
                        minlength=len(counts))
                every = np.arange(len(counts))
                weight = np.bitwise_count((every | (every >> n))
                                          & ((1 << n) - 1))
                pairs = product_pairs(n, t, condition)
                # the products are exactly the condition's patterns of
                # weight <= 2t, and their count depends on the weight alone
                family = {p.sort_key() for p in
                          condition_patterns(n, min(2 * t, n), condition)}
                assert set(np.flatnonzero(counts).tolist()) == family
                for key in family:
                    assert counts[key] == pairs[weight[key]]
                assert (sum(pairs[w] * math.comb(n, w) * choices[condition]
                            ** w for w in range(len(pairs)))
                        == len(keys) ** 2)
