"""Property tests of the pattern images A_a P_b |C^k>.

pattern_images builds every image of a list of canonical pattern keys at
once; apply_pattern, which applies one pattern to one state, is its
reference. The images also
carry the decomposition of a dissipated block: sending qubits S of an
encoded state through channels gives exactly the sum, over the patterns
supported inside S, of each pattern's image tensored with the channels'
residue for it (criterion 6). Applying a pattern and then recovering from
it gives the state back.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qeclab import (BUILTIN_CODES, BitString, ConditionError, ErrorPattern,
                    FactorLayout, PureState, QuantumCode, apply_channel,
                    apply_pattern, build_syndrome_table, encode, load_code,
                    random_channel, recover, residue_oracle)
from qeclab.codes import _CHOICES, condition_patterns, pattern_images
from qeclab.errors import pattern_keys, pattern_texts

# derandomized, so that every run of the suite checks the same examples
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def keys_of(patterns):
    return [p.sort_key() for p in patterns]


def reference_images(code, patterns):
    """The images one apply_pattern call at a time, pattern-major then k."""
    return np.array([apply_pattern(p, v).amps.ravel()
                     for p in patterns for v in code.vectors],
                    dtype=np.complex128).reshape(-1, 1 << code.n)


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


#: condition -> the pattern filter of a syndrome table over its patterns
FILTER_OF = {"general": "all", "phase": "phase-only",
             "amplitude": "amplitude-only"}

CATALOGUE_CASES = [(name, condition, t)
                   for name in BUILTIN_CODES
                   for condition in ("amplitude", "phase", "general")
                   for t in range(min(load_code(name).n, 2) + 1)]


@pytest.mark.parametrize("name,condition,t", CATALOGUE_CASES)
def test_catalogue_images_equal_the_reference_bit_for_bit(name, condition, t):
    code = load_code(name)
    patterns = condition_patterns(code.n, t, condition)
    images = pattern_images(code, keys_of(patterns))
    assert same_bytes(images, reference_images(code, patterns))
    # a table over the same patterns holds these images as its rows
    try:
        table = build_syndrome_table(code, t, FILTER_OF[condition])
    except ConditionError:
        return
    assert same_bytes(table.rows, images)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.data())
def test_pattern_texts_spell_each_keys_two_bitstrings(data):
    # for every n from 0 to 9, condition and t: up to 40 of the keys the
    # condition ranges over at t, the first and last among them; bit i of a
    # key is alpha's position i, bit n + i beta's
    for n in range(10):
        for condition, choices in sorted(_CHOICES.items()):
            for t in range(n + 1):
                keys = pattern_keys(n, t, choices)
                picks = data.draw(st.lists(
                    st.integers(0, len(keys) - 1), max_size=38))
                keys = keys[sorted({0, len(keys) - 1, *picks})]
                want = ["A%rP%r" % (
                    BitString((key >> i) & 1 for i in range(n)),
                    BitString((key >> (n + i)) & 1 for i in range(n)))
                    for key in keys.tolist()]
                assert pattern_texts(keys, n) == want
                assert [ErrorPattern.from_key(key, n).text()
                        for key in keys] == want


@st.composite
def codes_and_patterns(draw):
    """A catalogue code or a random orthonormal one, and any list of
    patterns (repeats and any order allowed). A random code is supported on
    a random set of basis states; its zero entries carry random signs, which
    a product with +1 could flip."""
    if draw(st.booleans()):
        code = load_code(draw(st.sampled_from(BUILTIN_CODES)))
    else:
        n = draw(st.integers(1, 5))
        l = draw(st.integers(0, min(n, 2)))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        dim, size = 1 << n, draw(st.integers(1 << l, 1 << n))
        q, _ = np.linalg.qr(rng.standard_normal((size, 1 << l))
                            + 1j * rng.standard_normal((size, 1 << l)))
        vectors = np.empty((dim, 1 << l), dtype=np.complex128)
        vectors.real = rng.choice([0.0, -0.0], size=vectors.shape)
        vectors.imag = rng.choice([0.0, -0.0], size=vectors.shape)
        vectors[rng.permutation(dim)[:size]] = q
        code = QuantumCode("random", n, l, 0,
                           [PureState.from_amplitudes(n, v) for v in vectors.T])
    n = code.n
    pairs = draw(st.lists(st.tuples(st.integers(0, (1 << n) - 1),
                                    st.integers(0, (1 << n) - 1)),
                          max_size=12))
    return code, [ErrorPattern(BitString.from_index(a, n),
                               BitString.from_index(b, n)) for a, b in pairs]


@SETTINGS
@given(codes_and_patterns())
def test_images_of_any_pattern_list_equal_the_reference(case):
    code, patterns = case
    assert same_bytes(pattern_images(code, keys_of(patterns)),
                      reference_images(code, patterns))


@st.composite
def dissipated_blocks(draw):
    """(code, random logical amplitudes, [(qubit, channel)]): random:d
    channels, d_E from 1 to 3, on a random set of 1 to 3 qubits."""
    code = load_code(draw(st.sampled_from(["phase3", "shor9", "perfect5"])))
    qubits = draw(st.lists(st.integers(0, code.n - 1), unique=True,
                           min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    channels = [(q, random_channel(draw(st.integers(1, 3)), rng))
                for q in qubits]
    logical = rng.standard_normal(1 << code.l) \
        + 1j * rng.standard_normal(1 << code.l)
    return code, logical / np.linalg.norm(logical), channels


@SETTINGS
@given(dissipated_blocks())
def test_dissipated_block_is_the_sum_of_images_times_residues(case):
    code, logical, channels = case
    joint = encode(code, logical)
    for q, ch in channels:
        joint = apply_channel(joint, q, ch)
    # every pattern supported inside the affected set
    n, m = code.n, len(channels)
    patterns = []
    for a_mask in range(1 << m):
        for b_mask in range(1 << m):
            alpha, beta = [0] * n, [0] * n
            for j, (q, _) in enumerate(channels):
                alpha[q] = (a_mask >> j) & 1
                beta[q] = (b_mask >> j) & 1
            patterns.append(ErrorPattern(BitString(alpha), BitString(beta)))
    images = pattern_images(code, keys_of(patterns)).reshape(
        len(patterns), 1 << code.l, 1 << n)
    acc = np.zeros(joint.amps.shape, dtype=np.complex128)
    for pat, image in zip(patterns, logical @ images):
        residue = residue_oracle(channels, pat.alpha, pat.beta)
        acc += np.multiply.outer(image, residue.amps.ravel()).reshape(
            joint.amps.shape)
    assert np.max(np.abs(acc - joint.amps)) < 1e-8


@st.composite
def states_and_patterns(draw):
    """A random normalized state on 1 to 5 qubits with environment factors
    on some of them, and a random pattern on its qubits."""
    n = draw(st.integers(1, 5))
    env_qubits = draw(st.lists(st.integers(0, n - 1), unique=True,
                               max_size=min(n, 3)))
    layout = FactorLayout(n, [(q, draw(st.integers(1, 3)))
                              for q in env_qubits])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = rng.standard_normal(layout.shape) \
        + 1j * rng.standard_normal(layout.shape)
    state = PureState(layout, amps / np.linalg.norm(amps))
    a = draw(st.integers(0, (1 << n) - 1))
    b = draw(st.integers(0, (1 << n) - 1))
    return state, ErrorPattern(BitString.from_index(a, n),
                               BitString.from_index(b, n))


@SETTINGS
@given(states_and_patterns())
def test_recovering_an_applied_pattern_restores_the_state(case):
    # recover applies P_b A_a, the exact inverse of A_a P_b, so the global
    # sign the recovery may carry in general is +1 here
    state, pattern = case
    back = recover(apply_pattern(pattern, state), pattern)
    assert back.layout == state.layout
    assert np.array_equal(back.amps, state.amps)
