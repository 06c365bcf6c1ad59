"""Property tests of the syndrome-coordinate decoder against a dense oracle.

The oracle rebuilds every syndrome subspace from its definition,
span{A_a P_b |C^k>}, as a dense projector P_i = W_i^T conj(W_i) on the
qubit block. Extended by the identity on the environment factors,
P_i (x) I_env acts on a state's system-by-environment matrix M as P_i @ M.
Walk distributions follow by projecting the unnormalized state down the
strategy's own measurement tree.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qeclab import (apply_channel, apply_pattern, build_syndrome_table,
                    encode, load_code, measure_exhaustive,
                    measure_hierarchical, random_channel,
                    syndrome_distribution)

FILTERS = {"phase3": "phase-only", "shor9": "all", "perfect5": "all"}

# derandomized, so that every run of the suite checks the same examples
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def tables():
    return {name: build_syndrome_table(load_code(name), 1, flt)
            for name, flt in FILTERS.items()}


@st.composite
def corrupted_blocks(draw):
    """(code name, joint state): a random logical state encoded, then
    random:d channels applied to a random subset of the block's qubits."""
    name = draw(st.sampled_from(sorted(FILTERS)))
    code = load_code(name)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    qubits = draw(st.lists(st.integers(0, code.n - 1), unique=True,
                           max_size=3))
    env_dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(1 << code.l) \
        + 1j * rng.standard_normal(1 << code.l)
    state = encode(code, vec / np.linalg.norm(vec))
    for q in qubits:
        state = apply_channel(state, q, random_channel(env_dim, rng))
    return name, state


def projectors(table):
    """Dense projectors onto each subspace, built from the pattern images."""
    out = []
    for pat in table.patterns:
        W = np.stack([apply_pattern(pat, v).amps.ravel()
                      for v in table.code.vectors])
        out.append(W.T @ W.conj())
    return out


def oracle_exhaustive(M, P):
    """Outcome probabilities of the subspace-by-subspace walk, "none" last."""
    probs, rest = [], M
    for proj in P:
        hit = proj @ rest
        probs.append(np.vdot(hit, hit).real)
        rest = rest - hit
    return np.array(probs + [np.vdot(rest, rest).real])


def oracle_hierarchical(M, P, complete):
    """Outcome probabilities of the dyadic walk over unions of subspaces."""
    probs = np.zeros(len(P) + 1)

    def walk(v, lo, hi, inside):
        size = hi - lo
        if size == 1 and inside:
            probs[lo] += np.vdot(v, v).real
            return
        mid = lo + (1 << ((size - 1).bit_length() - 1) if size > 1 else 1)
        union = sum(P[lo:mid])
        hit = union @ v
        walk(hit, lo, mid, True)
        if mid < hi:
            walk(v - hit, mid, hi, inside)
        else:
            probs[-1] += np.vdot(v - hit, v - hit).real

    walk(M, 0, len(P), complete)
    return probs


def dyadic_deviates(target, n_subspaces, complete):
    """Scripted deviates steering the dyadic walk to subspace `target`
    (n_subspaces: the complement); 0.0 answers a union, 1.0 rules it out."""
    us, lo, hi, inside = [], 0, n_subspaces, complete
    while lo < hi and not (hi - lo == 1 and inside):
        size = hi - lo
        mid = lo + (1 << ((size - 1).bit_length() - 1) if size > 1 else 1)
        if lo <= target < mid:
            us.append(0.0)
            hi, inside = mid, True
        else:
            us.append(1.0)
            lo = mid
    return us


class Stream:
    def __init__(self, us):
        self.us = list(us)

    def random(self):
        return self.us.pop(0)


@SETTINGS
@given(corrupted_blocks())
def test_distribution_matches_the_dense_projector_oracle(tables, block):
    name, state = block
    table = tables[name]
    P = projectors(table)
    M = state.matrix()
    expected_e = oracle_exhaustive(M, P)
    expected_h = oracle_hierarchical(M, P, table.is_complete)
    assert np.max(np.abs(expected_e - expected_h)) <= 1e-12
    for strategy in ("exhaustive", "hierarchical"):
        labels, probs = syndrome_distribution(state, table, strategy)
        assert len(labels) == len(probs) == len(table) + 1
        assert np.max(np.abs(probs - expected_e)) <= 1e-12


@SETTINGS
@given(corrupted_blocks(), st.data())
def test_scripted_walks_collapse_onto_the_oracle_projection(tables, block,
                                                            data):
    name, state = block
    table = tables[name]
    P = projectors(table)
    M = state.matrix()
    probs = oracle_exhaustive(M, P)
    target = data.draw(st.sampled_from(
        [i for i, q in enumerate(probs) if q >= 1e-4]))
    N = len(table)
    if target < N:
        expected = P[target] @ M
    else:
        expected = M - sum(proj @ M for proj in P)
    expected = expected / np.linalg.norm(expected)
    syndrome = table.patterns[target] if target < N else None
    walks = [
        (measure_exhaustive, [1.0] * target + [0.0] * (target < N)),
        (measure_hierarchical, dyadic_deviates(target, N, table.is_complete)),
    ]
    for measure, us in walks:
        randomness = Stream(us)
        collapsed, got, trace = measure(state, table, randomness)
        assert got == syndrome
        assert randomness.us == []  # one deviate per measurement
        assert len(trace) == len(us)
        assert collapsed.layout == state.layout
        assert np.max(np.abs(collapsed.matrix() - expected)) <= 1e-10
