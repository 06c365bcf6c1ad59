"""Property tests of the syndrome-coordinate decoder and its stacked
outcome verification against a dense oracle, and of the array
measurement walk against a scalar one.

The oracle rebuilds every syndrome subspace from its definition,
span{A_a P_b |C^k>}, as a dense projector P_i = W_i^T conj(W_i) on the
qubit block. Extended by the identity on the environment factors,
P_i (x) I_env acts on a state's system-by-environment matrix M as P_i @ M.
Walk distributions follow by projecting the unnormalized state down the
strategy's own measurement tree.

The scalar walk measures one union at a time, summing its masses left to
right in a Python loop; decoder.sample_walks must give every row's walk
bit for bit, whatever else its stack holds.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qeclab import (ErrorPattern, apply_channel, apply_pattern,
                    build_syndrome_table, encode, fidelity_against, load_code,
                    measure_exhaustive, measure_hierarchical, random_channel,
                    recover, schmidt_diagnostics, syndrome_distribution)
from qeclab.decoder import (sample_walk, sample_walks, stack_coordinates,
                            verify_outcomes)
from qeclab.statespace import TOL_ZERO, PureState

from walk_trees import Stream, left_to_right, walk_tree

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
    for key in table.keys:
        pat = ErrorPattern.from_key(key, table.code.n)
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
    labels, probs = syndrome_distribution(state, table)
    assert len(labels) == len(probs) == len(table) + 1
    assert np.max(np.abs(probs - expected_e)) <= 1e-12
    for dyadic in (False, True):
        tree, _ = walk_tree(probs[:-1], probs[-1], dyadic, table.is_complete)
        assert np.max(np.abs(tree - expected_e)) <= 1e-12


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
    syndrome = (ErrorPattern.from_key(table.keys[target], table.code.n)
                if target < N else None)
    walks = [
        (measure_exhaustive, [1.0] * target + [0.0] * (target < N)),
        (measure_hierarchical, dyadic_deviates(target, N, table.is_complete)),
    ]
    for measure, us in walks:
        randomness = Stream(us)
        collapsed, got, trace = measure(state, table, randomness)
        assert got == syndrome
        assert randomness.served == N  # one deviate per subspace
        assert len(trace) == len(us)
        assert collapsed.layout == state.layout
        assert np.max(np.abs(collapsed.matrix() - expected)) <= 1e-10


#: the incomplete tables a decode can end in the complement of
COMPLEMENT_TABLES = {key: build_syndrome_table(load_code(key[0]), key[1],
                                               key[2])
                     for key in [("shor9", 1, "all"),
                                 ("shor9", 1, "phase-only"),
                                 ("phase3", 0, "phase-only")]}


@st.composite
def complement_stacks(draw):
    """(table, states, references): 1 to 6 random logical states encoded,
    each sent through its own random:d channels on the same 2 or 3 qubits,
    so that the stack shares one joint layout."""
    table = COMPLEMENT_TABLES[draw(st.sampled_from(sorted(COMPLEMENT_TABLES)))]
    code = table.code
    qubits = draw(st.lists(st.integers(0, code.n - 1), unique=True,
                           min_size=2, max_size=3))
    env_dim = draw(st.integers(1, 3))
    states, references = [], []
    for _ in range(draw(st.integers(1, 6))):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        vec = rng.standard_normal(1 << code.l) \
            + 1j * rng.standard_normal(1 << code.l)
        reference = encode(code, vec / np.linalg.norm(vec))
        state = reference
        for q in qubits:
            state = apply_channel(state, q, random_channel(env_dim, rng))
        states.append(state)
        references.append(reference)
    return table, states, references


def oracle_outcome(table, P, state, i):
    """The state a decode leaves when its walk ends in subspace i
    (len(table): the complement), from the dense projectors P: the
    renormalized projection, recovered by subspace i's pattern."""
    M = state.matrix()
    complement = i == len(table)
    part = M - sum(proj @ M for proj in P) if complement else P[i] @ M
    collapsed = PureState(state.layout, part / np.linalg.norm(part))
    return collapsed if complement else recover(
        collapsed, ErrorPattern.from_key(table.keys[i], table.code.n))


def check_outcomes(table, states, references, index):
    """verify_outcomes on a stack whose decodes ended in subspaces index:
    within 1e-12 of fidelity_against and schmidt_diagnostics of each
    oracle state, and every row's bytes equal to its one-row call's."""
    P = projectors(table)
    M = np.stack([state.matrix() for state in states])
    refs = np.stack([ref.amps.ravel() for ref in references])
    coeff, p, _ = stack_coordinates(table, M)
    outside = index == len(table)
    fidelity, top = verify_outcomes(table, index, refs, coeff, p, M[outside])
    for j, (state, ref) in enumerate(zip(states, references)):
        expected = oracle_outcome(table, P, state, index[j])
        assert abs(fidelity[j] - fidelity_against(expected, ref)) <= 1e-12
        assert abs(top[j] - schmidt_diagnostics(expected)[0]) <= 1e-12
        # a row verified alone gives the same bytes as within the stack
        alone = verify_outcomes(table, index[j:j + 1], refs[j:j + 1],
                                coeff[j:j + 1], p[j:j + 1],
                                M[j:j + 1][outside[j:j + 1]])
        for got, single in zip((fidelity, top), alone):
            assert got[j].tobytes() == single[0].tobytes()


@SETTINGS
@given(complement_stacks())
def test_stacked_complement_verification_matches_the_oracle(stack):
    table, states, references = stack
    M = np.stack([state.matrix() for state in states])
    _, _, p_none = stack_coordinates(table, M)
    assert np.all(p_none > 1e-6)  # every state has a complement to verify
    check_outcomes(table, states, references,
                   np.full(len(states), len(table)))


@SETTINGS
@given(complement_stacks(), st.data())
def test_a_mixed_stack_of_outcomes_matches_the_oracle(stack, data):
    # each decode ends in the complement or in a subspace holding at least
    # 1e-3 of its mass, in any order down the stack
    table, states, references = stack
    M = np.stack([state.matrix() for state in states])
    _, p, _ = stack_coordinates(table, M)
    index = np.array([data.draw(st.sampled_from(
        np.flatnonzero(row > 1e-3).tolist() + [len(table)])) for row in p])
    check_outcomes(table, states, references, index)


def scalar_walk(table, p, p_none, deviate, dyadic):
    """(index or None, [(lo, mid, outcome)] per measurement, forced
    outcomes) of one walk; deviate(k, prob) gives the deviate of its k-th
    measurement, whose union has conditional probability prob."""
    steps, forced = [], 0
    lo, hi = 0, len(p)
    inside = dyadic and table.is_complete
    while lo < hi:
        size = hi - lo
        if size == 1 and inside:
            return lo, steps, forced
        half = 1
        if dyadic and size > 1:
            half = 1 << ((size - 1).bit_length() - 1)
        mid = lo + half
        mass_in = left_to_right(p[lo:mid])
        mass_out = left_to_right(p[mid:hi]) + (0.0 if inside else p_none)
        rem = mass_in + mass_out
        prob = mass_in / rem
        drawn = outcome = deviate(len(steps), prob) < prob
        if outcome and prob < TOL_ZERO:
            outcome = False
        if not outcome and mass_out < TOL_ZERO * rem:
            outcome = True
        forced += outcome != drawn
        steps.append((lo, mid, int(outcome)))
        if outcome:
            hi, inside = mid, True
        else:
            lo = mid
    return None, steps, forced


WALK_TABLES = {key: build_syndrome_table(load_code(key[0]), 1, key[1])
               for key in [("phase3", "phase-only"), ("shor9", "all"),
                           ("shor9", "phase-only"), ("perfect5", "all")]}

#: masses around the zero threshold, relative to a total of about 1
SMALL = [0.0, 1e-20, 1e-16, TOL_ZERO * (1 - 1e-9), TOL_ZERO,
         TOL_ZERO * (1 + 1e-9), 1e-11]

#: deviates at both ends of [0, 1)
EDGE_DEVIATES = [0.0, float(np.nextafter(1.0, 0.0))]


@st.composite
def walk_stacks(draw):
    """(table, P, p_none, U, edges): a stack of syndrome probabilities over
    one table, a mix of clean, spread and near-zero masses, with deviates.
    Where edges holds a boolean, the scalar walk replaces the deviate by its
    measurement's conditional probability prob (True: outcome 0 drawn) or
    the float just below it (False: outcome 1 drawn), so that a last-bit
    change to prob changes the outcome."""
    table = WALK_TABLES[draw(st.sampled_from(sorted(WALK_TABLES)))]
    n = len(table)
    g = draw(st.integers(1, 8))
    P, p_none = np.empty((g, n)), np.empty(g)
    for j in range(g):
        kind = draw(st.sampled_from(["clean", "spread", "sparse"]))
        if kind == "clean":  # one subspace holds all but rounding dust
            w = [draw(st.sampled_from(SMALL)) for _ in range(n + 1)]
            w[draw(st.integers(0, n))] = 1.0
        elif kind == "spread":
            w = [draw(st.floats(0.0, 1.0)) for _ in range(n + 1)]
        else:
            w = [draw(st.one_of(st.sampled_from(SMALL), st.floats(0.0, 1.0)))
                 if draw(st.booleans()) else 0.0 for _ in range(n + 1)]
        if table.is_complete:
            w[-1] = 0.0
        if left_to_right(w) == 0.0:
            w[0] = 1.0
        total = left_to_right(w)
        P[j] = [x / total for x in w[:-1]]
        p_none[j] = w[-1] / total
    U = np.array([[draw(st.one_of(st.sampled_from(EDGE_DEVIATES),
                                  st.floats(0.0, 1.0, exclude_max=True)))
                   for _ in range(n)] for _ in range(g)])
    edges = [[draw(st.sampled_from([None, True, False])) for _ in range(n)]
             for _ in range(g)]
    return table, P, p_none, U, edges


@settings(SETTINGS, max_examples=50)
@given(walk_stacks(), st.booleans())
def test_array_walk_matches_the_scalar_walk(stack, dyadic):
    table, P, p_none, U, edges = stack

    def deviate(j):
        def at(k, prob):
            if edges[j][k] is not None:
                U[j, k] = prob if edges[j][k] else np.nextafter(prob, 0.0)
            return U[j, k]
        return at

    walks = [scalar_walk(table, P[j].tolist(), float(p_none[j]), deviate(j),
                         dyadic) for j in range(len(P))]
    index, measurements, forced = sample_walks(table, P, p_none, U, dyadic)
    for j, (i, steps, f) in enumerate(walks):
        assert (index[j], measurements[j], forced[j]) == (
            len(table) if i is None else i, len(steps), f)
        labels = [(table.labels[lo] if mid - lo == 1
                   else "U[%d..%d]" % (lo, mid - 1), outcome)
                  for lo, mid, outcome in steps]
        # the public walk draws one deviate per subspace in one call
        stream = Stream(U[j].tolist())
        assert sample_walk(table, P[j], p_none[j], stream, dyadic) == (
            i, labels, f)
        assert stream.served == len(table)
