"""Projective syndrome decoding: measurement walks, recovery, verification.

A code passing the general correctability condition at weight t has
orthonormal images {A_a P_b |C^k>} across all patterns of union weight
<= t, so the syndrome subspaces

    H_ab = span{ A_a P_b |C^k> : k }

are mutually orthogonal. A corrupted block is measured projectively against
these subspaces; the subspace that answers identifies the pattern, and
applying P_b A_a (its own inverse up to a global sign) restores the encoded
state while disentangling the block from every environment factor.

Decoding works in syndrome coordinates. Stacking the conjugated basis rows
of every subspace into one matrix B, a single product coeff = B M (M the
system-by-environment matrix of the state) holds the state's coordinates in
all subspaces at once. By orthonormality, subspace i answers with
probability p_i = ||coeff_i||^2, the complement keeps the remaining mass,
and a walk's binary measurements are decided from p alone.

Two measurement strategies are provided, with identical outcome statistics:

* exhaustive -- walk the subspaces in canonical order, one binary
  measurement each, stopping at the first hit;
* hierarchical -- binary search over dyadic blocks of the canonical order,
  measuring projectors onto unions of subspaces, O(log) measurements on the
  success path. Once the walk has established that the state lies inside a
  block, narrowing to a single subspace needs no further measurement.

A walk reads its uniform deviates from an array holding one per
subspace: the k-th binary measurement takes the k-th deviate and fires with
the mass of its union divided by the mass not yet ruled out, and deviates
past the walk's last measurement go unread. If every outcome is 0 the state
collapses to the orthogonal complement of all table subspaces and no
correction is attempted.

A SyndromeTable is every decode's one handle on its code. correct decodes
one state against it as the paper states it: measure, recover, then
fidelity_against and schmidt_diagnostics on the recovered joint state.
verify_outcomes checks a stack of decodes at once in syndrome coordinates,
where recovery is an isometry and each identified outcome's check needs
only its 2^l x d_E coordinate block; the engine behind simulate uses it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ErrorPattern, apply_amplitude, apply_phase, pattern_texts
from .codes import ConditionError, _gram_check
from .statespace import (TOL_NORM, TOL_ZERO, PureState, fidelity_against,
                         row_norms, schmidt_diagnostics)

#: pattern filter -> the correctability condition over the same patterns
_FILTER_CONDITIONS = {"all": "general", "phase-only": "phase",
                      "amplitude-only": "amplitude"}
PATTERN_FILTERS = tuple(_FILTER_CONDITIONS)


class SyndromeTable:
    """Ordered syndrome subspaces H_ab of a code, from build_syndrome_table.

    keys[i] is the canonical key (ErrorPattern.sort_key) of the pattern
    naming subspace i, texts[i] its text and labels[i] its measurement
    label H[...]. rows, the checker's images made read-only, stacks the
    subspaces' bases {A_a P_b |C^k>}, 2^l rows each, orthonormal across the
    whole table; conj_rows @ M gives a state's coordinates in every
    subspace at once. halves[s] is the size of the union a dyadic walk
    measures in a block of s subspaces: the largest power of two below s
    (1 for s <= 2). Immutable and shareable across decode runs.
    """

    __slots__ = ("code", "keys", "texts", "labels", "is_complete", "rows",
                 "conj_rows", "halves")

    def __init__(self, code, keys, rows):
        conj_rows = np.ascontiguousarray(rows.conj())
        halves = 1 << (np.frexp(np.maximum(np.arange(len(keys) + 1) - 1,
                                           1))[1] - 1)
        for array in (keys, rows, conj_rows, halves):
            array.setflags(write=False)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "keys", keys)
        texts = tuple(pattern_texts(keys, code.n))
        object.__setattr__(self, "texts", texts)
        object.__setattr__(self, "labels",
                           tuple("H[%s]" % text for text in texts))
        # a table whose bases fill the whole block space leaves no room for
        # a "none" outcome: membership in the union is guaranteed upfront
        object.__setattr__(self, "is_complete", len(rows) == (1 << code.n))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "conj_rows", conj_rows)
        object.__setattr__(self, "halves", halves)

    def __setattr__(self, name, value):
        raise AttributeError("SyndromeTable is immutable")

    def __len__(self):
        return len(self.keys)


def build_syndrome_table(code, t, pattern_filter="all"):
    """Build the ordered subspace table, verifying correctability first.

    The matching condition (general for "all", phase for "phase-only",
    amplitude for "amplitude-only") must pass at t; otherwise the failing
    ConditionReport is raised inside a ConditionError. A passing check
    leaves every entry of its images' Gram matrix within 1e-9 of the
    identity's, and the table takes its keys and images as they are.
    """
    if pattern_filter not in PATTERN_FILTERS:
        raise ValueError("unknown pattern filter %r (choose from %s)"
                         % (pattern_filter, ", ".join(PATTERN_FILTERS)))
    report, keys, rows = _gram_check(
        code, _FILTER_CONDITIONS[pattern_filter], t)
    if not report.passed:
        raise ConditionError(report)
    return SyndromeTable(code, keys, rows)


# -- projective measurement ----------------------------------------------------

def stack_coordinates(table, M):
    """A stack of states in syndrome coordinates: (coeff, p, p_none).

    M stacks g system-by-environment matrices, (g, 2^n, d_E). coeff =
    conj_rows @ M stacks each state's 2^l x d_E coordinate blocks, one per
    subspace, (g, rows, d_E). p[j, i] is the probability that subspace i
    answers for state j and p_none[j] the mass left in the complement of
    them all (exactly 0 for a complete table). Every state's numbers come
    from fixed-shape products of its own matrix, so they do not depend on
    the other states of the stack.
    """
    coeff = np.matmul(table.conj_rows, M)
    parts = coeff.view(np.float64)  # real and imaginary parts interleaved
    p = np.add.reduceat(np.einsum("gij,gij->gi", parts, parts),
                        np.arange(len(table)) << table.code.l, axis=1)
    if table.is_complete:
        p_none = np.zeros(len(M))
    else:
        flat = M.reshape(len(M), -1).view(np.float64)
        p_none = np.maximum(np.einsum("gi,gi->g", flat, flat)
                            - np.sum(p, axis=1), 0.0)
    return coeff, p, p_none


def _coordinates(state, table):
    """One state in syndrome coordinates: (M, coeff, p, p_none), the
    one-state case of stack_coordinates with M the state's matrix."""
    if state.qubit_count != table.code.n:
        raise ValueError("state has %d qubits but the table's code has %d"
                         % (state.qubit_count, table.code.n))
    M = state.matrix()
    coeff, p, p_none = stack_coordinates(table, M[np.newaxis])
    return M, coeff[0], p[0], float(p_none[0])


def _complement(table, M, coeff):
    """The renormalized parts of a stack of matrices M (g, 2^n, d_E) outside
    every table subspace, coeff (g, rows, d_E) being their syndrome
    coordinates. Each part is divided by its row_norms norm, so that a
    stack gives each state's one-state result bit for bit."""
    rest = M - np.matmul(table.rows.T, coeff)
    rest /= row_norms(rest.reshape(len(rest), -1))[:, np.newaxis,
                                                   np.newaxis]
    return rest


def _measure_unions(u, mass_in, mass_out):
    """Binary measurements of unions holding mass_in against the rest of
    the mass not yet ruled out, mass_out: (outcomes, whether the zero
    threshold overrode the outcome the deviate gave). Each deviate u is
    thresholded at its union's conditional probability; a side whose
    conditional probability falls below the zero threshold counts as
    exactly 0 (it has no collapsed state), forcing the other outcome."""
    rem = mass_in + mass_out
    prob = mass_in / rem
    drawn = u < prob
    outcome = (drawn & ~(prob < TOL_ZERO)) | (mass_out < TOL_ZERO * rem)
    return outcome, outcome != drawn


def sample_walks(table, P, p_none, U, dyadic):
    """Sample the measurement walks of a stack of states at once.

    P (g, N) holds each state's syndrome probabilities, p_none (g,) its
    complement's mass and U (g, N) its uniform deviates, one per subspace:
    the k-th measurement of walk j takes U[j, k], and a walk that ends
    before its N-th measurement leaves the rest unread. Returns integer
    arrays (index, measurements, forced): the subspace that answered (N:
    the complement), the number of binary measurements, and the number of
    outcomes the zero threshold forced against the deviate.

    Each step splits a walk's current block [lo, hi) at mid -- after its
    first subspace, or for a dyadic walk after table.halves of its size --
    and measures the union [lo, mid). The mass not yet ruled out is the
    block's, plus the complement's until an outcome 1 proves membership in
    the block. Both masses are left-to-right sums of p, taken as masked
    cumulative sums, which add in order whatever the interpreter's float
    sum() does.
    """
    g, n = P.shape
    index = np.full(g, n, dtype=np.intp)
    measurements = np.full(g, n, dtype=np.intp)
    forced = np.zeros(g, dtype=np.intp)
    # the complement's mass is column n: it belongs to a walk's block, as
    # its last column, until an outcome 1 proves membership in the block's
    # subspaces
    mass = np.concatenate([P, p_none[:, np.newaxis]], axis=1)
    rows = np.arange(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        if not dyadic:
            # every walking block is [step, n + 1), so each step's masses
            # are known before the walk gets there: a round decides the
            # next `width` steps at once, doubling width from round to
            # round. Outcome 1 ends a walk; a walk that rules out all n
            # subspaces ends in the complement after n measurements.
            step, width = 0, 1
            while len(rows) and step < n:
                width = min(width, n - step)
                m = mass[rows, step:]
                # tail[:, k] keeps the columns after the (step + k)-th
                tail = np.where(np.arange(n + 1 - step)
                                > np.arange(width)[:, np.newaxis],
                                m[:, np.newaxis], 0.0)
                outcome, overridden = _measure_unions(
                    U[rows, step:step + width], m[:, :width],
                    np.cumsum(tail, axis=2)[:, :, -1])
                hit = outcome.any(axis=1)
                taken = np.where(hit, outcome.argmax(axis=1) + 1, width)
                forced[rows] += np.count_nonzero(
                    overridden & (np.arange(width) < taken[:, np.newaxis]),
                    axis=1)
                index[rows[hit]] = step + taken[hit] - 1
                measurements[rows[hit]] = step + taken[hit]
                rows = rows[~hit]
                step += width
                width *= 2
            return index, measurements, forced
        cols = np.arange(n + 1)
        lo = np.zeros(g, dtype=np.intp)
        # a complete table's upfront guarantee of membership saves the
        # walk its last measurement
        hi = np.full(g, n if table.is_complete else n + 1)
        step = 0
        while True:
            # a walk is over once its block holds one column
            over = hi - lo == 1
            if over.any():
                index[rows[over]] = lo[over]
                measurements[rows[over]] = step
                going = ~over
                rows, lo, hi = rows[going], lo[going], hi[going]
                if not len(rows):
                    return index, measurements, forced
            mid = lo + table.halves[np.minimum(hi, n) - lo]
            m = mass[rows]
            at = np.arange(len(rows))
            outcome, overridden = _measure_unions(
                U[rows, step],
                np.cumsum(np.where(cols >= lo[:, np.newaxis], m, 0.0),
                          axis=1)[at, mid - 1],
                np.cumsum(np.where(cols >= mid[:, np.newaxis], m, 0.0),
                          axis=1)[at, hi - 1])
            forced[rows] += overridden
            lo = np.where(outcome, lo, mid)
            hi = np.where(outcome, mid, hi)
            step += 1


def sample_walk(table, p, p_none, randomness, dyadic):
    """Sample a measurement walk from the syndrome probabilities p and the
    complement's mass p_none: returns (answering subspace index or None
    for the complement, outcome trace, number of outcomes the zero
    threshold forced against the deviate).

    The one-walk case of sample_walks, on one randomness.random(len(p))
    draw: one deviate per subspace, as every trial of the engine draws.
    The trace replays the walk's block splits from the answering index:
    the union below a split answers exactly when the index lies below it.
    """
    n = len(p)
    index, _, forced = sample_walks(
        table, np.asarray(p, dtype=np.float64)[np.newaxis],
        np.array([p_none], dtype=np.float64),
        randomness.random(n)[np.newaxis], dyadic)
    i = int(index[0])
    trace = []
    lo, hi = 0, n if dyadic and table.is_complete else n + 1
    while hi - lo > 1:
        mid = lo + (int(table.halves[min(hi, n) - lo]) if dyadic else 1)
        label = table.labels[lo] if mid - lo == 1 else "U[%d..%d]" % (
            lo, mid - 1)
        trace.append((label, int(i < mid)))
        lo, hi = (lo, mid) if i < mid else (mid, hi)
    return None if i == n else i, trace, int(forced[0])


def _measure(state, table, randomness, dyadic):
    """A walk and the renormalized state it leaves in the subspace that
    answered, or in the complement: (collapsed_state, syndrome, trace)."""
    M, coeff, p, p_none = _coordinates(state, table)
    i, trace, _ = sample_walk(table, p, p_none, randomness, dyadic)
    if i is None:
        syndrome = None
        vec = _complement(table, M[np.newaxis], coeff[np.newaxis])[0]
    else:
        syndrome = ErrorPattern.from_key(table.keys[i], table.code.n)
        a, b = i << table.code.l, (i + 1) << table.code.l
        vec = table.rows[a:b].T @ coeff[a:b] / math.sqrt(p[i])
    collapsed = PureState._trusted(state.layout,
                                   vec.reshape(state.layout.shape))
    return collapsed, syndrome, trace


def measure_exhaustive(state, table, randomness):
    """Walk the subspaces in canonical order with one binary measurement
    each; collapse and stop at the first outcome 1. All-zero outcomes leave
    the state in the orthogonal complement and report no syndrome.

    Returns (collapsed_state, syndrome_pattern_or_None, outcome_trace).
    """
    return _measure(state, table, randomness, dyadic=False)


def measure_hierarchical(state, table, randomness):
    """Binary search over dyadic blocks of the canonical subspace order.

    Measures the projector onto the union of the block's first half (size =
    the largest power of two below the block size) and recurses into the
    half the outcome selects. Once membership in the current block is
    established -- by an earlier outcome, or upfront when the table's bases
    fill the whole block space -- a block of size 1 is conclusive without
    further measurement. Outcome statistics are identical to
    measure_exhaustive (the subspaces are orthogonal, so union projector
    probabilities telescope).

    Returns (collapsed_state, syndrome_pattern_or_None, outcome_trace).
    """
    return _measure(state, table, randomness, dyadic=True)


#: strategy name -> does its walk split blocks dyadically?
DYADIC = {"exhaustive": False, "hierarchical": True}


def _dyadic(strategy):
    try:
        return DYADIC[strategy]
    except KeyError:
        raise ValueError("unknown strategy %r (choose from %s)"
                         % (strategy, ", ".join(sorted(DYADIC))))


# -- exact outcome distributions ------------------------------------------------

def syndrome_distribution(state, table):
    """Exact outcome probabilities of a full measurement walk (no sampling).

    Returns (labels, probs): labels are the canonical pattern texts plus a
    final "none" entry; probs[i] is the probability that the walk ends in
    subspace i (or, for the last entry, in the complement). These are the
    syndrome probabilities p_i = ||coeff_i||^2 and the complement's
    remaining mass, which both strategies sample, so the two strategies
    give the same distribution.
    """
    _, _, p, p_none = _coordinates(state, table)
    return list(table.texts) + ["none"], np.append(p, p_none)


# -- recovery and the end-to-end decode ------------------------------------------

def recover(collapsed, syndrome):
    """Undo an identified pattern: apply A_a then P_b (the inverse of
    A_a P_b up to a physically irrelevant global sign)."""
    if syndrome is None:
        raise ValueError("recovery needs an identified syndrome")
    return apply_phase(syndrome.beta, apply_amplitude(syndrome.alpha,
                                                      collapsed))


class DecodeReport:
    """Everything one decode run produced.

    corrected is true exactly when a syndrome was identified; fidelity is
    measured against the caller's reference state after recovery, and
    disentangled reports whether the block ended in a tensor product with
    all environment factors (maximal Schmidt coefficient within TOL_NORM of
    1).
    """

    def __init__(self, syndrome, outcome_trace, recovered_state, fidelity,
                 disentangled, corrected):
        self.syndrome = syndrome
        self.outcome_trace = outcome_trace
        self.recovered_state = recovered_state
        self.fidelity = fidelity
        self.disentangled = disentangled
        self.corrected = corrected

    def __repr__(self):
        return ("DecodeReport(syndrome=%s, fidelity=%.9f, disentangled=%s, "
                "corrected=%s)" % (self.syndrome.text() if self.syndrome
                                   else "none", self.fidelity,
                                   self.disentangled, self.corrected))


def verify_outcomes(table, index, references, M, coeff, p):
    """(fidelity, max Schmidt coefficient) arrays of a stack of decodes, one
    entry per decode, whose walks ended in subspace index[j] (len(table):
    the complement).

    references (g, 2^n) holds the system amplitudes fidelity is measured
    against, M (g, 2^n, d_E) the state matrices, coeff (g, rows, d_E) their
    syndrome coordinates and p (g, len(table)) their syndrome
    probabilities. An identified outcome's recovered state is C^T b with b
    = coeff_i / sqrt(p_i): C^T is an isometry, so its fidelity ||(conj(ref)
    C^T) b||^2 and its Schmidt coefficients (the singular values of b) come
    from the 2^l x d_E block alone. An outcome in the complement is checked
    on its renormalized complement matrix. Every decode's numbers come from
    fixed-shape products of its own arrays.
    """
    size = 1 << table.code.l  # the rows of one subspace
    fidelity, top = np.empty(len(index)), np.empty(len(index))
    found = np.flatnonzero(index < len(table))
    outside = np.flatnonzero(index == len(table))
    stacks = []  # (members, reference bras (g, 1, rows), states)
    if len(found):
        i = index[found]
        rows = i[:, np.newaxis] * size + np.arange(size)
        bras = np.matmul(references[found].conj()[:, np.newaxis],
                         table.code.matrix().T)
        stacks.append((found, bras, coeff[found[:, np.newaxis], rows]
                       / np.sqrt(p[found, i])[:, np.newaxis, np.newaxis]))
    if len(outside):
        stacks.append((outside, references[outside].conj()[:, np.newaxis],
                       _complement(table, M[outside], coeff[outside])))
    for members, bras, states in stacks:
        fidelity[members] = np.sum(np.abs(np.matmul(bras, states)) ** 2,
                                   axis=(1, 2))
        top[members] = np.linalg.svd(states, compute_uv=False)[:, 0]
    return fidelity, top


def correct(state, table, strategy, randomness, reference):
    """Measure, recover, verify: the full decode pass, the paper's procedure
    on one state.

    The walk collapses the state onto a subspace of table; recover undoes
    the pattern of the subspace that answered (a state left in the
    complement is kept as it is), and the result is checked against the
    reference with fidelity_against and schmidt_diagnostics on the whole
    joint state.

    strategy is "exhaustive" or "hierarchical"; randomness gives the walk
    one uniform deviate per table subspace in one random(size) call;
    reference is the system-only state the fidelity is measured against
    (normally the uncorrupted encoded block).
    """
    dyadic = _dyadic(strategy)
    if not reference.layout.is_system_only():
        raise ValueError("reference must be a system-only state")
    if reference.qubit_count != state.qubit_count:
        raise ValueError("qubit count mismatch: %d vs %d"
                         % (reference.qubit_count, state.qubit_count))
    collapsed, syndrome, trace = _measure(state, table, randomness, dyadic)
    recovered = collapsed if syndrome is None else recover(collapsed,
                                                           syndrome)
    return DecodeReport(
        syndrome=syndrome,
        outcome_trace=trace,
        recovered_state=recovered,
        fidelity=fidelity_against(recovered, reference),
        disentangled=schmidt_diagnostics(recovered)[0] >= 1.0 - TOL_NORM,
        corrected=syndrome is not None,
    )
