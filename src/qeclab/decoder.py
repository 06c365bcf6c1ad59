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

Each binary measurement consumes one uniform deviate and fires with the
mass of its union divided by the mass not yet ruled out. If every outcome
is 0 the state collapses to the orthogonal complement of all table
subspaces and no correction is attempted.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import apply_amplitude, apply_phase
from .codes import ConditionError, _gram_check
from .statespace import TOL_NORM, TOL_ZERO, PureState

#: pattern filter -> the correctability condition over the same patterns
_FILTER_CONDITIONS = {"all": "general", "phase-only": "phase",
                      "amplitude-only": "amplitude"}
PATTERN_FILTERS = tuple(_FILTER_CONDITIONS)

#: Gram tolerance for a whole syndrome table (looser than the per-inner-
#: product checker tolerance, since the table aggregates thousands of them).
TABLE_TOL = 1e-8


class SyndromeTable:
    """Ordered syndrome subspaces H_ab for one (code, t, pattern filter).

    patterns[i] names the i-th subspace, texts[i] is its pattern text and
    labels[i] its measurement label H[...]; matrices[i] holds its orthonormal
    basis {A_a P_b |C^k>} as rows (2^l x 2^n). Bases are pairwise orthonormal
    across the whole table. rows stacks every basis, matrices[i] being the
    view rows[offsets[i]:offsets[i + 1]], and conj_rows is its conjugate, so
    conj_rows @ M gives a state's coordinates in every subspace at once.
    Immutable and shareable across decode runs.
    """

    __slots__ = ("code", "t", "pattern_filter", "patterns", "matrices",
                 "texts", "labels", "is_complete", "rows", "conj_rows",
                 "offsets")

    def __init__(self, code, t, pattern_filter, patterns, matrices):
        rows = np.vstack(matrices)
        conj_rows = np.ascontiguousarray(rows.conj())
        rows.setflags(write=False)
        conj_rows.setflags(write=False)
        offsets = np.cumsum([0] + [m.shape[0] for m in matrices])
        offsets.setflags(write=False)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "t", int(t))
        object.__setattr__(self, "pattern_filter", pattern_filter)
        object.__setattr__(self, "patterns", tuple(patterns))
        object.__setattr__(self, "matrices", tuple(
            rows[a:b] for a, b in zip(offsets[:-1], offsets[1:])))
        texts = tuple(p.text() for p in patterns)
        object.__setattr__(self, "texts", texts)
        object.__setattr__(self, "labels",
                           tuple("H[%s]" % text for text in texts))
        # a table whose bases fill the whole block space leaves no room for
        # a "none" outcome: membership in the union is guaranteed upfront
        object.__setattr__(self, "is_complete", len(rows) == (1 << code.n))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "conj_rows", conj_rows)
        object.__setattr__(self, "offsets", offsets)

    def __setattr__(self, name, value):
        raise AttributeError("SyndromeTable is immutable")

    def __len__(self):
        return len(self.patterns)


def build_syndrome_table(code, t, pattern_filter="all"):
    """Build the ordered subspace table, verifying correctability first.

    The matching condition (general for "all", phase for "phase-only",
    amplitude for "amplitude-only") must pass at t; otherwise the failing
    ConditionReport is raised inside a ConditionError. The table takes the
    checker's pattern images as its bases, and the checker's Gram matrix of
    them is additionally verified against the identity within 1e-8.
    """
    if pattern_filter not in PATTERN_FILTERS:
        raise ValueError("unknown pattern filter %r (choose from %s)"
                         % (pattern_filter, ", ".join(PATTERN_FILTERS)))
    report, patterns, rows = _gram_check(
        code, _FILTER_CONDITIONS[pattern_filter], t)
    if not report.passed:
        raise ConditionError(report)
    if report.worst > TABLE_TOL:  # pragma: no cover - excluded by the check
        raise AssertionError("syndrome table Gram deviates by %.3e"
                             % report.worst)
    return SyndromeTable(code, t, pattern_filter, patterns,
                         rows.reshape(len(patterns), 1 << code.l, -1))


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
                        table.offsets[:-1], axis=1)
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
    _check_compatible(state, table)
    M = state.matrix()
    coeff, p, p_none = stack_coordinates(table, M[np.newaxis])
    return M, coeff[0], p[0], float(p_none[0])


def _collapse(state, table, M, coeff, p, i):
    """The renormalized state after subspace i answered (None: after every
    subspace was ruled out, leaving the complement)."""
    if i is None:
        vec = _complement(table, M[np.newaxis], coeff[np.newaxis])[0]
    else:
        a, b = table.offsets[i], table.offsets[i + 1]
        vec = table.matrices[i].T @ coeff[a:b] / math.sqrt(p[i])
    return PureState._trusted(state.layout, vec.reshape(state.layout.shape))


def _complement(table, M, coeff):
    """The renormalized parts of a stack of matrices M (g, 2^n, d_E) outside
    every table subspace, coeff (g, rows, d_E) being their syndrome
    coordinates. Each part is divided by its norm, taken row by row as the
    sum np.linalg.norm takes, so that a stack gives each state's one-state
    result bit for bit."""
    rest = M - np.matmul(table.rows.T, coeff)
    flat = rest.reshape(len(rest), -1)
    rest /= np.sqrt(np.vecdot(flat.real, flat.real)
                    + np.vecdot(flat.imag, flat.imag))[:, np.newaxis,
                                                        np.newaxis]
    return rest


def sample_walks(table, P, p_none, U, dyadic):
    """Sample the measurement walks of a stack of states at once.

    P (g, N) holds each state's syndrome probabilities, p_none (g,) its
    complement's mass and U (g, N) its uniform deviates, the k-th
    measurement of walk j taking U[j, k]. Returns integer arrays (index,
    measurements, forced): the subspace that answered (N: the complement),
    the number of binary measurements, and the number of outcomes the zero
    threshold forced against the deviate. Walk j is sample_walk's walk on
    row j, bit for bit.
    """
    return _walks(table, P, p_none,
                  lambda step, width, rows: U[rows, step:step + width],
                  dyadic, lookahead=True)


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


def _walks(table, P, p_none, uniforms, dyadic, lookahead=False,
           steps=None):
    """The measurement walks of P's rows, advanced together round by round:
    uniforms(step, width, rows) gives, for the given walks, the deviates of
    their measurements step to step + width - 1 as a (rows, width) array.
    A dyadic walk, or an exhaustive one without lookahead, makes one
    measurement per round. steps, when a list, receives each round's
    (lo, mid) of the first walk still going and the outcomes of all of
    them, from which the one-walk case reads its trace.

    Each step splits a walk's current block [lo, hi) at mid -- after its
    first subspace, or for a dyadic walk after the largest power of two
    below its size -- and measures the union [lo, mid). The mass not yet
    ruled out is the block's, plus the complement's until an outcome 1
    proves membership in the block. Both masses are left-to-right sums of
    p, taken as masked cumulative sums, which add in order whatever the
    interpreter's float sum() does.
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
            # are known before the walk gets there: with lookahead a round
            # decides the next `width` steps at once, doubling width from
            # round to round. Outcome 1 ends a walk; a walk that rules out
            # all n subspaces ends in the complement after n measurements.
            step, width = 0, 1
            while len(rows) and step < n:
                width = min(width, n - step)
                m = mass[rows, step:]
                # tail[:, k] keeps the columns after the (step + k)-th
                tail = np.where(np.arange(n + 1 - step)
                                > np.arange(width)[:, np.newaxis],
                                m[:, np.newaxis], 0.0)
                outcome, overridden = _measure_unions(
                    uniforms(step, width, rows), m[:, :width],
                    np.cumsum(tail, axis=2)[:, :, -1])
                hit = outcome.any(axis=1)
                taken = np.where(hit, outcome.argmax(axis=1) + 1, width)
                forced[rows] += np.count_nonzero(
                    overridden & (np.arange(width) < taken[:, np.newaxis]),
                    axis=1)
                if steps is not None:
                    steps.append((step, step + 1, outcome[:, 0]))
                index[rows[hit]] = step + taken[hit] - 1
                measurements[rows[hit]] = step + taken[hit]
                rows = rows[~hit]
                step += width
                if lookahead:
                    width *= 2
            return index, measurements, forced
        cols = np.arange(n + 1)
        # halves[s]: the size of the union measured in s subspaces
        halves = 1 << (np.frexp(np.maximum(np.arange(n + 1) - 1, 1))[1] - 1)
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
            mid = lo + halves[np.minimum(hi, n) - lo]
            m = mass[rows]
            at = np.arange(len(rows))
            outcome, overridden = _measure_unions(
                uniforms(step, 1, rows)[:, 0],
                np.cumsum(np.where(cols >= lo[:, np.newaxis], m, 0.0),
                          axis=1)[at, mid - 1],
                np.cumsum(np.where(cols >= mid[:, np.newaxis], m, 0.0),
                          axis=1)[at, hi - 1])
            forced[rows] += overridden
            if steps is not None:
                steps.append((lo[0], mid[0], outcome))
            lo = np.where(outcome, lo, mid)
            hi = np.where(outcome, mid, hi)
            step += 1


def sample_walk(table, p, p_none, randomness, dyadic):
    """Sample a measurement walk from the syndrome probabilities p and the
    complement's mass p_none: returns (answering subspace index or None
    for the complement, outcome trace, number of outcomes the zero
    threshold forced against the deviate).

    The one-walk case of sample_walks, drawing one deviate per measurement
    from randomness.random() as the measurement comes.
    """
    steps = []
    index, _, forced = _walks(
        table, np.asarray(p, dtype=np.float64)[np.newaxis],
        np.array([p_none], dtype=np.float64),
        lambda step, width, rows: np.array([[randomness.random()]]), dyadic,
        steps=steps)
    trace = []
    for lo, mid, outcome in steps:
        lo, mid = int(lo), int(mid)
        label = table.labels[lo] if mid - lo == 1 else "U[%d..%d]" % (
            lo, mid - 1)
        trace.append((label, int(outcome[0])))
    i = int(index[0])
    return None if i == len(p) else i, trace, int(forced[0])


def _measure(state, table, randomness, dyadic):
    M, coeff, p, p_none = _coordinates(state, table)
    i, trace, _ = sample_walk(table, p, p_none, randomness, dyadic)
    return (_collapse(state, table, M, coeff, p, i),
            None if i is None else table.patterns[i], trace)


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


def _check_compatible(state, table):
    if state.qubit_count != table.code.n:
        raise ValueError("state has %d qubits but the table's code has %d"
                         % (state.qubit_count, table.code.n))


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


def verify_blocks(table, blocks, p, references):
    """Verify a stack of identified outcomes: (fidelity, max Schmidt
    coefficient), one entry per outcome.

    blocks (g, 2^l, d_E) holds each outcome's coordinate block coeff_i in
    the subspace i that answered, p (g,) its probability p_i and references
    (g, 2^n) the system amplitudes fidelity is measured against. The
    recovered state is C^T b with b = coeff_i / sqrt(p_i); C^T is an
    isometry, so the fidelity ||(conj(ref) C^T) b||^2 and the Schmidt
    coefficients (the singular values of b) come from the 2^l x d_E block
    alone. Every outcome's numbers come from fixed-shape products of its
    own arrays.
    """
    blocks = blocks / np.sqrt(p)[:, np.newaxis, np.newaxis]
    ref_coords = np.matmul(references.conj()[:, np.newaxis, :],
                           table.code.matrix().T)
    w = np.matmul(ref_coords, blocks)
    fidelity = np.sum(np.abs(w) ** 2, axis=(1, 2))
    max_schmidt = np.linalg.svd(blocks, compute_uv=False)[:, 0]
    return blocks, fidelity, max_schmidt


def verify_complement(table, M, coeff, references):
    """Verify a stack of decodes that ended in the complement of every
    subspace: (renormalized complement matrices, fidelity, max Schmidt
    coefficient), one entry per decode.

    M (g, 2^n, d_E) holds each decode's state matrix, coeff (g, rows, d_E)
    its syndrome coordinates and references (g, 2^n) the system amplitudes
    fidelity is measured against. Every decode's numbers come from
    fixed-shape products of its own arrays.
    """
    rest = _complement(table, M, coeff)
    w = np.matmul(references.conj()[:, np.newaxis, :], rest)
    fidelity = np.sum(np.abs(w) ** 2, axis=(1, 2))
    max_schmidt = np.linalg.svd(rest, compute_uv=False)[:, 0]
    return rest, fidelity, max_schmidt


def correct(state, code, t, strategy, randomness, reference,
            pattern_filter="all", table=None):
    """Measure, recover, verify: the full decode pass.

    strategy is "exhaustive" or "hierarchical"; randomness supplies one
    uniform deviate per binary measurement; reference is the system-only
    state the fidelity is measured against (normally the uncorrupted encoded
    block). A prebuilt SyndromeTable for (code, t, pattern_filter) can be
    passed to skip rebuilding in tight loops; a table built for another
    code, t or pattern filter is refused.
    """
    if table is None:
        table = build_syndrome_table(code, t, pattern_filter)
    elif (table.code is not code
          and not np.array_equal(table.code.matrix(), code.matrix())):
        raise ValueError("table was built for another code (%r)"
                         % table.code.name)
    elif (table.t, table.pattern_filter) != (t, pattern_filter):
        raise ValueError("table was built for t = %d and pattern filter %r, "
                         "not t = %d and %r" % (table.t, table.pattern_filter,
                                                t, pattern_filter))
    dyadic = _dyadic(strategy)
    if not reference.layout.is_system_only():
        raise ValueError("reference must be a system-only state")
    if reference.qubit_count != state.qubit_count:
        raise ValueError("qubit count mismatch: %d vs %d"
                         % (reference.qubit_count, state.qubit_count))
    M, coeff, p, p_none = _coordinates(state, table)
    i, trace, _ = sample_walk(table, p, p_none, randomness, dyadic)
    ref = reference.amps.reshape(1, -1)
    if i is None:
        recovered, fidelity, max_schmidt = verify_complement(
            table, M[np.newaxis], coeff[np.newaxis], ref)
        recovered = recovered[0]
    else:
        a, b = table.offsets[i], table.offsets[i + 1]
        blocks, fidelity, max_schmidt = verify_blocks(
            table, coeff[np.newaxis, a:b], p[i:i + 1], ref)
        recovered = table.code.matrix().T @ blocks[0]
    fidelity, max_schmidt = float(fidelity[0]), float(max_schmidt[0])
    return DecodeReport(
        syndrome=None if i is None else table.patterns[i],
        outcome_trace=trace,
        recovered_state=PureState._trusted(
            state.layout, recovered.reshape(state.layout.shape)),
        fidelity=fidelity,
        disentangled=bool(max_schmidt >= 1.0 - TOL_NORM),
        corrected=i is not None,
    )
