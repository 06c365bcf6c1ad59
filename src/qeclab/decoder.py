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

from .bitstrings import BitString
from .errors import (ErrorPattern, apply_amplitude, apply_phase,
                     enumerate_bitstrings_by_weight, enumerate_patterns)
from .codes import (ConditionError, check_amplitude_condition,
                    check_general_condition, check_phase_condition)
from .statespace import (TOL_NORM, TOL_ZERO, PureState, fidelity_against,
                         schmidt_diagnostics, state_to_dict)

PATTERN_FILTERS = ("all", "phase-only", "amplitude-only")

#: Gram tolerance for a whole syndrome table (looser than the per-inner-
#: product checker tolerance, since the table aggregates thousands of them).
TABLE_TOL = 1e-8


class SyndromeTable:
    """Ordered syndrome subspaces H_ab for one (code, t, pattern filter).

    patterns[i] names the i-th subspace; matrices[i] holds its orthonormal
    basis {A_a P_b |C^k>} as rows (2^l x 2^n). Bases are pairwise orthonormal
    across the whole table. rows stacks every basis, matrices[i] being the
    view rows[offsets[i]:offsets[i + 1]], and conj_rows is its conjugate, so
    conj_rows @ M gives a state's coordinates in every subspace at once.
    Immutable and shareable across decode runs.
    """

    __slots__ = ("code", "t", "pattern_filter", "patterns", "matrices",
                 "labels", "is_complete", "rows", "conj_rows", "offsets")

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
        object.__setattr__(self, "labels",
                           tuple("H[%s]" % p.text() for p in patterns))
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


_FILTER_CHECKERS = {
    "all": check_general_condition,
    "phase-only": check_phase_condition,
    "amplitude-only": check_amplitude_condition,
}


def _filter_patterns(n, t, pattern_filter):
    if pattern_filter == "all":
        return enumerate_patterns(n, t)
    zeros = BitString.zeros(n)
    parts = enumerate_bitstrings_by_weight(n, t)
    if pattern_filter == "phase-only":
        return [ErrorPattern(zeros, b) for b in parts]
    return [ErrorPattern(a, zeros) for a in parts]


def build_syndrome_table(code, t, pattern_filter="all"):
    """Build the ordered subspace table, verifying correctability first.

    The matching condition (general for "all", phase for "phase-only",
    amplitude for "amplitude-only") must pass at t; otherwise the failing
    ConditionReport is raised inside a ConditionError. The assembled table's
    full Gram matrix is additionally verified against the identity within
    1e-8.
    """
    if pattern_filter not in PATTERN_FILTERS:
        raise ValueError("unknown pattern filter %r (choose from %s)"
                         % (pattern_filter, ", ".join(PATTERN_FILTERS)))
    report = _FILTER_CHECKERS[pattern_filter](code, t)
    if not report.passed:
        raise ConditionError(report)
    patterns = _filter_patterns(code.n, t, pattern_filter)
    C = code.matrix()  # (2^l, 2^n)
    matrices = []
    for p in patterns:
        a = p.alpha.to_index()
        b = p.beta.to_index()
        rows = C
        if b:
            signs = 1.0 - 2.0 * (np.bitwise_count(
                np.arange(1 << code.n) & b) & 1)
            rows = rows * signs
        if a:
            rows = rows[:, np.arange(1 << code.n) ^ a]
        matrices.append(rows)
    table = SyndromeTable(code, t, pattern_filter, patterns, matrices)
    dev = np.max(np.abs(table.conj_rows @ table.rows.T
                        - np.eye(len(table.rows))))
    if dev > TABLE_TOL:  # pragma: no cover - excluded by the checker above
        raise AssertionError("syndrome table Gram deviates by %.3e" % dev)
    return table


# -- projective measurement ----------------------------------------------------

def _coordinates(state, table):
    """The state in syndrome coordinates: (M, coeff, p, p_none).

    M is the state's system-by-environment matrix and coeff = conj_rows @ M
    stacks its 2^l x d_E coordinate blocks, one per subspace. p[i] is the
    probability that subspace i answers and p_none the mass left in the
    complement of them all (exactly 0 for a complete table).
    """
    _check_compatible(state, table)
    M = state.matrix()
    coeff = table.conj_rows @ M
    parts = coeff.view(np.float64)  # real and imaginary parts interleaved
    p = np.add.reduceat(np.einsum("ij,ij->i", parts, parts),
                        table.offsets[:-1])
    if table.is_complete:
        p_none = 0.0
    else:
        p_none = max(float(np.vdot(M, M).real) - float(np.sum(p)), 0.0)
    return M, coeff, p, p_none


def _collapse(state, table, M, coeff, p, i):
    """The renormalized state after subspace i answered (None: after every
    subspace was ruled out, leaving the complement)."""
    if i is None:
        vec = M - table.rows.T @ coeff
        vec /= np.linalg.norm(vec)
    else:
        a, b = table.offsets[i], table.offsets[i + 1]
        vec = table.matrices[i].T @ coeff[a:b] / math.sqrt(p[i])
    return PureState._trusted(state.layout, vec.reshape(state.layout.shape))


def _outcome(u, mass_in, mass_out):
    """One ideal binary measurement between a union holding mass_in and the
    rest of the mass not yet ruled out, mass_out: the single uniform deviate
    u is thresholded at the conditional probability. A side whose conditional
    probability falls below the zero threshold counts as exactly 0 (it has
    no collapsed state), forcing the other outcome."""
    rem = mass_in + mass_out
    prob = mass_in / rem
    outcome = u < prob
    if outcome and prob < TOL_ZERO:
        outcome = False
    if not outcome and mass_out < TOL_ZERO * rem:
        outcome = True
    return outcome


def _walk(state, table, randomness, dyadic):
    """Sample a measurement walk from the syndrome probabilities.

    Each step splits the current block [lo, hi) at mid -- after its first
    subspace, or for a dyadic walk after the largest power of two below its
    size -- and measures the union [lo, mid). The mass not yet ruled out is
    the block's, plus the complement's until an outcome 1 proves membership
    in the block.
    """
    M, coeff, p, p_none = _coordinates(state, table)
    p = p.tolist()
    trace = []
    lo, hi = 0, len(p)
    # is membership in [lo, hi) already proven? Only the dyadic walk uses a
    # complete table's upfront guarantee to skip its last measurement.
    inside = dyadic and table.is_complete
    while lo < hi:
        size = hi - lo
        if size == 1 and inside:
            return (_collapse(state, table, M, coeff, p, lo),
                    table.patterns[lo], trace)
        half = 1
        if dyadic and size > 1:
            half = 1 << ((size - 1).bit_length() - 1)
        mid = lo + half
        outcome = _outcome(randomness.random(), sum(p[lo:mid]),
                           sum(p[mid:hi]) + (0.0 if inside else p_none))
        label = table.labels[lo] if half == 1 else "U[%d..%d]" % (lo, mid - 1)
        trace.append((label, int(outcome)))
        if outcome:
            hi = mid
            inside = True
        else:
            lo = mid
    return _collapse(state, table, M, coeff, p, None), None, trace


def measure_exhaustive(state, table, randomness):
    """Walk the subspaces in canonical order with one binary measurement
    each; collapse and stop at the first outcome 1. All-zero outcomes leave
    the state in the orthogonal complement and report no syndrome.

    Returns (collapsed_state, syndrome_pattern_or_None, outcome_trace).
    """
    return _walk(state, table, randomness, dyadic=False)


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
    return _walk(state, table, randomness, dyadic=True)


def _check_compatible(state, table):
    if state.qubit_count != table.code.n:
        raise ValueError("state has %d qubits but the table's code has %d"
                         % (state.qubit_count, table.code.n))


_MEASURERS = {"exhaustive": measure_exhaustive,
              "hierarchical": measure_hierarchical}


# -- exact outcome distributions ------------------------------------------------

def syndrome_distribution(state, table, strategy="exhaustive"):
    """Exact outcome probabilities of a full measurement walk (no sampling).

    Returns (labels, probs): labels are the canonical pattern texts plus a
    final "none" entry; probs[i] is the probability that the walk ends in
    subspace i (or, for the last entry, in the complement). These are the
    syndrome probabilities p_i = ||coeff_i||^2 and the complement's
    remaining mass, which both strategies sample, so the two strategies
    give the same distribution.
    """
    if strategy not in _MEASURERS:
        raise ValueError("unknown strategy %r" % strategy)
    _, _, p, p_none = _coordinates(state, table)
    labels = [pat.text() for pat in table.patterns] + ["none"]
    return labels, np.append(p, p_none)


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

    def to_dict(self, include_state=True):
        out = {
            "syndrome": self.syndrome.text() if self.syndrome else None,
            "outcome_trace": [[label, outcome]
                              for label, outcome in self.outcome_trace],
            "fidelity": self.fidelity,
            "disentangled": self.disentangled,
            "corrected": self.corrected,
        }
        if include_state:
            out["recovered_state"] = state_to_dict(self.recovered_state)
        return out

    def __repr__(self):
        return ("DecodeReport(syndrome=%s, fidelity=%.9f, disentangled=%s, "
                "corrected=%s)" % (self.syndrome.text() if self.syndrome
                                   else "none", self.fidelity,
                                   self.disentangled, self.corrected))


def correct(state, code, t, strategy, randomness, reference,
            pattern_filter="all", table=None):
    """Measure, recover, verify: the full decode pass.

    strategy is "exhaustive" or "hierarchical"; randomness supplies one
    uniform deviate per binary measurement; reference is the system-only
    state the fidelity is measured against (normally the uncorrupted encoded
    block). A prebuilt SyndromeTable for (code, t, pattern_filter) can be
    passed to skip rebuilding in tight loops.
    """
    if table is None:
        table = build_syndrome_table(code, t, pattern_filter)
    elif (table.code is not code
          and not np.array_equal(table.code.matrix(), code.matrix())):
        raise ValueError("table was built for another code (%r)"
                         % table.code.name)
    try:
        measurer = _MEASURERS[strategy]
    except KeyError:
        raise ValueError("unknown strategy %r (choose from %s)"
                         % (strategy, ", ".join(sorted(_MEASURERS))))
    collapsed, syndrome, trace = measurer(state, table, randomness)
    recovered = recover(collapsed, syndrome) if syndrome else collapsed
    fidelity = fidelity_against(recovered, reference)
    max_schmidt, _ = schmidt_diagnostics(recovered)
    return DecodeReport(
        syndrome=syndrome,
        outcome_trace=trace,
        recovered_state=recovered,
        fidelity=fidelity,
        disentangled=bool(max_schmidt >= 1.0 - TOL_NORM),
        corrected=syndrome is not None,
    )
