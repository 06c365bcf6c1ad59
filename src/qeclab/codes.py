"""Quantum codes: representation, correctability criteria, encoding, catalogue.

A code is 2^l orthonormal vectors |C^k> in the 2^n-dimensional block space.
The three checkers verify, with exact enumeration over error patterns:

* amplitude condition   <C^k| A_a A_a' |C^m>       = d_km d_aa'
* phase condition       <C^k| P_b P_b' |C^m>       = d_km d_bb'
* general condition     <C^k| P_b A_a A_a' P_b' |C^m> = d_km d_aa' d_bb'

over patterns touching at most t qubits. Passing the general condition means
the images {A_a P_b |C^k>} form an orthonormal family, which is exactly what
projective syndrome decoding needs; the amplitude and phase conditions are
its two axis-aligned special cases.

The built-in catalogue ships four codes as literal dyadic amplitude data:

* ``phase3``   n=3, l=1 -- corrects one phase error (not amplitude errors)
* ``shor9``    n=9, l=1 -- distance-3 code, corrects any one-qubit error,
               all 56 syndrome vectors orthonormal
* ``perfect5`` n=5, l=1 -- the five-qubit code; its 32 syndrome vectors fill
               the whole block space (packing-bound equality)
* ``trivial1`` n=1, l=1 -- identity encoding, corrects nothing
"""

from __future__ import annotations

import json
import math
import os
from importlib import resources

import numpy as np

from .bitstrings import BitString
from .bounds import sphere_volume
from .errors import ErrorPattern, apply_phase, \
    enumerate_bitstrings_by_weight, enumerate_patterns
from .statespace import DIM_CAP, TOL_NORM, FactorLayout, PureState

CHECK_TOL = 1e-9
_VIOLATION_CAP = 64

#: Most entries a Gram check may hold in one array: R x 2^n pattern images
#: and their R x R Gram matrix, R image rows. 2^26 complex entries take
#: 1 GiB; shor9 at t = 3 (5240 rows) fits, at t = 4 (25652 rows) it does not.
GRAM_MAX_ENTRIES = 1 << 26

BUILTIN_CODES = ("phase3", "shor9", "perfect5", "trivial1")

#: expected checker verdicts for the built-in codes:
#: name -> list of (condition, t, passes)
CATALOGUE_EXPECTATIONS = {
    "phase3": [
        ("amplitude", 1, False),
        ("phase", 1, True),
        ("general", 1, False),
        ("phase", 3, False),
    ],
    "shor9": [
        ("amplitude", 1, True),
        ("phase", 1, True),
        ("general", 1, True),
        ("general", 2, False),
    ],
    "perfect5": [
        ("amplitude", 1, True),
        ("phase", 1, True),
        ("general", 1, True),
        ("general", 2, False),
    ],
    "trivial1": [
        ("amplitude", 0, True),
        ("phase", 0, True),
        ("general", 0, True),
        ("amplitude", 1, False),
        ("phase", 1, False),
        ("general", 1, False),
    ],
}


class QuantumCode:
    """n physical qubits, l logical qubits, claimed correctable weight t,
    and 2^l orthonormal code-vectors over the system-only layout."""

    __slots__ = ("name", "n", "l", "claimed_t", "vectors", "_mat")

    def __init__(self, name, n, l, claimed_t, vectors):
        vectors = tuple(vectors)
        if claimed_t < 0:
            raise ValueError("claimed_t must be >= 0")
        if l > n:
            raise ValueError("more logical than physical qubits")
        if len(vectors) != 1 << l:
            raise ValueError("need exactly 2^l = %d code-vectors, got %d"
                             % (1 << l, len(vectors)))
        for v in vectors:
            if v.qubit_count != n or not v.layout.is_system_only():
                raise ValueError("code-vectors must be system-only states "
                                 "on %d qubits" % n)
        mat = np.stack([v.amps.ravel() for v in vectors])
        gram = mat.conj() @ mat.T
        dev = np.max(np.abs(gram - np.eye(len(vectors))))
        if dev > TOL_NORM:
            raise ValueError("code-vectors not orthonormal "
                             "(worst deviation %.3e)" % dev)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "claimed_t", claimed_t)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_mat", mat)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumCode is immutable")

    def matrix(self):
        """Code-vectors as rows, shape (2^l, 2^n)."""
        return self._mat

    def __repr__(self):
        return ("QuantumCode(%r, n=%d, l=%d, t=%d)"
                % (self.name, self.n, self.l, self.claimed_t))


class ConditionReport:
    """Outcome of one correctability check.

    violations holds (k, m, pattern, pattern', inner_product) rows for every
    entry of the pattern-image Gram matrix off by more than 1e-9 from the
    Kronecker-delta target (the list is capped; violation_count and worst
    always reflect the full matrix). passed iff violations is empty.
    """

    def __init__(self, condition, t, violations, violation_count, worst):
        self.condition = condition
        self.t = t
        self.violations = violations
        self.violation_count = violation_count
        self.worst = worst
        self.passed = violation_count == 0

    def to_dict(self):
        return {
            "condition": self.condition,
            "t": self.t,
            "passed": self.passed,
            "worst_deviation": self.worst,
            "violation_count": self.violation_count,
            "violations": [
                {"k": k, "l": m, "pattern": p.text(), "pattern2": q.text(),
                 "re": val.real, "im": val.imag}
                for (k, m, p, q, val) in self.violations
            ],
        }

    def __repr__(self):
        status = "PASS" if self.passed else "FAIL"
        return ("ConditionReport(%s, t=%d: %s, worst=%.3e, %d violations)"
                % (self.condition, self.t, status, self.worst,
                   self.violation_count))


class ConditionError(Exception):
    """Raised when an operation requires a correctability condition that the
    code does not satisfy; carries the failing ConditionReport."""

    def __init__(self, report):
        super().__init__(repr(report))
        self.report = report


def condition_patterns(n, t, condition):
    """The patterns a condition ranges over at weight t, canonically ordered:
    amplitude-only, phase-only, or (general) all of union weight <= t."""
    if condition == "general":
        return enumerate_patterns(n, t)
    zeros = BitString.zeros(n)
    parts = enumerate_bitstrings_by_weight(n, t)
    if condition == "phase":
        return [ErrorPattern(zeros, b) for b in parts]
    return [ErrorPattern(a, zeros) for a in parts]


def pattern_images(code, patterns):
    """Stacked {A_a P_b |C^k>} rows, pattern-major then k; shape
    (len(patterns) * 2^l, 2^n).

    Entry v of A_a P_b |C> is (-1)^(b.(v+a)) C[v+a], so every image is one
    gather of the code matrix at v+a, then -- for patterns with a phase
    part, exactly as apply_pattern does -- a product with its signs.
    """
    a = np.array([p.alpha.to_index() for p in patterns], dtype=np.intp)
    b = np.array([p.beta.to_index() for p in patterns], dtype=np.intp)
    idx = np.arange(1 << code.n) ^ a[:, np.newaxis]
    C = code.matrix()
    rows = C[np.arange(len(C))[:, np.newaxis], idx[:, np.newaxis, :]]
    signed = b != 0
    signs = 1.0 - 2.0 * (np.bitwise_count(idx[signed]
                                          & b[signed, np.newaxis]) & 1)
    rows[signed] *= signs[:, np.newaxis, :]
    return rows.reshape(-1, C.shape[1])


def _gram_check(code, condition, t):
    """Check one condition at weight t from the Gram matrix of its pattern
    images: (ConditionReport, patterns, images)."""
    if not 0 <= t <= code.n:
        raise ValueError("t = %d lies outside [0, n = %d]" % (t, code.n))
    # image rows, counted before any pattern is enumerated
    R = (sphere_volume(code.n, t) if condition == "general" else
         sum(math.comb(code.n, i) for i in range(t + 1))) << code.l
    if R * max(R, 1 << code.n) > GRAM_MAX_ENTRIES:
        raise ValueError("the %s condition at t = %d has %d pattern images "
                         "of 2^%d amplitudes; their Gram check would exceed "
                         "the cap of %d entries"
                         % (condition, t, R, code.n, GRAM_MAX_ENTRIES))
    patterns = condition_patterns(code.n, t, condition)
    K = 1 << code.l
    B = pattern_images(code, patterns)
    G = B.conj() @ B.T
    diagonal = G.diagonal().copy()  # the Gram entries the violations report
    G.flat[::len(B) + 1] -= 1  # G - I, in place
    dev = np.abs(G)
    worst = float(dev.max()) if len(B) else 0.0
    bad = np.argwhere(dev > CHECK_TOL)
    violations = []
    for i, j in bad[:_VIOLATION_CAP]:
        violations.append((int(i % K), int(j % K),
                           patterns[i // K], patterns[j // K],
                           complex(diagonal[i] if i == j else G[i, j])))
    return (ConditionReport(condition, t, violations, len(bad), worst),
            patterns, B)


def check_amplitude_condition(code, t):
    """Can the code tell apart (and undo) any <=t bit-flip pattern?"""
    return _gram_check(code, "amplitude", t)[0]


def check_phase_condition(code, t):
    """Can the code tell apart (and undo) any <=t sign-flip pattern?"""
    return _gram_check(code, "phase", t)[0]


def check_general_condition(code, t):
    """Combined criterion over all patterns touching <= t qubits; subsumes
    the amplitude and phase conditions."""
    return _gram_check(code, "general", t)[0]


_CHECKERS = {
    "amplitude": check_amplitude_condition,
    "phase": check_phase_condition,
    "general": check_general_condition,
}


def run_checker(code, condition, t):
    try:
        fn = _CHECKERS[condition]
    except KeyError:
        raise ValueError("unknown condition %r (choose from %s)"
                         % (condition, ", ".join(sorted(_CHECKERS))))
    return fn(code, t)


# -- encoding ---------------------------------------------------------------

def synthesize_encoder(code):
    """A 2^n-dimensional unitary U with U(|k> (x) |0...0>) = |C^k>.

    The l data qubits occupy the leading positions and the n-l ancillas are
    zero, so the designated input columns are k * 2^(n-l). The remaining
    columns are completed by Gram-Schmidt over the canonical basis in index
    order (numerically dependent candidates skipped at threshold 1e-9).
    """
    n, l = code.n, code.l
    dim = 1 << n
    U = np.zeros((dim, dim), dtype=np.complex128)
    placed = []
    designated = [k << (n - l) for k in range(1 << l)]
    for k, col in enumerate(designated):
        U[:, col] = code.vectors[k].amps.ravel()
        placed.append(U[:, col])
    free_cols = [c for c in range(dim) if c not in set(designated)]
    basis_iter = iter(range(dim))
    P = np.stack(placed)  # rows are the placed columns
    for col in free_cols:
        while True:
            try:
                j = next(basis_iter)
            except StopIteration:  # pragma: no cover - impossible for valid codes
                raise AssertionError("ran out of basis candidates while "
                                     "completing the encoder")
            cand = np.zeros(dim, dtype=np.complex128)
            cand[j] = 1.0
            cand -= P.T @ (P.conj() @ cand)
            nrm = np.linalg.norm(cand)
            if nrm > TOL_NORM:
                cand /= nrm
                break
        U[:, col] = cand
        P = np.vstack([P, cand])
    dev = np.max(np.abs(U.conj().T @ U - np.eye(dim)))
    assert dev < TOL_NORM, "encoder completion lost unitarity (%.3e)" % dev
    return U


def encode_stack(code, logical):
    """Encode a stack of logical amplitude rows: row i of logical (g x 2^l)
    becomes sum_k logical[i, k] |C^k>; returns g x 2^n. Each row is its own
    fixed-shape product, so it does not depend on the other rows."""
    return np.matmul(logical[:, np.newaxis, :], code.matrix())[:, 0]


def encode(code, logical):
    """Map a normalized l-qubit state sum c_k |k> to sum c_k |C^k>."""
    if not isinstance(logical, PureState):
        logical = PureState.from_amplitudes(code.l, logical)
    if logical.qubit_count != code.l or not logical.layout.is_system_only():
        raise ValueError("logical state must be a system-only state on "
                         "%d qubit(s)" % code.l)
    out = encode_stack(code, logical.amps.reshape(1, -1))[0]
    return PureState._trusted(FactorLayout(code.n), out,
                              normalized=logical.is_normalized)


def extract_component(code_vector, affected, gamma):
    """The piece of a block vector whose `affected`-qubit bits equal gamma.

    Computed as the phase-projector combination
    2^-m * sum_b (-1)^(gamma.b) P_b |C>, with b ranging over all patterns
    supported inside `affected` (m = |affected|); this equals filtering the
    basis expansion by the prefix gamma. Returned unnormalized; summing over
    all gamma reassembles the input.
    """
    affected = list(affected)
    if not isinstance(gamma, BitString):
        gamma = BitString.from_text(gamma)
    if len(affected) != len(gamma):
        raise ValueError("|affected| = %d but gamma has length %d"
                         % (len(affected), len(gamma)))
    n = code_vector.qubit_count
    if any(not 0 <= q < n for q in affected):
        raise ValueError("affected positions out of range")
    if len(set(affected)) != len(affected):
        raise ValueError("affected positions repeat")
    m = len(affected)
    acc = np.zeros_like(code_vector.amps)
    for mask in range(1 << m):
        bits = [0] * n
        sign_exp = 0
        for j in range(m):
            bit = (mask >> j) & 1
            bits[affected[j]] = bit
            sign_exp ^= bit & gamma[j]
        term = apply_phase(BitString(bits), code_vector).amps
        acc = acc + ((-1.0) ** sign_exp) * term
    acc /= float(1 << m)
    return PureState(code_vector.layout, acc, normalized=False)


# -- code files and catalogue -------------------------------------------------

def code_to_dict(code):
    vectors = []
    for v in code.vectors:
        entries = []
        flat = v.amps.ravel()
        for idx in np.nonzero(np.abs(flat) > 0)[0]:
            a = complex(flat[idx])
            entries.append({"basis": repr(BitString.from_index(int(idx), code.n)),
                            "re": a.real, "im": a.imag})
        vectors.append(entries)
    return {"name": code.name, "n": code.n, "l": code.l,
            "t": code.claimed_t, "vectors": vectors}


def code_from_dict(data):
    try:
        name = data["name"]
        n = int(data["n"])
        l = int(data["l"])
        t = int(data["t"])
        raw_vectors = data["vectors"]
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed code file: %s" % exc)
    if not 0 <= n or (1 << n) > DIM_CAP:
        raise ValueError("malformed code file: %d qubits" % n)
    vectors = []
    try:
        for entries in raw_vectors:
            vec = np.zeros(1 << n, dtype=np.complex128)
            for entry in entries:
                v = BitString.from_text(entry["basis"])
                if len(v) != n:
                    raise ValueError("basis label %r has wrong length"
                                     % entry["basis"])
                vec[v.to_index()] = (entry.get("re", 0.0)
                                     + 1j * entry.get("im", 0.0))
            vectors.append(PureState.from_amplitudes(n, vec))
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed code file: %s" % exc)
    return QuantumCode(name, n, l, t, vectors)


def save_code(code, path):
    with open(path, "w") as fh:
        json.dump(code_to_dict(code), fh, indent=1)


def _load_builtin(name):
    ref = resources.files("qeclab").joinpath("data", name + ".json")
    with ref.open() as fh:
        return code_from_dict(json.load(fh))


def load_code(ref):
    """Load a code by catalogue name or JSON file path."""
    if isinstance(ref, QuantumCode):
        return ref
    if ref in BUILTIN_CODES:
        return _load_builtin(ref)
    if os.path.exists(ref):
        with open(ref) as fh:
            return code_from_dict(json.load(fh))
    raise ValueError("unknown code %r: not a catalogue name (%s) "
                     "and no such file" % (ref, ", ".join(BUILTIN_CODES)))


def catalogue():
    """The built-in codes, each shipped as literal dyadic amplitude data."""
    return [_load_builtin(name) for name in BUILTIN_CODES]
