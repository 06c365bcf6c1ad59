"""Quantum codes: representation, correctability criteria, encoding, catalogue.

A code is 2^l orthonormal vectors |C^k> in the 2^n-dimensional block space.
run_checker verifies one of three conditions, with exact enumeration over
error patterns:

* amplitude condition   <C^k| A_a A_a' |C^m>       = d_km d_aa'
* phase condition       <C^k| P_b P_b' |C^m>       = d_km d_bb'
* general condition     <C^k| P_b A_a A_a' P_b' |C^m> = d_km d_aa' d_bb'

over patterns touching at most t qubits. Passing the general condition means
the images {A_a P_b |C^k>} form an orthonormal family, which is exactly what
projective syndrome decoding needs; the amplitude and phase conditions are
its two axis-aligned special cases.

A check has R = 2^l V_t images, V_t the patterns it ranges over, and the
quantum Hamming bound R <= 2^n decides how it is computed:

* within the bound, from the R x R Gram matrix of the images, which a
  passing check's syndrome table then takes as its bases;
* past it, where R orthonormal images cannot fit into 2^n dimensions and
  the check fails, from the overlaps <C^j|E|C^k> over the products E of
  two patterns, the patterns of union weight <= 2t (the Knill-Laflamme form
  of the same criterion). One Walsh-Hadamard transform per amplitude part
  of E gives every phase part at once (under the amplitude condition, one
  per pair of code-vectors gives every amplitude part), and no image is
  built. The report, its capped violation list included, is the one the
  Gram matrix gives.

A check whose images, or overlaps past the bound, would number more than
GRAM_MAX_ENTRIES = 2^26 is refused with ValueError before it enumerates a
pattern. shor9's general check is past the bound from t = 2 on: `verify`
takes about 30 ms at t = 3 (5240 image rows, about 1.6 s through the Gram
matrix) and 30-40 ms at t = 4 (25652 rows, a 9.8 GiB Gram matrix) on a
2-vCPU Xeon VM.

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
from .errors import (PAULI_CHOICES, ErrorPattern, key_indices, parity_signs,
                     pattern_keys)
from .statespace import DIM_CAP, TOL_NORM, FactorLayout, PureState

CHECK_TOL = 1e-9
_VIOLATION_CAP = 64

#: Most entries a check may compute: the R x 2^n pattern images of a check
#: within the quantum Hamming bound (R <= 2^n, so their Gram matrix is no
#: larger), or the overlaps <C^j|E|C^k> of one past it. 2^26 complex entries
#: take 1 GiB.
GRAM_MAX_ENTRIES = 1 << 26

#: condition -> per affected qubit, the (alpha_i, beta_i) choices of its
#: patterns
_CHOICES = {"general": PAULI_CHOICES, "phase": ((0, 1),),
            "amplitude": ((1, 0),)}

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


def _report(condition, t, keys, n, rows, count, worst):
    """The ConditionReport of a check whose first violating Gram entries
    are given as (P, k, Q, m, value) rows, P and Q indexing keys: one
    ErrorPattern per distinct pattern among them."""
    used = {i for P, _, Q, _, _ in rows for i in (P, Q)}
    patterns = {i: ErrorPattern.from_key(keys[i], n) for i in used}
    return ConditionReport(condition, t, [
        (k, m, patterns[P], patterns[Q], value)
        for P, k, Q, m, value in rows], count, worst)


def condition_patterns(n, t, condition):
    """The patterns a condition ranges over at weight t, canonically ordered:
    amplitude-only, phase-only, or (general) all of union weight <= t."""
    return [ErrorPattern.from_key(key, n)
            for key in pattern_keys(n, t, _CHOICES[condition]).tolist()]


def pattern_images(code, keys):
    """Stacked {A_a P_b |C^k>} rows of the patterns with the given canonical
    keys, pattern-major then k; shape (len(keys) * 2^l, 2^n).

    Entry v of A_a P_b |C> is (-1)^(b.(v+a)) C[v+a], so every image is one
    gather of the code matrix at v+a, then -- for patterns with a phase
    part, exactly as apply_pattern does -- a product with its signs.
    """
    a, b = key_indices(np.asarray(keys, dtype=np.int64), code.n)
    idx = np.arange(1 << code.n) ^ a[:, np.newaxis]
    C = code.matrix()
    rows = C[np.arange(len(C))[:, np.newaxis], idx[:, np.newaxis, :]]
    signed = b != 0
    rows[signed] *= parity_signs(idx[signed],
                                 b[signed, np.newaxis])[:, np.newaxis, :]
    return rows.reshape(-1, C.shape[1])


def product_pairs(n, t, condition):
    """pairs[w]: the ordered pairs (P, Q) of patterns the condition ranges
    over at weight t whose product A_(a_P+a_Q) P_(b_P+b_Q) is one given
    pattern E of union weight w, for w = 0 .. min(2t, n).

    On a qubit E affects, P alone, Q alone, or both act (both in q - 1 ways,
    q the choices per affected qubit: 3 general, 1 otherwise); on m of the
    n - w others both act alike, in q^m ways. P and Q each affect at most t
    qubits.
    """
    q = len(_CHOICES[condition])
    pairs = []
    for w in range(min(2 * t, n) + 1):
        total = 0
        for both in range(w + 1):
            for only_p in range(w - both + 1):
                spare = t - both - max(only_p, w - both - only_p)
                total += (math.comb(w, both) * math.comb(w - both, only_p)
                          * (q - 1) ** both
                          * sum(math.comb(n - w, m) * q ** m
                                for m in range(min(spare, n - w) + 1)))
        pairs.append(total)
    return pairs


def _sylvester(N):
    """The N x N Walsh-Hadamard matrix H[d, u] = (-1)^(d.u), N = 2^m."""
    u = np.arange(N)
    return parity_signs(u[:, np.newaxis], u)


def _walsh_hadamard(F):
    """sum_u (-1)^(d.u) F[..., u] for every d along the last axis, of length
    2^m, as two real products: u = u1 2^(m//2) + u2, and the sign splits
    into a u2 part and a u1 part."""
    shape, dtype = F.shape, F.dtype
    m = shape[-1].bit_length() - 1
    N1, H2 = 1 << (m - m // 2), _sylvester(1 << m // 2)
    if np.iscomplexobj(F):  # real and imaginary parts side by side
        F, H2 = F.view(np.float64), np.kron(H2, np.eye(2))
    X = F.reshape(-1, len(H2)) @ H2
    X = np.matmul(_sylvester(N1), X.reshape(-1, N1, len(H2)))
    return X.reshape(-1).view(dtype).reshape(shape)


def _refuse_over_cap(entries, what, condition, t):
    if entries > GRAM_MAX_ENTRIES:
        raise ValueError("the %s condition at t = %d needs %s, over the "
                         "cap of %d entries"
                         % (condition, t, what, GRAM_MAX_ENTRIES))


def _ball_report(code, condition, t):
    """The report of a check with more image rows than amplitudes, from the
    overlaps T[E]_jk = <C^j|E|C^k> over the products E = P Q of its
    patterns, which are the patterns of union weight <= 2t (Knill and
    Laflamme, PRA 55, 900, 1997), without any image or Gram matrix.

    Gram entry ((P, j), (Q, k)) is (-1)^(b_Q.c) T[c, d, j, k] for E = (c, d)
    = (a_P + a_Q, b_P + b_Q), and its target is delta_E,I delta_jk. So the
    worst deviation is the ball's, the violation count weighs each E by
    product_pairs, and the first _VIOLATION_CAP violations come from walking
    the Gram's rows (P, j) in order through T.
    """
    n, w2 = code.n, min(2 * t, code.n)
    N, K = 1 << n, 1 << code.l
    u = np.arange(N)
    # amplitude parts c and phase parts d of the ball's products
    cs = u[:1] if condition == "phase" else u[np.bitwise_count(u) <= w2]
    ds = u[:1] if condition == "amplitude" else u
    overlaps = len(cs) * len(ds) * K * K
    _refuse_over_cap(overlaps, "%d overlaps <C^j|E|C^k> over its 2t-ball"
                     % overlaps, condition, t)
    C = code.matrix()
    if not C.imag.any():  # a real code's overlaps are real: half the work
        C = C.real
    worst = 0.0
    per_weight = np.zeros(n + 1)  # violating (E, j, k) by the weight of E
    found = []  # per chunk: violating (c, d), and (k, j) violations at each
    if condition == "amplitude":
        # T[k, i, j, 0] = sum_u conj(C^j[u]) C^k[u + c_i] for every c_i at
        # once, one k at a time: the transform of a product of transforms
        H = _walsh_hadamard(C)
        amplitude_T = np.stack([_walsh_hadamard(H[k] * H.conj())[:, cs]
                                for k in range(K)]) / N
        amplitude_T = amplitude_T.transpose(0, 2, 1)[..., np.newaxis]
    step = max(1, (1 << 16) // (len(ds) * K * K))  # c values per chunk
    for lo in range(0, len(cs), step):
        c = cs[lo:lo + step]
        if condition == "amplitude":
            T = amplitude_T[:, lo:lo + step]
        else:
            # F[k, i, j, u] = conj(C^j[u]) C^k[u + c_i]; T[k, i, j, d] sums
            # it against (-1)^(d.u)
            F = (np.take(C, u ^ c[:, np.newaxis], axis=1)[:, :, np.newaxis]
                 * C.conj())
            T = _walsh_hadamard(F)
        dev = np.abs(T)
        if lo == 0:  # E = I, where <C^j|C^k> should be delta_jk
            j = np.arange(K)
            dev[j, 0, j, 0] = np.abs(T[j, 0, j, 0] - 1)
        weight = np.bitwise_count(c[:, np.newaxis] | ds)
        inside = weight <= w2
        worst = max(worst, float(dev.max(axis=(0, 2))[inside].max()))
        bad = dev > CHECK_TOL
        counts = np.where(inside, np.count_nonzero(bad, axis=(0, 2)), 0)
        per_weight += np.bincount(weight.ravel(), counts.ravel(), n + 1)
        ci, di = np.nonzero(counts)
        found.append((c[ci], ds[di], bad[:, ci, :, di], T[:, ci, :, di]))
    count = sum(pairs * int(k) for pairs, k
                in zip(product_pairs(n, t, condition), per_weight))

    # walk the rows P in order along the violating products E = (pc, pd)
    pc, pd, product_bad, product_T = map(np.concatenate, zip(*found))
    keys = pattern_keys(n, t, _CHOICES[condition])
    beta = key_indices(keys, n)[1]
    reverse = key_indices(u, n)[0]  # basis index <-> key bits
    product_keys = reverse[pc] | (reverse[pd] << n)
    rows = []  # (P, j, Q, k, Gram entry) in the Gram's row-major order
    # rows P per chunk, for about 2^16 entries in product_bad[e]
    chunk = max(1, (1 << 16) // max(len(product_keys) * K * K, 1))
    for start in range(0, len(keys), chunk):
        P = np.arange(start, min(start + chunk, len(keys)))
        q_keys = keys[P, np.newaxis] ^ product_keys
        Q = np.minimum(np.searchsorted(keys, q_keys), len(keys) - 1)
        p, e = np.nonzero(keys[Q] == q_keys)
        h, k, j = np.nonzero(product_bad[e])
        P_h, Q_h, E_h = P[p[h]], Q[p[h], e[h]], e[h]
        first = np.lexsort((k, Q_h, j, P_h))[:_VIOLATION_CAP - len(rows)]
        P_h, j, Q_h, k, E_h = (a[first] for a in (P_h, j, Q_h, k, E_h))
        value = product_T[E_h, k, j]
        value = np.where(np.bitwise_count(beta[Q_h] & pc[E_h]) & 1, -value,
                         value)
        # positive zeros, as a Gram product of real images gives them
        rows.extend(zip(P_h.tolist(), j.tolist(), Q_h.tolist(), k.tolist(),
                        (value + 0.0).astype(complex).tolist()))
        if len(rows) == _VIOLATION_CAP:
            break
    return _report(condition, t, keys, n, rows, count, worst)


def _gram_check(code, condition, t):
    """Check one condition at weight t: (ConditionReport, keys, images).

    A check with more image rows R = 2^l V_t than amplitudes 2^n breaks the
    quantum Hamming bound and cannot pass: its report comes from the 2t-ball
    (_ball_report), and keys and images are None. Any other check builds
    the images of its patterns' canonical keys and their Gram matrix, and a
    passing one's syndrome table takes both as they are.
    """
    if not 0 <= t <= code.n:
        raise ValueError("t = %d lies outside [0, n = %d]" % (t, code.n))
    # image rows, counted before any pattern is enumerated
    R = (sphere_volume(code.n, t) if condition == "general" else
         sum(math.comb(code.n, i) for i in range(t + 1))) << code.l
    if R > 1 << code.n:
        return _ball_report(code, condition, t), None, None
    _refuse_over_cap(R << code.n, "%d pattern images of 2^%d amplitudes "
                     "and their Gram matrix" % (R, code.n), condition, t)
    keys = pattern_keys(code.n, t, _CHOICES[condition])
    K = 1 << code.l
    B = pattern_images(code, keys)
    G = B.conj() @ B.T
    diagonal = G.diagonal().copy()  # the Gram entries the violations report
    G.flat[::len(B) + 1] -= 1  # G - I, in place
    dev = np.abs(G)
    worst = float(dev.max()) if len(B) else 0.0
    bad = np.argwhere(dev > CHECK_TOL)
    rows = [(i // K, i % K, j // K, j % K,
             complex(diagonal[i] if i == j else G[i, j]))
            for i, j in bad[:_VIOLATION_CAP].tolist()]
    return (_report(condition, t, keys, code.n, rows, len(bad), worst),
            keys, B)


def run_checker(code, condition, t):
    """Check one condition at weight t: its ConditionReport."""
    if condition not in _CHOICES:
        raise ValueError("unknown condition %r (choose from %s)"
                         % (condition, ", ".join(sorted(_CHOICES))))
    return _gram_check(code, condition, t)[0]


# -- encoding ---------------------------------------------------------------

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
    return PureState._trusted(FactorLayout(code.n), out)


# -- code files and catalogue -------------------------------------------------

#: the JSON kinds a file's fields are checked for, as json reads them
_JSON_KINDS = {"an integer": int, "a number": (int, float), "a string": str}


def json_value(value, what, kind):
    """value if json reads it as `kind`, a key of _JSON_KINDS, else
    TypeError; true and false are neither integers nor numbers."""
    if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[kind]):
        raise TypeError("%s must be %s, not %r" % (what, kind, value))
    return value


def code_from_dict(data):
    """The QuantumCode a parsed code file describes; ValueError, prefixed
    "malformed code file:", for any reason it describes none."""
    try:
        return _code_from_dict(data)
    except (KeyError, TypeError, OverflowError, ValueError) as exc:
        raise ValueError("malformed code file: %s" % exc)


def _code_from_dict(data):
    name = json_value(data["name"], "name", "a string")
    n, l, t = (json_value(data[field], field, "an integer")
               for field in ("n", "l", "t"))
    raw_vectors = data["vectors"]
    # compared before any shift: 1 << n is 2^n bits of memory
    if not 0 <= n < DIM_CAP.bit_length():
        raise ValueError("%d qubits" % n)
    if l < 0:
        raise ValueError("l = %d is negative" % l)
    vectors = []
    for entries in raw_vectors:
        vec = np.zeros(1 << n, dtype=np.complex128)
        seen = set()
        for entry in entries:
            label = json_value(entry["basis"], "basis", "a string")
            v = BitString.from_text(label)
            if len(v) != n:
                raise ValueError("basis label %r has wrong length" % label)
            if v in seen:
                raise ValueError("basis label %r repeats" % v)
            seen.add(v)
            vec[v.to_index()] = (
                json_value(entry.get("re", 0.0), "re", "a number")
                + 1j * json_value(entry.get("im", 0.0), "im", "a number"))
        vectors.append(PureState.from_amplitudes(n, vec))
    return QuantumCode(name, n, l, t, vectors)


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
