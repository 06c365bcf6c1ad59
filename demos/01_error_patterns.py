"""Amplitude and phase error patterns on a block of qubits.

An amplitude pattern A(alpha) flips the bits marked by alpha; a phase
pattern P(beta) attaches (-1)^(beta . v) to each basis ket |v>. This script
walks through both on concrete kets and shows the algebra that makes the
composite patterns A(alpha)P(beta) a useful error basis.
"""

import numpy as np

from qeclab import (
    BitString,
    ErrorPattern,
    PureState,
    apply_amplitude,
    apply_pattern,
    apply_phase,
    condition_patterns,
)


def show(label, state):
    kets = []
    amps = state.amps.ravel()
    n = state.qubit_count
    for i in np.flatnonzero(np.abs(amps) > 1e-12):
        kets.append("%+.3f |%s>" % (amps[i].real, format(i, "0%db" % n)))
    print("%-26s %s" % (label, "  ".join(kets)))


print("== single patterns on a worked example ==")
alpha = beta = BitString.from_text("(001010)")
ket = PureState.basis_state("(110111)")
show("input |110111>", ket)
show("A(001010) flips bits 2,4", apply_amplitude(alpha, ket))
show("P(001010) counts overlap", apply_phase(beta, ket))
print("beta . v =", beta.dot(BitString.from_text("(110111)")), "(odd, so the sign flips)")
print()

print("== composites act phase-first ==")
pat = ErrorPattern.from_text("A(110)P(011)")
for text in ["(000)", "(101)", "(011)"]:
    v = BitString.from_text(text)
    show("A(110)P(011) |%s>" % v, apply_pattern(pat, PureState.basis_state(v)))
print()

print("== commutation: P A = (-1)^(alpha . beta) A P ==")
rng = np.random.default_rng(0)
state = PureState.from_amplitudes(3, rng.normal(size=8) + 1j * rng.normal(size=8),
                                  normalized=False)
for a_text, b_text in [("(100)", "(010)"), ("(110)", "(010)"), ("(111)", "(011)")]:
    a, b = BitString.from_text(a_text), BitString.from_text(b_text)
    ap = apply_amplitude(a, apply_phase(b, state))
    pa = apply_phase(b, apply_amplitude(a, state))
    sign = (-1) ** a.dot(b)
    agree = np.allclose(pa.amps, sign * ap.amps)
    print("alpha=%s beta=%s  alpha.beta=%d  sign %+d  verified %s"
          % (a, b, a.dot(b), sign, agree))
print()

print("== the 4^n patterns form an orthogonal operator basis ==")
pats = condition_patterns(2, 2, "general")
print("all %d patterns on two qubits, in canonical order:" % len(pats))
print("  " + ", ".join(p.text() for p in pats))


def dense(pattern):
    cols = []
    for i in range(4):
        ket = PureState.basis_state(BitString.from_index(i, 2))
        cols.append(apply_pattern(pattern, ket).amps.ravel())
    return np.stack(cols, axis=1)


mats = [dense(p) for p in pats]
hs = np.array([[np.trace(x.conj().T @ y) / 4 for y in mats] for x in mats])
print("Hilbert-Schmidt Gram matrix tr(E_i^dagger E_j)/4 equals the identity:",
      np.allclose(hs, np.eye(16)))
probe = PureState.from_amplitudes(2, [0.5, 0.5, 0.5, 0.5])
print("and every pattern image of a state stays normalized:",
      np.allclose([apply_pattern(p, probe).norm() for p in pats], 1.0))
