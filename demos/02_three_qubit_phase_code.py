"""The three-qubit phase code, from encoding to recovery.

One logical qubit spreads over three physical qubits so that a phase flip
on any single position can be detected and undone. Decoherence -- each bit
value tagging the environment -- is exactly as damaging as a random phase
flip, so the same projective procedure disentangles the block again.
"""

import numpy as np

from qeclab import (
    apply_channel,
    build_syndrome_table,
    correct,
    encode,
    fidelity_against,
    load_code,
    make_decoherence,
    schmidt_diagnostics,
    syndrome_distribution,
    trial_generator,
)

code = load_code("phase3")
print("code:", code.name, "n=%d l=%d" % (code.n, code.l))
for k, vec in enumerate(code.vectors):
    kets = ["|%s>" % format(i, "03b")
            for i in np.flatnonzero(np.abs(vec.amps) > 1e-12)]
    print("  C^%d = (%s)/2" % (k, " + ".join(kets)))

c0, c1 = 0.6, 0.8
reference = encode(code, np.array([c0, c1]))
print("\nlogical %.1f|0> + %.1f|1> encoded into the block" % (c0, c1))

table = build_syndrome_table(code, 1, pattern_filter="phase-only")
print("syndrome subspaces:", ", ".join(table.labels))
print("the four 2-dim subspaces fill all of C^8:", table.is_complete)

print("\n-- one qubit decoheres completely --")
noisy = apply_channel(reference, 0, make_decoherence(0.0))
labels, probs = syndrome_distribution(noisy, table)
for lbl, pr in zip(labels, probs):
    print("  P[%s] = %.3f" % (lbl, pr))

rng = trial_generator(2, 0)
report = correct(noisy, table, "exhaustive", rng, reference)
print("measured syndrome:", report.syndrome)
print("trace:", report.outcome_trace)
print("fidelity after recovery: %.12f" % report.fidelity)
print("disentangled:", report.disentangled)

print("\n-- two qubits decohere: recovery is only three-quarters safe --")
noisy2 = apply_channel(noisy, 1, make_decoherence(0.0))
labels, probs = syndrome_distribution(noisy2, table)
print("syndrome distribution:", np.round(probs, 3))
outcomes = {}
for trial in range(2000):
    rng = trial_generator(3, trial)
    rep = correct(noisy2, table, "exhaustive", rng, reference)
    key = rep.syndrome.text()
    outcomes.setdefault(key, []).append(rep.fidelity)
for key in sorted(outcomes):
    fids = outcomes[key]
    print("  %s: %4d hits, fidelity %.4f" % (key, len(fids), np.mean(fids)))
print("the unlucky quarter lands on the aliased third flip: overlap"
      " (c0^2-c1^2)^2 = %.4f" % (c0 ** 2 - c1 ** 2) ** 2)

print("\n-- partial decoherence leaves residual entanglement --")
partial = apply_channel(reference, 0, make_decoherence(0.6))
partial = apply_channel(partial, 1, make_decoherence(0.6))
partial = apply_channel(partial, 2, make_decoherence(0.6))
rng = trial_generator(4, 0)
rep = correct(partial, table, "exhaustive", rng, reference)
top, purity = schmidt_diagnostics(rep.recovered_state)
print("syndrome %s, fidelity %.4f, top Schmidt coefficient %.4f"
      % (rep.syndrome, rep.fidelity, top))
print("fidelity of doing nothing instead: %.4f"
      % fidelity_against(partial, reference))
