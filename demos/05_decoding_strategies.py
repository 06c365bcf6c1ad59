"""Exhaustive vs dyadic syndrome measurement.

Identifying which syndrome subspace holds the corrupted block is a chain of
yes/no projective measurements. The exhaustive walk asks about one subspace
at a time; the dyadic walk halves the candidate list with each question,
measuring unions of subspaces. Both collapse the state the same way, so the
outcome distributions agree to machine precision -- only the number of
measurements differs.
"""

import numpy as np

from qeclab import (
    apply_channel,
    build_syndrome_table,
    correct,
    encode,
    load_code,
    make_decoherence,
    random_channel,
    syndrome_distribution,
    trial_generator,
)

code = load_code("shor9")
table = build_syndrome_table(code, 1)
print("code %s: %d syndrome subspaces (%d of %d dimensions used)"
      % (code.name, len(table), 2 * len(table), 1 << code.n))

rng = trial_generator(55, 0)
logical = rng.standard_normal(2) + 1j * rng.standard_normal(2)
ref = encode(code, logical / np.linalg.norm(logical))
noisy = apply_channel(ref, 6, random_channel(4, rng))

print("\n== the distributions agree exactly ==")
labels, probs = syndrome_distribution(noisy, table)


def tree_distribution(dyadic):
    """Where a walk ends: down each path of its own tree of yes/no
    questions, the product of the probabilities of the answers given. A
    question asks whether the state lies in the union of the first subspaces
    of the block still in play (one subspace for the exhaustive walk); the
    complement stays in play until an answer "yes" rules it out."""
    n = len(table)
    out = np.zeros(n + 1)

    def visit(lo, hi, weight):
        if hi - lo == 1 or weight == 0.0:
            out[lo] += weight
            return
        size = max(min(hi, n) - lo - 1, 1).bit_length() - 1 if dyadic else 0
        mid = lo + (1 << size)
        inside = probs[lo:mid].sum()
        yes = inside / (inside + probs[mid:hi].sum())
        visit(lo, mid, weight * yes)
        visit(mid, hi, weight * (1.0 - yes))

    visit(0, n if dyadic and table.is_complete else n + 1, 1.0)
    return out


pe, ph = tree_distribution(False), tree_distribution(True)
print("max |p_exhaustive - p_hierarchical|  = %.3g" % np.max(np.abs(pe - ph)))
print("max |p_walk - syndrome_distribution| = %.3g"
      % max(np.max(np.abs(pe - probs)), np.max(np.abs(ph - probs))))
print("support of the distribution:")
for lbl, p in zip(labels, pe):
    if p > 1e-12:
        print("  %-28s %.4f" % (lbl, p))

print("\n== but the measurement counts differ ==")
counts = {"exhaustive": [], "hierarchical": []}
for trial in range(400):
    for strategy in counts:
        rep = correct(noisy, table, strategy, trial_generator(56, trial), ref)
        counts[strategy].append(len(rep.outcome_trace))
        assert rep.fidelity >= 1 - 1e-8
for strategy, ns in counts.items():
    print("  %-13s mean %.2f  min %d  max %d  (of %d subspaces)"
          % (strategy, np.mean(ns), min(ns), max(ns), len(table)))

print("\n== a worked dyadic trace ==")
rep = correct(noisy, table, "hierarchical", trial_generator(56, 7), ref)
for label, outcome in rep.outcome_trace:
    print("  measure %-32s -> %d" % (label, outcome))
print("syndrome %s, fidelity %.12f" % (rep.syndrome, rep.fidelity))

print("\n== complete tables skip the membership question ==")
phase3 = load_code("phase3")
ptable = build_syndrome_table(phase3, 1, pattern_filter="phase-only")
print("phase3 phase-only table complete:", ptable.is_complete)
ref3 = encode(phase3, np.array([0.6, 0.8]))
noisy3 = apply_channel(ref3, 1, make_decoherence(0.0))
rep3 = correct(noisy3, ptable, "hierarchical", trial_generator(57, 0), ref3)
print("four subspaces resolved in %d measurements: %s"
      % (len(rep3.outcome_trace), rep3.outcome_trace))
