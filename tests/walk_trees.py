"""Each strategy's exact outcome distribution over its own measurement tree,
an oracle for decoder.sample_walk written from the walk's definition.

A walk's block holds subspace columns [lo, hi), with the complement as
column n until an outcome 1 proves membership in the subspaces (a complete
table's dyadic walk knows it upfront). Each step measures the union of the
block's first columns -- the first one for the exhaustive walk, for the
dyadic walk the largest power of two below the block's subspace count --
against the rest of the block; outcome 1 has the conditional probability
mass_in / (mass_in + mass_out), each mass summed left to right. A leaf's
probability is the product of the conditional probabilities on its path.
"""

import numpy as np

from qeclab import syndrome_distribution
from qeclab.decoder import DYADIC, sample_walk


class Stream:
    """Scripted uniform deviates, served by random(size) and padded past the
    script with 1.0: 0.0 draws outcome 1, 1.0 outcome 0. served counts the
    values given up."""

    def __init__(self, us):
        self.us = list(us)
        self.served = 0

    def random(self, size):
        head, self.us = self.us[:size], self.us[size:]
        self.served += size
        return np.array(head + [1.0] * (size - len(head)))


def left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def walk_tree(p, p_none, dyadic, complete):
    """(probs, deviates) of one strategy's tree: probs[i] is the probability
    that the walk ends in subspace i (len(p): the complement), deviates[i]
    the deviates that steer a walk there, None for a leaf the tree reaches
    with probability 0. Each deviate lies within 1e-9 of its step's
    conditional probability, relative to the side it takes, so a walk that
    thresholds anywhere else goes astray."""
    n = len(p)
    mass = [float(v) for v in p] + [float(p_none)]
    probs, deviates = np.zeros(n + 1), [None] * (n + 1)

    def visit(lo, hi, weight, path):
        if weight == 0.0:
            return
        if hi - lo == 1:
            probs[lo], deviates[lo] = weight, path
            return
        size = max(min(hi, n) - lo - 1, 1).bit_length() - 1 if dyadic else 0
        mid = lo + (1 << size)
        mass_in = left_to_right(mass[lo:mid])
        prob = mass_in / (mass_in + left_to_right(mass[mid:hi]))
        visit(lo, mid, weight * prob, path + [prob * (1.0 - 1e-9)])
        visit(mid, hi, weight * (1.0 - prob),
              path + [prob + (1.0 - prob) * 1e-9])

    visit(0, n if dyadic and complete else n + 1, 1.0, [])
    return probs, deviates


def check_strategies(state, table):
    """Both strategies' tree distributions equal syndrome_distribution's
    within 1e-12, and deviates scripted at the tree's thresholds, one per
    measurement, steer sample_walk to every leaf of mass above 1e-9, none
    of them forced."""
    _, probs = syndrome_distribution(state, table)
    p, p_none = probs[:-1], probs[-1]
    for strategy, dyadic in DYADIC.items():
        tree, deviates = walk_tree(p, p_none, dyadic, table.is_complete)
        assert np.max(np.abs(tree - probs)) <= 1e-12, strategy
        for leaf in np.flatnonzero(tree > 1e-9).tolist():
            stream = Stream(deviates[leaf])
            index, trace, forced = sample_walk(table, p, p_none, stream,
                                               dyadic)
            assert index == (leaf if leaf < len(table) else None), strategy
            assert len(trace) == len(deviates[leaf])
            assert stream.us == []
            assert forced == 0
