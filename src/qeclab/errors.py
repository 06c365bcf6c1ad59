"""Amplitude / phase error operators and canonical pattern enumeration.

An amplitude pattern alpha flips the marked qubits: A_alpha|v> = |v+alpha>
(mod-2 addition). A phase pattern beta flips signs: P_beta|v> =
(-1)^(beta.v) |v>. A composed pattern applies the phase part first:
A_alpha P_beta (the opposite order differs only by the global sign
(-1)^(alpha.beta), but one order has to be fixed so residue comparisons are
exact equalities).

Canonical pattern order: patterns are keyed by the integer value of the
concatenated tuple alpha||beta with position 0 as the *least* significant
bit. This starts at the all-zero pattern and walks qubit 0's amplitude
error first, so for n=3, t=1 the order is

    I, X0, X1, X2, Z0, Y0, Z1, Y1, Z2, Y2

and the phase-only order is beta = 000, 100, 010, 001. Decoder transcripts,
file outputs, and measurement walks all inherit this order.
"""

from __future__ import annotations

import numpy as np

from .bitstrings import BitString
from .statespace import PureState


class ErrorPattern:
    """A named operator A_alpha P_beta, alpha and beta BitStrings of one
    length; also the decoder's syndrome value."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        if len(alpha) != len(beta):
            raise ValueError("alpha and beta lengths differ")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __setattr__(self, name, value):
        raise AttributeError("ErrorPattern is immutable")

    @classmethod
    def from_key(cls, key, n):
        """Inverse of :meth:`sort_key` for patterns on n qubits."""
        key = int(key)
        return cls(BitString((key >> i) & 1 for i in range(n)),
                   BitString((key >> (n + i)) & 1 for i in range(n)))

    @classmethod
    def from_text(cls, text):
        """Parse the textual form ``A(001010)P(001010)``."""
        s = text.strip()
        if not (s.startswith("A(") and ")P(" in s and s.endswith(")")):
            raise ValueError("not a pattern literal: %r" % text)
        a_part, p_part = s[1:].split("P", 1)
        return cls(BitString.from_text(a_part), BitString.from_text(p_part))

    def text(self):
        return pattern_texts([self.sort_key()], len(self.alpha))[0]

    def __repr__(self):
        return self.text()

    def __eq__(self, other):
        return (isinstance(other, ErrorPattern)
                and self.alpha == other.alpha and self.beta == other.beta)

    def __hash__(self):
        return hash((self.alpha, self.beta))

    def is_zero(self):
        return self.alpha.is_zero() and self.beta.is_zero()

    def sort_key(self):
        """Canonical total order: little-endian value of alpha||beta."""
        return sum(b << i for i, b in enumerate(self.alpha.bits
                                                + self.beta.bits))


# -- operator application ------------------------------------------------------

def parity_signs(x, y):
    """(-1)^(x.y) of integer arrays x and y, bit strings as integers:
    1 - 2 (popcount(x & y) mod 2), broadcast."""
    return 1.0 - 2.0 * (np.bitwise_count(x & y) & 1)


def apply_amplitude(alpha, state):
    """A_alpha: permutes basis amplitudes by v -> v+alpha. Acts as identity
    on environment factors; unitary (an involution, in fact)."""
    if len(alpha) != state.qubit_count:
        raise ValueError("alpha length %d != qubit count %d"
                         % (len(alpha), state.qubit_count))
    a = alpha.to_index()
    if a == 0:
        return state
    perm = np.arange(state.layout.system_dim) ^ a
    return PureState._trusted(state.layout, state.amps[perm])


def apply_phase(beta, state):
    """P_beta: multiplies each basis amplitude by (-1)^(beta.v)."""
    if len(beta) != state.qubit_count:
        raise ValueError("beta length %d != qubit count %d"
                         % (len(beta), state.qubit_count))
    b = beta.to_index()
    if b == 0:
        return state
    signs = parity_signs(np.arange(state.layout.system_dim), b)
    signs = signs.reshape((-1,) + (1,) * len(state.layout.env_dims))
    return PureState._trusted(state.layout, state.amps * signs)


def apply_pattern(pattern, state):
    """The composed operator A_alpha P_beta (phase part acts first)."""
    return apply_amplitude(pattern.alpha, apply_phase(pattern.beta, state))


# -- enumeration ---------------------------------------------------------------

#: per affected qubit, the (alpha_i, beta_i) choices of a general pattern:
#: sigma_x, sigma_z and sigma_y
PAULI_CHOICES = ((1, 0), (0, 1), (1, 1))


def pattern_keys(n, t, choices=PAULI_CHOICES):
    """Canonical keys (ErrorPattern.sort_key) of every pattern of union
    weight <= t whose affected qubits each take one of `choices`, ascending:
    the canonical order as one int64 array."""
    if not 0 <= t <= n:
        raise ValueError("need 0 <= t <= n")
    qubits = np.arange(n, dtype=np.int64)
    # steps[q] holds the key bits of each choice on qubit q
    steps = np.stack([(x << qubits) | (z << (n + qubits))
                      for x, z in choices], axis=1)
    keys = np.zeros(1, dtype=np.int64)
    last = np.full(1, -1)  # each key's highest affected qubit
    levels = [keys]
    for _ in range(t):  # weight w + 1 from weight w, one new top qubit each
        i, q = np.nonzero(last[:, np.newaxis] < qubits)
        keys = (keys[i, np.newaxis] | steps[q]).ravel()
        last = np.repeat(q, len(choices))
        levels.append(keys)
    return np.sort(np.concatenate(levels))


def pattern_texts(keys, n):
    """The text A(alpha)P(beta) of each canonical key on n qubits, one str
    each: bit i of a key is alpha's position i, bit n + i beta's."""
    bits = [bin(int(key) | 1 << 2 * n)[:2:-1] for key in keys]  # bit 0 first
    return ["A(%s)P(%s)" % (b[:n], b[n:]) for b in bits]


def key_indices(keys, n):
    """(alpha, beta) of canonical keys as basis-state indices, position 0
    the most significant bit (BitString.to_index), one array each."""
    alpha = np.zeros_like(keys)
    beta = np.zeros_like(keys)
    for q in range(n):
        alpha |= ((keys >> q) & 1) << (n - 1 - q)
        beta |= ((keys >> (n + q)) & 1) << (n - 1 - q)
    return alpha, beta

