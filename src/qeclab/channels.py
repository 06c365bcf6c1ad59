"""Qubit-environment entanglement channels and the analytic residue oracle.

A channel on one qubit is given by four environment vectors a_{g,g'} (input
bit g, output bit g') in a d_E-dimensional factor:

    |0>|a>  ->  |0>|a00> + |1>|a01>
    |1>|a>  ->  |0>|a10> + |1>|a11>

The map extends to a unitary on the qubit-environment pair starting from a
fixed |a> exactly when the rows of the 2 x 2d_E block matrix are
orthonormal:

    ||a00||^2 + ||a01||^2 = 1
    ||a10||^2 + ||a11||^2 = 1
    <a00|a10> + <a01|a11> = 0

Pure decoherence is the special case a01 = a10 = 0: bit values pass through
untouched and the environment merely learns them, which is equivalent to
random phase noise.

The residue oracle gives the environment-side factor attached to each error
pattern in the decomposition of a dissipated block: sending a set S of m
qubits of *any* state |psi> through channels yields exactly

    sum_{supp(a), supp(b) within S}   A_a P_b |psi>  (x)  |R_ab>,

    |R_ab>  =  2^-m  sum_g  (-1)^(g.b)  (x)_{j in S}  a^(j)_{g_j, g_j+a_j},

with g ranging over bit assignments on S. The residues depend only on the
channels, never on the transported state. The sum over g factors into one
sum per qubit, so every residue is a tensor product of one-qubit residues,
which qubit_residues builds for a stack of channels at once.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .codes import json_value
from .statespace import TOL_NORM, FactorLayout, PureState

_UNITARITY_CONSTRAINTS = ("row0_norm", "row1_norm", "row_orthogonality")


class QubitChannel:
    """Per-qubit environment-entangling map given by four env vectors."""

    __slots__ = ("env_dim", "a00", "a01", "a10", "a11")

    def __init__(self, a00, a01, a10, a11):
        vecs = [np.asarray(v, dtype=np.complex128).ravel()
                for v in (a00, a01, a10, a11)]
        d = vecs[0].size
        if d < 1 or any(v.size != d for v in vecs):
            raise ValueError("the four environment vectors must share one "
                             "dimension >= 1")
        for name, v in zip(("a00", "a01", "a10", "a11"), vecs):
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        object.__setattr__(self, "env_dim", d)

    def __setattr__(self, name, value):
        raise AttributeError("QubitChannel is immutable")

    def block(self):
        """The 2 x 2d_E matrix whose rows must be orthonormal."""
        return np.stack([np.concatenate([self.a00, self.a01]),
                         np.concatenate([self.a10, self.a11])])

    def __repr__(self):
        return "QubitChannel(env_dim=%d)" % self.env_dim


def _violations(blocks):
    """Magnitudes of the three unitarity-closure violations for a stack of
    2 x 2d_E channel blocks (k, 2, 2d_E); returns shape (k, 3), columns in
    the order row0_norm, row1_norm, row_orthogonality."""
    norms = np.einsum("kij,kij->ki", blocks.conj(), blocks).real
    cross = np.einsum("kj,kj->k", blocks[:, 0].conj(), blocks[:, 1])
    return np.column_stack([np.abs(norms - 1.0), np.abs(cross)])


def validate(ch):
    """Check the three unitarity-closure constraints.

    Returns a list of (constraint_name, violation_magnitude) pairs; empty
    when the channel is valid within 1e-9. A non-finite magnitude (NaN from
    a NaN entry) counts as a violation.
    """
    mags = _violations(ch.block()[np.newaxis])[0]
    return [(name, float(mag))
            for name, mag in zip(_UNITARITY_CONSTRAINTS, mags)
            if not mag <= TOL_NORM]


def make_decoherence(overlap):
    """Pure-decoherence channel with <a_0|a_1> = overlap (|overlap| <= 1).

    d_E = 2: a00 = e0, a11 = overlap*e0 + sqrt(1-|overlap|^2)*e1,
    a01 = a10 = 0. overlap = 1 is the identity channel, overlap = 0 full
    decoherence (orthogonal environment markers).
    """
    overlap = complex(overlap)
    if not cmath.isfinite(overlap):
        raise ValueError("overlap must be finite, got %r" % overlap)
    if abs(overlap) > 1.0 + 1e-15:
        raise ValueError("|overlap| must be <= 1, got %r" % overlap)
    ortho = math.sqrt(max(0.0, 1.0 - abs(overlap) ** 2))
    zero = np.zeros(2)
    return QubitChannel(a00=[1.0, 0.0], a01=zero,
                        a10=zero, a11=[overlap, ortho])


def gaussian_blocks(normals, env_dim):
    """Complex Gaussian 2 x 2d_E blocks, (count, 2, 2d_E), from standard
    normals, 8 d_E per block along the last axis: each block takes its real
    parts, then its imaginary parts -- the order random_channel draws them
    in."""
    parts = normals.reshape(-1, 2, 2, 2 * env_dim)
    return parts[:, 0] + 1j * parts[:, 1]


def orthonormalize_blocks(blocks):
    """Row-orthonormalize a stack of 2 x 2d_E blocks in place (Gram-Schmidt
    on each block alone) and check every result; returns the stack."""
    row0, row1 = blocks[:, 0], blocks[:, 1]
    row0 /= np.linalg.norm(row0, axis=1, keepdims=True)
    row1 -= row0 * np.einsum("kj,kj->k", row0.conj(), row1)[:, np.newaxis]
    row1 /= np.linalg.norm(row1, axis=1, keepdims=True)
    worst = _violations(blocks).max(initial=0.0)
    if not worst <= TOL_NORM:
        raise ValueError("orthonormalized channel violates unitarity by %.3e"
                         % worst)
    return blocks


def random_channel(env_dim, rng):
    """A random valid channel: a seeded complex Gaussian 2 x 2d_E matrix,
    row-orthonormalized (Gram-Schmidt), split into the four vectors."""
    M = orthonormalize_blocks(gaussian_blocks(
        rng.standard_normal(8 * env_dim), env_dim))[0]
    return QubitChannel(a00=M[0, :env_dim], a01=M[0, env_dim:],
                        a10=M[1, :env_dim], a11=M[1, env_dim:])


def entangle_stack(amps, qubits, blocks):
    """Entangle one qubit of every state in a stack with a fresh environment
    factor.

    amps holds g states as (g, 2^n, d_1, ..., d_k); qubits (g,) names the
    qubit of each state; blocks holds each state's 2 x 2d_E channel block,
    (g, 2, 2d_E), or one block shared by all, (1, 2, 2d_E). Each basis
    amplitude with qubit bit b turns into the superposition over output bits
    c weighted by the components of a_{b,c}. Returns (g, 2^n, d_1, ...,
    d_k, d_E); every state's amplitudes come from its own amplitudes, qubit
    and block alone.
    """
    g = amps.shape[0]
    d = blocks.shape[2] // 2
    qubits = np.asarray(qubits)
    # w[k, b, e, c] = a_{b,c}[e] of block k, broadcast over the high and
    # low bits
    w = blocks.reshape(-1, 2, 2, d).transpose(0, 1, 3, 2)
    w = w[..., np.newaxis, np.newaxis]
    out = np.empty(amps.shape + (d,), dtype=np.result_type(amps, blocks))
    # the states that share a qubit go through one product
    for q in np.unique(qubits).tolist():
        rows = np.flatnonzero(qubits == q)
        if len(rows) == g:
            rows = slice(None)  # the whole stack: no gather
        sub = amps[rows]
        # axis 4 of src is this qubit's bit: src[..., 0, :] and
        # src[..., 1, :] pair the basis states that differ only in it
        src = sub.reshape(len(sub), 1, 1, 1 << q, 2, -1)
        wq = w if len(w) == 1 else w[rows]
        # laid out (state, e, output bit, high bits, low bits), so the inner
        # loops run over the low bits rather than over d_E
        part = src[..., 0, :] * wq[:, 0]
        part += src[..., 1, :] * wq[:, 1]
        out.reshape(g, 1 << q, 2, -1, d)[rows] = part.transpose(0, 3, 2, 4, 1)
    return out


def apply_channel(state, qubit, ch):
    """Entangle `qubit` with a fresh d_E-dimensional environment factor.

    The one-state case of entangle_stack. Requires that the qubit has no
    environment factor yet (one channel transit per qubit; re-entanglement
    is out of scope).
    """
    bad = validate(ch)
    if bad:
        raise ValueError("invalid channel: %s" % bad)
    n = state.qubit_count
    if not 0 <= qubit < n:
        raise ValueError("qubit index %d out of range" % qubit)
    if any(q == qubit for q, _ in state.layout.env_factors):
        raise ValueError("qubit %d already has an environment factor "
                         "(re-entanglement is out of scope)" % qubit)
    layout = state.layout.with_env(qubit, ch.env_dim)
    out = entangle_stack(state.amps[np.newaxis], [qubit],
                         ch.block()[np.newaxis])
    return PureState._trusted(layout, out[0])


def qubit_residues(blocks):
    """The one-qubit residues of a stack of 2 x 2d_E channel blocks, (g, 4,
    d_E): row 2 alpha + beta holds |R_ab> of the pattern with amplitude bit
    alpha and phase bit beta on the channel's qubit,

        (a00 + a11)/2,  (a00 - a11)/2,  (a01 + a10)/2,  (a01 - a10)/2.

    A residue on several qubits is the tensor product of one-qubit residues,
    one factor per channel, so every residue is built from these rows.
    """
    d = blocks.shape[-1] // 2
    a00, a01 = blocks[:, 0, :d], blocks[:, 0, d:]
    a10, a11 = blocks[:, 1, :d], blocks[:, 1, d:]
    return np.stack([a00 + a11, a00 - a11, a01 + a10, a01 - a10], axis=1) / 2


def pattern_residues(blocks):
    """The residues of all 4^m patterns on m qubits of each state in a stack,
    (g, 4^m, d_E^m), from its m channel blocks (g, m, 2, 2d_E) in ascending
    qubit order. Row sum_j 4^(m-1-j) (2 alpha_j + beta_j) is the pattern
    with bits alpha_j, beta_j on the j-th qubit, and the environment axes
    follow the qubits, the first one major, as entangle_stack appends them.
    Each state's residues are elementwise products of its own blocks.
    """
    g, m, _, width = blocks.shape
    rows = qubit_residues(blocks.reshape(-1, 2, width)).reshape(
        g, m, 4, width // 2)
    out = np.ones((g, 1, 1), dtype=rows.dtype)
    for j in range(m):
        out = (out[:, :, np.newaxis, :, np.newaxis]
               * rows[:, j, np.newaxis, :, np.newaxis, :]).reshape(
                   g, out.shape[1] * 4, -1)
    return out


def residue_oracle(channels, alpha, beta):
    """Environment residue |R_ab> for channels applied on an ordered set.

    `channels` is the ordered list of (qubit, QubitChannel) pairs, in
    application order; the supports of the BitStrings alpha and beta must
    lie inside the affected-qubit set. Returns an environment-only
    PureState (one factor per channel, in list order), generally
    unnormalized:

        2^-m  sum_g  (-1)^(g.b)  (x)_j  a^(j)_{g_j, (g+a)_j},

    the tensor product over the channels of their qubit_residues rows.
    """
    channels = list(channels)
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta have different lengths")
    affected = [q for q, _ in channels]
    if len(set(affected)) != len(affected):
        raise ValueError("affected qubits repeat")
    if any(not 0 <= q < len(alpha) for q in affected):
        raise ValueError("affected qubit outside the block")
    outside = (alpha.support() | beta.support()) - set(affected)
    if outside:
        raise ValueError("pattern support %s lies outside the affected set %s"
                         % (sorted(outside), affected))
    acc = np.ones(1, dtype=np.complex128)
    for q, ch in channels:
        rows = qubit_residues(ch.block()[np.newaxis])[0]
        acc = np.multiply.outer(acc, rows[2 * alpha[q] + beta[q]])
    layout = FactorLayout.environment_only([ch.env_dim for _, ch in channels])
    return PureState._trusted(layout, acc)


# -- files ---------------------------------------------------------------------

def channel_from_dict(data):
    try:
        d = json_value(data["env_dim"], "env_dim", "an integer")
        vecs = {name: np.array([complex(json_value(re, name, "a number"),
                                        json_value(im, name, "a number"))
                                for re, im in data[name]])
                for name in ("a00", "a01", "a10", "a11")}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError("malformed channel data: %s" % exc)
    ch = QubitChannel(**vecs)
    if ch.env_dim != d:
        raise ValueError("env_dim %d does not match vector length %d"
                         % (d, ch.env_dim))
    return ch


def load_channel(path):
    with open(path) as fh:
        return channel_from_dict(json.load(fh))
