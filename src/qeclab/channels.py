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
channels, never on the transported state.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .bitstrings import BitString
from .statespace import TOL_NORM, FactorLayout, PureState

_UNITARITY_CONSTRAINTS = ("row0_norm", "row1_norm", "row_orthogonality")
_VEC_NAMES = {(0, 0): "a00", (0, 1): "a01", (1, 0): "a10", (1, 1): "a11"}


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


def entangle_stack(amps, qubit, blocks):
    """Entangle `qubit` of every state in a stack with a fresh environment
    factor.

    amps holds g states as (g, 2^n, d_1, ..., d_k); blocks holds each
    state's 2 x 2d_E channel block, (g, 2, 2d_E), or one block shared by all,
    (1, 2, 2d_E). Each basis amplitude with qubit bit b turns into the
    superposition over output bits c weighted by the components of a_{b,c}.
    Returns (g, 2^n, d_1, ..., d_k, d_E); every state's amplitudes come from
    its own amplitudes and block alone.
    """
    g = amps.shape[0]
    d = blocks.shape[2] // 2
    # axis 4 of src is this qubit's bit: src[..., 0, :] and src[..., 1, :]
    # pair the basis states that differ only in it
    src = amps.reshape(g, 1, 1, 1 << qubit, 2, -1)
    # w[k, b, e, c] = a_{b,c}[e] of block k, broadcast over the high and
    # low bits
    w = blocks.reshape(-1, 2, 2, d).transpose(0, 1, 3, 2)
    w = w[..., np.newaxis, np.newaxis]
    # laid out (state, e, output bit, high bits, low bits), so the inner
    # loops run over the low bits rather than over d_E
    out = src[..., 0, :] * w[:, 0]
    out += src[..., 1, :] * w[:, 1]
    out = out.transpose(0, 3, 2, 4, 1)
    return np.ascontiguousarray(out).reshape(amps.shape + (d,))


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
    out = entangle_stack(state.amps[np.newaxis], qubit,
                         ch.block()[np.newaxis])
    return PureState._trusted(layout, out[0], normalized=state.is_normalized)


def residue_oracle(channels, alpha, beta):
    """Environment residue |R_ab> for channels applied on an ordered set.

    `channels` is the ordered list of (qubit, QubitChannel) pairs, in
    application order; the supports of alpha and beta must lie inside the
    affected-qubit set. Returns an environment-only PureState (one factor
    per channel, in list order), generally unnormalized:

        2^-m  sum_g  (-1)^(g.b)  (x)_j  a^(j)_{g_j, (g+a)_j}
    """
    channels = list(channels)
    if not isinstance(alpha, BitString):
        alpha = BitString.from_text(alpha)
    if not isinstance(beta, BitString):
        beta = BitString.from_text(beta)
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
    m = len(channels)
    dims = tuple(ch.env_dim for _, ch in channels)
    acc = np.zeros(dims if dims else (1,), dtype=np.complex128)
    for g in range(1 << m):
        sign = 1.0
        term = np.ones(1)
        for j, (q, ch) in enumerate(channels):
            gj = (g >> j) & 1
            if gj & beta[q]:
                sign = -sign
            vec = getattr(ch, _VEC_NAMES[(gj, gj ^ alpha[q])])
            term = np.multiply.outer(term, vec)
        acc += sign * term.reshape(acc.shape)
    acc /= float(1 << m)
    layout = FactorLayout.environment_only(dims)
    return PureState._trusted(layout, acc, normalized=False)


# -- files ---------------------------------------------------------------------

def channel_to_dict(ch):
    def pairs(v):
        return [[float(x.real), float(x.imag)] for x in v]
    return {"env_dim": ch.env_dim, "a00": pairs(ch.a00), "a01": pairs(ch.a01),
            "a10": pairs(ch.a10), "a11": pairs(ch.a11)}


def channel_from_dict(data):
    try:
        d = int(data["env_dim"])
        vecs = {name: np.array([complex(re, im) for re, im in data[name]])
                for name in ("a00", "a01", "a10", "a11")}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("malformed channel data: %s" % exc)
    ch = QubitChannel(**vecs)
    if ch.env_dim != d:
        raise ValueError("env_dim %d does not match vector length %d"
                         % (d, ch.env_dim))
    return ch


def save_channel(ch, path):
    with open(path, "w") as fh:
        json.dump(channel_to_dict(ch), fh, indent=1)


def load_channel(path):
    with open(path) as fh:
        return channel_from_dict(json.load(fh))
