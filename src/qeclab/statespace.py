"""State vectors over a tensor layout of qubit and environment factors.

A state lives on n qubits (2^n amplitudes, basis index = BitString.to_index)
plus zero or more environment factors, one per entangled qubit, each with its
own dimension. Amplitudes are stored as a dense complex array shaped
``(2**n, d_1, ..., d_k)`` in layout order. Environment factors are attached
lazily by channels; untouched qubits contribute none.

Tolerances used across the package live here: normalization/orthogonality
1e-9, zero-probability threshold 1e-12, and a hard cap of 2^16 joint
amplitudes (everything in this package is desk scale).
"""

from __future__ import annotations

import math

import numpy as np

from .bitstrings import BitString

TOL_NORM = 1e-9
TOL_ZERO = 1e-12
DIM_CAP = 2 ** 16


class FactorLayout:
    """Tensor layout: qubit block first, then named environment factors.

    env_factors is an ordered tuple of (attached_qubit_index, dimension);
    a qubit appears at most once (re-entangling a qubit is out of scope).
    """

    __slots__ = ("qubit_count", "env_factors", "env_dim")

    def __init__(self, qubit_count, env_factors=()):
        env_factors = tuple((int(q), int(d)) for q, d in env_factors)
        if qubit_count < 0:
            raise ValueError("negative qubit count")
        seen = set()
        for q, d in env_factors:
            if not 0 <= q < qubit_count:
                raise ValueError("environment factor attached to qubit %d "
                                 "outside block of %d" % (q, qubit_count))
            if q in seen:
                raise ValueError("qubit %d has two environment factors" % q)
            if d < 1:
                raise ValueError("environment dimension must be >= 1")
            seen.add(q)
        object.__setattr__(self, "qubit_count", qubit_count)
        object.__setattr__(self, "env_factors", env_factors)
        object.__setattr__(self, "env_dim",
                           math.prod(d for _, d in env_factors))
        if self.total_dim > DIM_CAP:
            raise ValueError("layout dimension %d exceeds cap %d"
                             % (self.total_dim, DIM_CAP))

    def __setattr__(self, name, value):
        raise AttributeError("FactorLayout is immutable")

    @property
    def system_dim(self):
        return 1 << self.qubit_count

    @property
    def env_dims(self):
        return tuple(d for _, d in self.env_factors)

    @property
    def total_dim(self):
        return self.system_dim * self.env_dim

    @property
    def shape(self):
        return (self.system_dim,) + self.env_dims

    def is_system_only(self):
        return not self.env_factors

    def with_env(self, qubit, dim):
        return FactorLayout(self.qubit_count,
                            self.env_factors + ((qubit, dim),))

    @classmethod
    def environment_only(cls, dims):
        """Layout with no qubit block at all (system axis of size 2^0 = 1).

        Used for channel-residue vectors, which live purely in the
        environment factors; the factors are indexed positionally since
        there is no qubit block to attach them to.
        """
        self = object.__new__(cls)
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise ValueError("environment dimension must be >= 1")
        object.__setattr__(self, "qubit_count", 0)
        object.__setattr__(self, "env_factors",
                           tuple(enumerate(dims)))
        object.__setattr__(self, "env_dim", math.prod(dims))
        if self.total_dim > DIM_CAP:
            raise ValueError("layout dimension %d exceeds cap %d"
                             % (self.total_dim, DIM_CAP))
        return self

    def __eq__(self, other):
        return (isinstance(other, FactorLayout)
                and self.qubit_count == other.qubit_count
                and self.env_factors == other.env_factors)

    def __hash__(self):
        return hash((self.qubit_count, self.env_factors))

    def __repr__(self):
        return "FactorLayout(%d, %r)" % (self.qubit_count, list(self.env_factors))


def _fsum_norm_sq(arr):
    # compensated summation keeps the norm-1 invariant checkable at n=10; a
    # square or a sum that overflows gives inf, which the check refuses
    with np.errstate(over="ignore"):
        squares = np.abs(arr.ravel()) ** 2
    try:
        return math.fsum(squares)
    except OverflowError:
        return math.inf


def row_norms(rows):
    """The norm of each row of a complex (g, k) array, as the sum
    np.linalg.norm takes, so that a stack gives each row's one-row norm bit
    for bit."""
    return np.sqrt(np.vecdot(rows.real, rows.real)
                   + np.vecdot(rows.imag, rows.imag))


class PureState:
    """A complex amplitude vector over a FactorLayout.

    States are immutable; every operation returns a fresh state. The
    constructor verifies a squared norm of 1 within 1e-9, unless
    ``normalized=False`` admits an unnormalized intermediate.
    """

    __slots__ = ("layout", "amps")

    def __init__(self, layout, amplitudes, normalized=True):
        # copy unconditionally so freezing never aliases the caller's buffer
        arr = np.array(amplitudes, dtype=np.complex128)
        if arr.size != layout.total_dim:
            raise ValueError("amplitude count %d does not match layout "
                             "dimension %d" % (arr.size, layout.total_dim))
        arr = arr.reshape(layout.shape)
        if normalized:
            nrm = _fsum_norm_sq(arr)
            if not abs(nrm - 1.0) <= TOL_NORM:  # NaN fails too
                raise ValueError("state not normalized: |amps|^2 = %.12g"
                                 % nrm)
        arr.setflags(write=False)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "amps", arr)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @classmethod
    def _trusted(cls, layout, arr):
        """Internal fast path: wrap an array of the layout's size (e.g. the
        output of a norm-preserving operation) without checking its norm."""
        self = object.__new__(cls)
        arr = np.ascontiguousarray(arr, dtype=np.complex128).reshape(layout.shape)
        arr.setflags(write=False)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "amps", arr)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_amplitudes(cls, qubit_count, vector, normalized=True):
        """System-only state from a flat vector of 2**qubit_count amplitudes."""
        return cls(FactorLayout(qubit_count), vector, normalized=normalized)

    @classmethod
    def basis_state(cls, bits):
        """|v> for a BitString (or text form) v."""
        if not isinstance(bits, BitString):
            bits = BitString.from_text(bits)
        vec = np.zeros(1 << len(bits), dtype=np.complex128)
        vec[bits.to_index()] = 1.0
        return cls(FactorLayout(len(bits)), vec)

    # -- views ---------------------------------------------------------------

    @property
    def qubit_count(self):
        return self.layout.qubit_count

    def matrix(self):
        """System-by-environment coefficient matrix, shape (2^n, prod d_E)."""
        return self.amps.reshape(self.layout.system_dim, self.layout.env_dim)

    def norm(self):
        return math.sqrt(_fsum_norm_sq(self.amps))

    def __repr__(self):
        return ("PureState(n=%d, env=%r, norm=%.6f)"
                % (self.qubit_count, list(self.layout.env_factors), self.norm()))


# -- operations --------------------------------------------------------------

def schmidt_diagnostics(state):
    """(max Schmidt coefficient, purity) across the system|environment cut.

    Coefficients are the singular values of the system-by-environment
    coefficient matrix; purity is the sum of their fourth powers. A state is
    disentangled from its environment iff the max coefficient is 1 (within
    1e-9). States with no environment factors report (1, 1).
    """
    sv = np.linalg.svd(state.matrix(), compute_uv=False)
    return float(sv[0]), float(np.sum(sv ** 4))


def fidelity_against(joint, reference_system_state):
    """<ref| rho_system |ref> where rho_system traces out all environment
    factors of `joint`. The reference must be a system-only state on the
    same number of qubits. Invariant under global phase of either argument."""
    ref = reference_system_state
    if not ref.layout.is_system_only():
        raise ValueError("reference must be a system-only state")
    if ref.qubit_count != joint.qubit_count:
        raise ValueError("qubit count mismatch: %d vs %d"
                         % (ref.qubit_count, joint.qubit_count))
    w = ref.amps.ravel().conj() @ joint.matrix()
    return float(np.sum(np.abs(w) ** 2))

