"""Exact-integer packing and covering bounds for qubit block codes.

For a block of n qubits, l logical qubits, and correctable weight t:

* sphere volume   V(n,t) = sum_{i<=t} 3^i C(n,i) -- the number of error
  patterns touching at most t qubits (three nontrivial single-qubit errors
  per touched position); ``sphere_volume`` is the definition;
* Hamming (packing): 2^l V(n,t) <= 2^n -- the orthogonal syndrome subspaces
  must fit in the block space;
* Gilbert-Varshamov (covering): a maximal code correcting t errors has at
  least ceil(2^n / V(n,2t)) codewords, so 2^l is achievable once that count
  reaches 2^l.

All predicates use exact big-integer arithmetic. ``volume_scan`` walks n
upward at a fixed radius r with O(1) big-integer operations per step,

    V(n+1, r) = 4 V(n, r) - 3^(r+1) C(n, r)
    C(n+1, r) = C(n, r) (n+1) / (n+1-r)      (exact division)

(Pascal's rule summed over i <= r). While n < r, C(n, r) = 0 and the
volume is the full 4^n = V(n, n), so one scan also covers the rows with
r > n. ``min_n_hamming`` and ``min_n_gv`` scan radius t and 2t, and
``bound_rows`` pairs the two for the CLI's per-n table; the per-n
definitions above serve as their test oracle.

The asymptotic rate forms (n -> infinity at fixed tau = t/n) are

    hamming:  1 - tau log2(3) - H(tau)
    gv:       1 - 2 tau log2(3) - H(2 tau)

with H the binary entropy, H(0) = H(1) = 0 by continuity.
"""

from __future__ import annotations

import math

LOG2_3 = math.log2(3.0)


def _check_nonneg(**kwargs):
    for name, v in kwargs.items():
        if not isinstance(v, int) or v < 0:
            raise ValueError("%s must be a nonnegative integer, got %r"
                             % (name, v))


def sphere_volume(n, t):
    """Number of error patterns of union weight <= t: sum 3^i C(n,i), exact."""
    _check_nonneg(n=n, t=t)
    if t > n:
        raise ValueError("t = %d exceeds n = %d" % (t, n))
    return sum(3 ** i * math.comb(n, i) for i in range(t + 1))


def hamming_holds(n, l, t):
    """Packing bound 2^l * sphere_volume(n,t) <= 2^n, exact."""
    _check_nonneg(n=n, l=l, t=t)
    if t > n or l > n:
        raise ValueError("need t <= n and l <= n")
    return (1 << l) * sphere_volume(n, t) <= (1 << n)


def volume_scan(r, start):
    """Yield V(n, min(r, n)) for n = start, start+1, ..., exact, by the
    recurrence above."""
    _check_nonneg(r=r, start=start)
    n = start
    vol = 1 << 2 * n if r >= n else sphere_volume(n, r)  # V(n, n) = 4^n
    # 3^(r+1) C(n, r), carried whole: times n+1 it stays divisible by
    # n+1-r, so a step only multiplies and divides it by small integers
    term = 3 ** (r + 1) * math.comb(n, r)  # 0 while n < r
    while True:
        yield vol
        vol = (vol << 2) - term
        n += 1
        if n > r:
            term = term * n // (n - r)
        elif n == r:
            term = 3 ** (r + 1)


def bound_rows(l, t, max_n):
    """Yield (n, V(n, min(t, n)), hamming, gv_codewords) for n = l..max_n:
    the per-n table of both bounds, exact and equal to ``hamming_holds(n,
    l, min(t, n))`` and ``gv_guaranteed_codewords(n, t)``."""
    _check_nonneg(l=l, t=t, max_n=max_n)
    for n, vol, vol2 in zip(range(l, max_n + 1), volume_scan(t, l),
                            volume_scan(2 * t, l)):
        # ceil(2^n / V(n, min(2t, n))), which is 1 for 2t > n: V = 4^n
        yield n, vol, vol << l <= 1 << n, -((1 << n) // -vol2)


def min_n_hamming(l, t):
    """Smallest block size the packing bound allows for (l, t)."""
    _check_nonneg(l=l, t=t)
    # 2^l V <= 2^n  <=>  V - 1 < 2^(n-l), read off the bit length
    for n, vol in enumerate(volume_scan(t, max(l, t)), max(l, t)):
        if (vol - 1).bit_length() <= n - l:
            return n


def gv_guaranteed_codewords(n, t):
    """Codeword count a maximal t-error-correcting code must reach.

    The covering argument: spheres of radius 2t around the codewords of a
    maximal code cover the whole block space, so there are at least
    ceil(2^n / sphere_volume(n, 2t)) codewords. For 2t > n the argument
    is vacuous and the guarantee degenerates to 1.
    """
    _check_nonneg(n=n, t=t)
    if 2 * t > n:
        return 1
    vol = sphere_volume(n, 2 * t)
    return -((1 << n) // -vol)


def min_n_gv(l, t):
    """Smallest block size at which the covering guarantee reaches 2^l
    codewords -- i.e. a code with l logical qubits provably exists."""
    _check_nonneg(l=l, t=t)
    # ceil(2^n / V) >= 2^l  <=>  (2^l - 1) V < 2^n, with no division
    for n, vol in enumerate(volume_scan(2 * t, max(l, t)), max(l, t)):
        if ((vol << l) - vol).bit_length() <= n:
            return n


# -- asymptotic rate forms -------------------------------------------------------

def entropy(x):
    """Binary entropy H(x) = -x log2 x - (1-x) log2 (1-x), H(0) = H(1) = 0."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError("entropy argument must lie in [0, 1], got %r" % x)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def asymptotic_hamming_rate(tau):
    """Packing-bound rate limit l/n as n -> infinity at tau = t/n."""
    return 1.0 - float(tau) * LOG2_3 - entropy(tau)


def asymptotic_gv_rate(tau):
    """Covering-guarantee rate limit l/n as n -> infinity at tau = t/n;
    requires 2*tau <= 1 (the entropy argument)."""
    return 1.0 - 2.0 * float(tau) * LOG2_3 - entropy(2.0 * float(tau))


def finite_hamming_rate(n, t):
    """Finite-size packing rate (1/n) log2(2^n / sphere_volume(n, t)),
    evaluated with exact integers before the single final log."""
    if n < 1:
        raise ValueError("need n >= 1")
    vol = sphere_volume(n, t)
    return (n - math.log2(vol)) / n


def hamming_rate_root(tol=1e-12):
    """The tau where the asymptotic Hamming rate crosses zero.

    The rate is strictly decreasing on [0, 1/2] (derivative
    -log2(3) - log2((1-tau)/tau) < 0 there) from 1 to below zero, so
    bisection on that bracket converges to the unique root.
    """
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if asymptotic_hamming_rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
