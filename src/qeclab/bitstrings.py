"""Exact binary n-tuple algebra.

Every error operator in this package is named by one or two binary n-tuples,
so this module fixes the conventions once:

* position 0 is the *leftmost* character of the textual form ``(001010)``
  and addresses qubit 0;
* a length-n tuple maps to a basis-state index with position 0 as the most
  significant bit, so printed kets read left-to-right.

Tuples are immutable and desk-scale (n <= 16); all arithmetic is exact.
"""

from __future__ import annotations


class BitString:
    """An immutable binary n-tuple with mod-2 algebra."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1, got %r" % (bits,))
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    # -- construction ----------------------------------------------------

    @classmethod
    def zeros(cls, n):
        return cls((0,) * n)

    @classmethod
    def ones(cls, n):
        return cls((1,) * n)

    @classmethod
    def from_text(cls, text):
        """Parse the textual form ``(001010)`` (parentheses optional)."""
        s = text.strip()
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        if not s or any(c not in "01" for c in s):
            raise ValueError("not a bitstring literal: %r" % (text,))
        return cls(int(c) for c in s)

    @classmethod
    def from_index(cls, index, n):
        """Inverse of :meth:`to_index` (position 0 = most significant bit)."""
        if not 0 <= index < (1 << n):
            raise ValueError("index %d out of range for %d bits" % (index, n))
        return cls((index >> (n - 1 - i)) & 1 for i in range(n))

    # -- basic protocol --------------------------------------------------

    def __len__(self):
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def __eq__(self, other):
        return isinstance(other, BitString) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return "(" + "".join(str(b) for b in self.bits) + ")"

    # -- algebra ---------------------------------------------------------

    def _check_len(self, other):
        if len(self) != len(other):
            raise ValueError(
                "length mismatch: %d vs %d" % (len(self), len(other)))

    def __add__(self, other):
        """Elementwise XOR (mod-2 addition); every element is self-inverse."""
        self._check_len(other)
        return BitString(a ^ b for a, b in zip(self.bits, other.bits))

    def dot(self, other):
        """Scalar product mod 2."""
        self._check_len(other)
        return sum(a & b for a, b in zip(self.bits, other.bits)) & 1

    def support(self):
        """0-based positions of the ones."""
        return {i for i, b in enumerate(self.bits) if b}

    def is_zero(self):
        return not any(self.bits)

    def to_index(self):
        """Basis-state index; position 0 is the most significant bit."""
        idx = 0
        for b in self.bits:
            idx = (idx << 1) | b
        return idx
