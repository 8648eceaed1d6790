"""Portable deterministic random source for instance generation.

Test problems must be reproducible bit-for-bit from ``(r, m, seed, ...)``
alone, across platforms and across independent implementations of the same
file formats.  numpy's generators are stable in practice but their stream
layout is an implementation detail, so generation uses splitmix64 instead: a
64-bit Weyl sequence (increment 0x9E3779B97F4A7C15) whose state is scrambled
by two xor-multiply rounds per output.  The algorithm fits in a dozen lines
and has published reference outputs, which the test suite pins.

Draw conventions, part of the reproducibility contract:

* ``uniform`` takes the top 53 bits of one output: ``(u >> 11) * 2**-53``.
* ``normal`` is Box-Muller on two outputs (cosine branch first, sine branch
  cached and returned by the next call).
* ``integer(n)`` is one output reduced mod ``n`` (bias is irrelevant at the
  sizes used here).
* ``normals(n)`` is a block of ``n`` ``normal`` calls, not a convention of
  its own: it returns the same values and leaves the stream where they
  would.  Its outputs are scrambled as uint64 arrays and scaled exactly to
  float64; Box-Muller's ``log``, ``sqrt``, ``cos`` and ``sin`` stay on
  :mod:`math`, since numpy's ufuncs may round differently from libm.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# The array path keeps every operand uint64: numpy 1.x promotes a Python int
# mixed with a uint64 scalar to float64.  0-d arrays also dispatch faster
# than scalars.
_WEYL_U64, _MIX1_U64, _MIX2_U64, _S11, _S27, _S30, _S31 = (
    np.array(c, dtype=np.uint64) for c in (_WEYL, _MIX1, _MIX2, 11, 27, 30, 31))


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare_normal = None

    def next_u64(self) -> int:
        """Advance the Weyl state and return one scrambled 64-bit output."""
        self._state = (self._state + _WEYL) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller; generates in pairs."""
        if self._spare_normal is not None:
            value = self._spare_normal
            self._spare_normal = None
            return value
        # u1 in (0, 1] so the log is finite.
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        self._spare_normal = radius * math.sin(angle)
        return radius * math.cos(angle)

    def normals(self, n: int) -> np.ndarray:
        """``n`` calls of :meth:`normal` as one float64 array, bit for bit,
        leaving the state and the cached sine branch where they would."""
        out = np.empty(n)
        start = 0
        if n and self._spare_normal is not None:
            out[0], self._spare_normal, start = self._spare_normal, None, 1
        pairs = (n - start + 1) // 2
        if not pairs:
            return out
        # Output k scrambles the Weyl state state + k * WEYL, wrapped mod 2**64.
        z = np.arange(1, 2 * pairs + 1, dtype=np.uint64) * _WEYL_U64
        z += np.array(self._state, dtype=np.uint64)
        self._state = (self._state + 2 * pairs * _WEYL) & _MASK64
        z = (z ^ (z >> _S30)) * _MIX1_U64
        z = (z ^ (z >> _S27)) * _MIX2_U64
        top = (z ^ (z >> _S31)) >> _S11
        # Below 2**53, so the conversions, the + 1 and the scalings are exact.
        u1 = (top[0::2].astype(np.float64) + 1.0) * 2.0**-53
        u2 = top[1::2].astype(np.float64) * 2.0**-53
        minus_two_log = -2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, pairs)
        radius = np.fromiter(map(math.sqrt, minus_two_log.tolist()), np.float64, pairs)
        angle = ((2.0 * math.pi) * u2).tolist()
        out[start::2] = radius * np.fromiter(map(math.cos, angle), np.float64, pairs)
        sines = radius * np.fromiter(map(math.sin, angle), np.float64, pairs)
        out[start + 1::2] = sines[: (n - start) // 2]
        if (n - start) % 2:
            self._spare_normal = float(sines[-1])
        return out

    def integer(self, n: int) -> int:
        """Integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n
