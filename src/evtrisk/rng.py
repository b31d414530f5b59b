"""Deterministic, counter-based random number generation.

The experiment harness needs bit-identical results across platforms, runs,
and worker counts, so the generator is implemented here instead of relying
on the stability of any bundled PRNG.

Algorithm
---------
Word ``i`` of a stream with seed ``s`` is ``mix64(s + (i + 1) * GOLDEN)``
where ``GOLDEN = 0x9E3779B97F4A7C15`` (the 64-bit golden-ratio constant) and
``mix64`` is the SplitMix64 finalizer (shift-xor-multiply avalanche, as in
Java's ``SplittableRandom``).  All arithmetic is modulo 2**64, so a block of
words is a pure function of ``(seed, counter)`` and can be produced with
vectorized uint64 operations.  Uniform doubles are built from the top 53
bits, offset by half an ulp so that results lie strictly inside (0, 1).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MULT_1 = np.uint64(_MIX_MULT_1)
_U64_MULT_2 = np.uint64(_MIX_MULT_2)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)
_TO_UNIT = 2.0 ** -53


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (wraparound is intentional).

    Overwrites and returns ``z``, so callers pass an array they own; the
    steps are integer operations, so working in place changes no bit.
    """
    z ^= z >> _SHIFT_30
    z *= _U64_MULT_1
    z ^= z >> _SHIFT_27
    z *= _U64_MULT_2
    z ^= z >> _SHIFT_31
    return z


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int, reduced modulo 2**64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _MASK64
    return z ^ (z >> 31)


def _fnv1a(text: str) -> int:
    """FNV-1a hash of UTF-8 bytes; folds strings into seed material."""
    h = _FNV_OFFSET
    for b in text.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(*parts: int | str) -> int:
    """Derive a 64-bit seed from a mixed tuple of ints and strings.

    The derivation is order-sensitive and platform-independent; it is used
    to give every benchmark trial its own stream so that results do not
    depend on execution order or worker count.
    """
    h = _GOLDEN
    for part in parts:
        if isinstance(part, str):
            w = _fnv1a(part)
        else:
            w = int(part) & _MASK64
        h = mix64((h + _GOLDEN) ^ w)
    return h


def derive_seeds(prefix: tuple, indices) -> np.ndarray:
    """``derive_seed(*prefix, i)`` for every integer ``i`` in ``indices``.

    The last fold of :func:`derive_seed` depends only on ``i``, so the
    seeds of a whole index array come from one vectorized finalizer call.
    """
    h = np.uint64((derive_seed(*prefix) + _GOLDEN) & _MASK64)
    return _mix64_array(h ^ np.asarray(indices, dtype=np.uint64))


def _counter_words(seeds, start: int, n: int) -> np.ndarray:
    """Words ``start + 1 .. start + n`` of the stream of each seed.

    ``seeds`` is a uint64 scalar or array; the result has shape
    ``np.shape(seeds) + (n,)``.
    """
    idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    return _mix64_array(np.asarray(seeds, dtype=np.uint64)[..., None] + idx * _U64_GOLDEN)


def _to_unit(words: np.ndarray) -> np.ndarray:
    """Open-interval uniforms from the top 53 bits of each word."""
    u = (words >> _SHIFT_11).astype(np.float64)
    u += 0.5
    u *= _TO_UNIT
    return u


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms paired along the (even) last axis."""
    radius = np.sqrt(-2.0 * np.log(u[..., 0::2]))
    angle = (2.0 * np.pi) * u[..., 1::2]
    out = np.empty(u.shape)
    cos, sin = out[..., 0::2], out[..., 1::2]
    np.cos(angle, out=cos)
    cos *= radius
    np.sin(angle, out=sin)
    sin *= radius
    return out


def uniform_rows(seeds, n: int) -> np.ndarray:
    """Row ``i`` holds ``RandomStream(seeds[i]).uniform(n)``."""
    return _to_unit(_counter_words(seeds, 0, n))


class RandomStream:
    """A forkable stream of pseudo-random numbers.

    A stream is a value: its entire output is determined by ``(seed,
    counter)``.  Methods advance the counter; nothing else is mutated, so
    per-task streams (via :meth:`spawn` or :func:`derive_seed`) can be used
    concurrently without coordination.

    Parameters
    ----------
    seed : int
        Any integer; reduced modulo 2**64.
    counter : int, optional
        Word offset to resume from (default 0).
    """

    __slots__ = ("_seed", "_counter")

    def __init__(self, seed: int, counter: int = 0):
        self._seed = int(seed) & _MASK64
        if counter < 0:
            raise ValueError("counter must be non-negative")
        self._counter = int(counter)

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def counter(self) -> int:
        """Number of 64-bit words consumed so far."""
        return self._counter

    def __repr__(self) -> str:
        return f"RandomStream(seed={self._seed:#018x}, counter={self._counter})"

    def words(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words as a uint64 array."""
        if n < 0:
            raise ValueError("n must be non-negative")
        words = _counter_words(self._seed, self._counter, n)
        self._counter += n
        return words

    def uniform(self, n: int) -> np.ndarray:
        """Next ``n`` doubles, i.i.d. uniform on the open interval (0, 1)."""
        return _to_unit(self.words(n))

    def normal(self, n: int) -> np.ndarray:
        """Next ``n`` i.i.d. standard normal draws via Box-Muller.

        Consumes ``2 * ceil(n / 2)`` words: normals are produced in pairs
        from consecutive uniforms and the spare draw of an odd request is
        discarded.  Requests for even counts are therefore splice-exact,
        like :meth:`uniform`: ``normal(a)`` then ``normal(b)`` with ``a``
        even returns the values and leaves the counter of one
        ``normal(a + b)``, because no pair straddles the cut.  An odd
        ``a`` is not: its spare draw is lost.
        """
        return _box_muller(self.uniform(2 * ((n + 1) // 2)))[:n]

    def spawn(self, *key: int | str) -> "RandomStream":
        """A statistically independent child stream identified by ``key``."""
        return RandomStream(derive_seed(self._seed, "spawn", *key))
