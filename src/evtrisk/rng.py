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

import operator

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


def _integer(name: str, value, least: int | None = None) -> int:
    """``value`` as a Python int; a ``ValueError`` naming it if it is not
    an integer (so 20.5 is never truncated to 20) or is below ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: {value!r} is not an integer") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _level(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` lies in the
    open interval (0, 1), as a probability level must; NaN does not, nor
    does a value that is not one number, such as a string or an array of
    any size but a 0-d one."""
    try:
        # A float is one number, and np.ndim costs a microsecond a call.
        inside = (isinstance(value, float) or np.ndim(value) == 0) and 0.0 < value < 1.0
    except (TypeError, ValueError):
        inside = False
    if not inside:
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")


def _inside(values, lower, upper) -> bool:
    """Whether every entry of ``values`` lies in ``[lower, upper)``; NaN
    lies in no interval."""
    return bool(np.all((lower <= values) & (values < upper)))


def _like(z, out):
    """``out`` as a Python float if ``z`` is a scalar, else unchanged: a
    vectorized function answers a scalar with a scalar."""
    return float(out) if np.ndim(z) == 0 else out


def _mix64_array(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (wraparound is intentional).

    Overwrites and returns ``z``, so callers pass an array they own; the
    shifted copies go to ``scratch`` (shaped like ``z``) when one is
    given.  The steps are integer operations, so working in place changes
    no bit.
    """
    z ^= np.right_shift(z, _SHIFT_30, out=scratch)
    z *= _U64_MULT_1
    z ^= np.right_shift(z, _SHIFT_27, out=scratch)
    z *= _U64_MULT_2
    z ^= np.right_shift(z, _SHIFT_31, out=scratch)
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
    depend on execution order or worker count.  A part that is not a
    string is an integer (``operator.index``, reduced modulo 2**64), so
    2.7 raises ``ValueError`` naming its position instead of folding as 2.
    """
    h = _GOLDEN
    for i, part in enumerate(parts):
        if isinstance(part, str):
            w = _fnv1a(part)
        else:
            w = _integer(f"parts[{i}]", part) & _MASK64
        h = mix64((h + _GOLDEN) ^ w)
    return h


def _fold(heads, part) -> np.ndarray:
    """The step of :func:`derive_seed` that folds one more integer part
    into each uint64 seed of ``heads``: ``mix64((h + GOLDEN) ^ part)``,
    elementwise, with ``heads`` and ``part`` broadcast together."""
    return _mix64_array(np.add(heads, _U64_GOLDEN) ^ part)


# Per stride, the step ramp of _counter_words; read-only, so threads share it.
_RAMPS: dict[int, np.ndarray] = {}


def _ramp(stride: int, n: int) -> np.ndarray:
    """``v * stride * GOLDEN`` (mod 2**64) for ``v`` below ``n``: a view of
    the ramp kept for ``stride``, which grows only to the longest ``n``
    asked so far, so a caller of short counts keeps a short ramp, and the
    draws, which fetch a tile at a time (``Distribution._draw``), keep at
    most one tile's."""
    ramp = _RAMPS.get(stride)
    if ramp is None or ramp.size < n:
        ramp = np.arange(n, dtype=np.uint64)
        ramp *= np.uint64(stride * _GOLDEN & _MASK64)
        ramp.setflags(write=False)
        _RAMPS[stride] = ramp
    return ramp[:n]


def _counter_words(seeds, first: int, stride: int, out: np.ndarray,
                   scratch: np.ndarray) -> np.ndarray:
    """Words ``first, first + stride, ...`` (0-based) of the stream of
    each seed, as many as ``out`` has along its last axis.

    ``seeds`` is a uint64 scalar or array; the words are written to
    ``out``, and the hash's shifts to ``scratch``, uint64 arrays of shape
    ``np.shape(seeds) + (n,)``, and ``out`` is returned.  Word ``v`` is
    hashed from ``seed + (first + 1) * GOLDEN`` plus ``v * stride *
    GOLDEN``, the kept ramp's entry (:func:`_ramp`), so the counters take
    one addition and no array of their own.
    """
    heads = np.add(np.asarray(seeds, dtype=np.uint64), (first + 1) * _GOLDEN & _MASK64)
    np.add(heads[..., None], _ramp(stride, out.shape[-1]), out=out)
    return _mix64_array(out, scratch)


def uniform_planes(seeds, start: int, stride: int, offsets: tuple[int, ...],
                   out: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Uniforms of ``n`` groups of ``stride`` words from word ``start`` on,
    keeping the words at ``offsets`` within each group; ``n`` is the
    length of ``out``'s last axis.

    Plane ``j`` of seed ``s`` holds, at ``v``, the uniform of word
    ``start + stride * v + offsets[j]`` of the stream of ``s``; the planes
    are written to ``out``, of shape ``(len(offsets),) + np.shape(seeds)
    + (n,)``, and ``out`` is returned.  Words at other offsets are never
    hashed.  A uniform is the top 53 bits of its word, offset by half an
    ulp.  The words are hashed in ``words``, two uint64 planes of shape
    ``(2,) + np.shape(seeds) + (n,)``, so nothing here allocates an array
    of a plane's size.  Nothing is validated here: this is the one fetch
    behind every draw, and its callers pass sizes they have checked (a
    stream reserves its words with :meth:`RandomStream.take`).
    """
    for plane, offset in zip(out, offsets):
        # One plane at a time, so the hash's buffers stay a plane in size.
        w = _counter_words(seeds, start + offset, stride, *words)
        w >>= _SHIFT_11
        plane[...] = w
        plane += 0.5
        plane *= _TO_UNIT
    return out


class RandomStream:
    """A stream of pseudo-random numbers.

    A stream is a value: its entire output is determined by ``(seed,
    counter)``.  Methods advance the counter; nothing else is mutated, so
    per-task streams (seeded by :func:`derive_seed`) can be used
    concurrently without coordination.

    Parameters
    ----------
    seed : int
        Any integer; reduced modulo 2**64.
    counter : int, optional
        Word offset to resume from (default 0), an integer >= 0.

    The seed, the counter and every size ``n`` are integers in the
    ``operator.index`` sense: a float such as 2.5 raises ``ValueError``
    naming the argument instead of being truncated or leaving a fractional
    counter behind.

    A stream only counts words: :meth:`take` reserves the next ``n``, and
    its caller fetches them itself, with :func:`uniform_planes` at the
    returned counter.  Every draw, uniforms included
    (``UNIFORM01.sample``), goes through ``Distribution``.
    """

    __slots__ = ("_seed", "_counter")

    def __init__(self, seed: int, counter: int = 0):
        self._seed = _integer("seed", seed) & _MASK64
        self._counter = _integer("counter", counter, 0)

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def counter(self) -> int:
        """Number of 64-bit words consumed so far."""
        return self._counter

    def __repr__(self) -> str:
        return f"RandomStream(seed={self._seed:#018x}, counter={self._counter})"

    def take(self, n: int) -> int:
        """Reserve the next ``n`` words: advance the counter by ``n`` and
        return its value before, where the reserved words start."""
        first = self._counter
        self._counter += _integer("n", n, 0)
        return first
