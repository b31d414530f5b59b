"""Tests for the counter-based random stream.

The generator is checked against an independent pure-Python walk of the
same algorithm, and its statistical output against textbook properties.
"""

import ast
import sys
import threading

import numpy as np
import pytest

from evtrisk import rng
from evtrisk.distributions import _TILE, TSTUDENT5, UNIFORM01
from evtrisk.rng import (RandomStream, _counter_words, _fold, _mix64_array, derive_seed, mix64,
                         uniform_planes)
from helpers import traced_peaks

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def counter_words(seeds, first, n, stride=1):
    """``_counter_words`` into fresh buffers of the words' shape."""
    out = np.empty(np.shape(seeds) + (n,), np.uint64)
    return _counter_words(seeds, first, stride, out, np.empty_like(out))


def fetch_planes(seeds, start, n, stride=1, offsets=(0,)):
    """``uniform_planes`` into fresh buffers of the planes' shape."""
    shape = np.shape(seeds) + (n,)
    return uniform_planes(seeds, start, stride, offsets, np.empty((len(offsets),) + shape),
                          np.empty((2,) + shape, np.uint64))


def reference_words(seed, start, n):
    """Scalar re-implementation of the word sequence, as plain Python ints."""
    out = []
    for i in range(start + 1, start + n + 1):
        out.append(mix64((seed + i * GOLDEN) & MASK))
    return out


def reference_mix64(z):
    """The SplitMix64 finalizer written out longhand."""
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class TestWordGeneration:
    def test_matches_scalar_reference(self):
        got = counter_words(123456789, 0, 64)
        assert [int(w) for w in got] == reference_words(123456789, 0, 64)
        # Every third word from word 7 on, for two seeds at once.
        seeds = np.array([123456789, (1 << 64) - 1], dtype=np.uint64)
        got = counter_words(seeds, 7, 20, 3)
        assert got.shape == (2, 20)
        for seed, row in zip(seeds, got):
            want = reference_words(int(seed), 7, 58)[::3]
            assert [int(w) for w in row] == want

    def test_mix64_against_longhand(self):
        for z in (0, 1, GOLDEN, MASK, 0xDEADBEEF):
            assert mix64(z) == reference_mix64(z)

    def test_same_seed_same_sequence(self):
        a = UNIFORM01.sample(1000, RandomStream(7))
        b = UNIFORM01.sample(1000, RandomStream(7))
        np.testing.assert_array_equal(a, b)

    def test_chunked_uniforms_splice(self):
        whole = UNIFORM01.sample(30, RandomStream(99))
        stream = RandomStream(99)
        parts = np.concatenate([UNIFORM01.sample(11, stream), UNIFORM01.sample(19, stream)])
        np.testing.assert_array_equal(whole, parts)

    def test_counter_resume(self):
        stream = RandomStream(5)
        UNIFORM01.sample(17, stream)
        resumed = RandomStream(5, counter=17)
        np.testing.assert_array_equal(UNIFORM01.sample(8, stream), UNIFORM01.sample(8, resumed))

    def test_different_seeds_differ(self):
        a = counter_words(1, 0, 16)
        b = counter_words(2, 0, 16)
        assert not np.array_equal(a, b)


class TestCounterRamp:
    """Counters are a kept step ramp plus one head per run: the words of
    the ``arange`` formula they replaced, at any count, stride and seed
    shape, and no ramp longer than a count asked for.  Cutting a draw into
    tiles is ``Distribution._draw``'s (``TestTiledDraw``)."""

    SEEDS = np.array([[0, 1, 2**63 + 5], [(1 << 64) - 1, GOLDEN, 987654321]], np.uint64)

    @staticmethod
    def arange_words(seeds, first, n, stride):
        idx = np.arange(first + 1, first + 1 + stride * n, stride, dtype=np.uint64)
        idx *= np.uint64(GOLDEN)
        return _mix64_array(np.asarray(seeds, dtype=np.uint64)[..., None] + idx)

    @pytest.mark.parametrize("n", [1, 99, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3])
    @pytest.mark.parametrize("stride", [1, 6])
    def test_equals_arange_formula(self, n, stride):
        for seeds in (self.SEEDS, self.SEEDS[1], (1 << 64) - 1):
            for first in (0, 7, 6 * _TILE + 3):
                got = counter_words(seeds, first, n, stride)
                assert got.shape == np.shape(seeds) + (n,)
                assert got.tobytes() == self.arange_words(seeds, first, n, stride).tobytes()

    @pytest.mark.parametrize("stride", [1, 6])
    def test_counter_wraps_past_two_to_the_64(self, stride):
        # The counter passes 2**64 inside the run; a word is that of its
        # counter modulo 2**64.
        n, first = _TILE + 10, 2**64 - stride * _TILE - 5
        got = counter_words(self.SEEDS, first, n, stride)
        for seed, row in zip(self.SEEDS.ravel(), got.reshape(-1, n)):
            want = [mix64((int(seed) + (first + 1 + stride * v) * GOLDEN) & MASK)
                    for v in range(n)]
            assert row.tolist() == want

    def test_threads_grow_the_shared_ramps(self):
        # More threads than cores, switching every microsecond, grow the
        # shared ramps from nothing; a reader keeps the ramp it took, so a
        # ramp replaced under it must not change a word.
        errors, old = [], sys.getswitchinterval()

        def grow(i):
            for n in range(1 + i, 400, 7):
                for stride in (1, 6):
                    got = counter_words(self.SEEDS, i, n, stride)
                    if got.tobytes() != self.arange_words(self.SEEDS, i, n, stride).tobytes():
                        errors.append((i, n, stride))

        sys.setswitchinterval(1e-6)
        try:
            rng._RAMPS.clear()
            threads = [threading.Thread(target=grow, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_ramp_grows_to_the_longest_count_asked(self):
        rng._RAMPS.clear()
        for m in (20, 99, 57):
            counter_words(self.SEEDS, 0, m, 6)
        assert rng._RAMPS[6].size == 99
        # A sample past one tile is drawn a tile at a time.
        UNIFORM01.sample(10**6, RandomStream(3))
        assert rng._RAMPS[1].size == _TILE
        for stride, ramp in rng._RAMPS.items():
            assert not ramp.flags.writeable
            assert ramp.tolist() == [v * stride * GOLDEN & MASK for v in range(ramp.size)]


class TestUniform:
    """The ``uniform01`` law's draw: the stream's words as uniforms, unmapped."""

    def test_matches_scalar_reference(self):
        # Across a tile boundary and from a counter past zero: the top 53
        # bits of each reference word, offset by half an ulp.
        n, start = _TILE + 5, 3
        stream = RandomStream(2**63 + 11, counter=start)
        want = [((w >> 11) + 0.5) * 2.0**-53 for w in reference_words(2**63 + 11, start, n)]
        assert UNIFORM01.sample(n, stream).tolist() == want
        assert stream.counter == start + n

    def test_peak_memory_is_the_output(self):
        # Filled a tile at a time in the thread's kept workspace: a warm
        # call allocates its output and nothing of a tile's size.
        n = 10**6
        _, warm, _ = traced_peaks(lambda: UNIFORM01.sample(n, RandomStream(5)))
        assert warm - 8 * n < 2**12, warm - 8 * n

    def test_open_interval(self):
        u = UNIFORM01.sample(100_000, RandomStream(2024))
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_moments(self):
        u = UNIFORM01.sample(200_000, RandomStream(31337))
        assert abs(u.mean() - 0.5) < 0.003
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    def test_ks_distance(self):
        u = np.sort(UNIFORM01.sample(20_000, RandomStream(8)))
        i = np.arange(1, u.size + 1)
        ks = max(np.max(i / u.size - u), np.max(u - (i - 1) / u.size))
        assert ks < 0.015  # 1.36/sqrt(n) is ~0.0096 at the 5% level


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_part_types_do_not_collide(self):
        assert derive_seed("12") != derive_seed(12)

    # A float part would fold as its integer part (2.7 would give the seed
    # of 2); it is refused by its position instead, and integer likes
    # fold as their value.
    @pytest.mark.parametrize("parts, message", [
        ((1, 2.7), r"^parts\[1\]: 2\.7 is not an integer$"),
        ((2.0, "x"), r"^parts\[0\]: 2\.0 is not an integer$"),
        ((1, None), r"^parts\[1\]: None is not an integer$"),
        ((1, np.int64(2)), None),
        ((1, np.uint64(2)), None),
        ((1, True), None),
    ])
    def test_parts_must_be_integers_or_strings(self, parts, message):
        if message is not None:
            with pytest.raises(ValueError, match=message):
                derive_seed(*parts)
        else:
            assert derive_seed(*parts) == derive_seed(*(int(p) for p in parts))


class TestBatchedStreams:
    """Row i of a batched draw is the stream of seed i, bit for bit."""

    SEEDS = [0, 1, 2**63 + 5, (1 << 64) - 1, derive_seed(7, "pareto2", 20, 3)]

    def test_fold_matches_scalar_derive_seed(self):
        # The last fold of derive_seed for a whole array of trial indices.
        got = _fold(np.uint64(derive_seed(1729, "gumbel", 35)), np.arange(50, dtype=np.uint64))
        want = [derive_seed(1729, "gumbel", 35, t) for t in range(50)]
        assert [int(s) for s in got] == want

    def test_uniform_planes(self):
        rows = fetch_planes(self.SEEDS, 0, 33)
        assert rows.shape == (1, len(self.SEEDS), 33)
        for seed, row in zip(self.SEEDS, rows[0]):
            np.testing.assert_array_equal(row, UNIFORM01.sample(33, RandomStream(seed)))
        # Kept offsets of each group of six words, from word 4 on: one
        # contiguous plane per offset.
        planes = fetch_planes(self.SEEDS, 4, 33, 6, (0, 1, 2, 4))
        assert planes.shape == (4, len(self.SEEDS), 33)
        assert all(plane.flags.c_contiguous for plane in planes)
        for seed, groups in zip(self.SEEDS, planes.transpose(1, 2, 0)):
            want = UNIFORM01.sample(6 * 33, RandomStream(seed, counter=4)).reshape(33, 6)
            np.testing.assert_array_equal(groups, want[:, [0, 1, 2, 4]])

    def test_stream_planes_advance_by_whole_groups(self):
        # Student-t reserves six words per value on the stream and reads
        # its planes at the stream's counter, whatever the counter.
        stream = RandomStream(5, counter=3)
        got = TSTUDENT5.sample(10, stream)
        assert stream.counter == 63
        planes = fetch_planes(5, 3, 10, 6, TSTUDENT5._word_offsets)
        np.testing.assert_array_equal(got, TSTUDENT5._transform(planes, np.empty(10)))
        np.testing.assert_array_equal(UNIFORM01.sample(2, stream),
                                      UNIFORM01.sample(2, RandomStream(5, counter=63)))

    def test_take_reserves_words(self):
        stream = RandomStream(5, counter=3)
        assert stream.take(10) == 3
        assert stream.take(0) == 13
        assert stream.counter == 13
        np.testing.assert_array_equal(UNIFORM01.sample(2, stream),
                                      UNIFORM01.sample(2, RandomStream(5, counter=13)))


class TestValidation:
    def test_negative_counter(self):
        with pytest.raises(ValueError, match=r"^counter must be >= 0, got -1$"):
            RandomStream(1, counter=-1)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            UNIFORM01.sample(-1, RandomStream(1))
        with pytest.raises(ValueError):
            RandomStream(1).take(-1)

    # A float would be truncated (seed, counter) or leave a fractional
    # counter behind (a size); each is refused by name instead.
    @pytest.mark.parametrize("call, message", [
        (lambda: RandomStream(2.7), r"^seed: 2\.7 is not an integer$"),
        (lambda: RandomStream(1, counter=2.5), r"^counter: 2\.5 is not an integer$"),
        (lambda: RandomStream(1, counter="3"), r"^counter: '3' is not an integer$"),
    ])
    def test_seed_and_counter_must_be_integers(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_sizes_must_be_integers(self):
        stream = RandomStream(1, counter=5)
        for n, message in ((2.5, r"^n: 2\.5 is not an integer$"),
                           (3.0, r"^n: 3\.0 is not an integer$"),
                           (-1, r"^n must be >= 0, got -1$")):
            with pytest.raises(ValueError, match=message):
                stream.take(n)
        assert stream.counter == 5

    def test_integer_likes_are_accepted(self):
        stream = RandomStream(np.uint64(7), counter=np.int64(3))
        assert (stream.seed, stream.counter) == (7, 3)
        np.testing.assert_array_equal(UNIFORM01.sample(np.int32(4), stream),
                                      UNIFORM01.sample(4, RandomStream(7, 3)))
        assert stream.counter == 7
        # Any integer seed, reduced modulo 2**64.
        assert RandomStream(-1).seed == MASK
        assert RandomStream(2**64 + 5).seed == 5


class TestLayering:
    def test_rng_imports_nothing_from_the_package(self):
        # rng is the bottom layer: every other module draws through it, so
        # it imports none of them, not even inside a function.
        with open(rng.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level or (node.module or "").split(".")[0] == "evtrisk":
                    found.append((node.lineno, "." * node.level + (node.module or "")))
            elif isinstance(node, ast.Import):
                found += [(node.lineno, a.name) for a in node.names
                          if a.name.split(".")[0] == "evtrisk"]
        assert found == []
