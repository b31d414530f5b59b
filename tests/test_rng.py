"""Tests for the counter-based random stream.

The generator is checked against an independent pure-Python walk of the
same algorithm, and its statistical output against textbook properties.
"""

import numpy as np
import pytest

from evtrisk.distributions import TSTUDENT5
from evtrisk.rng import (RandomStream, _counter_words, _fold, derive_seed, mix64,
                         uniform_planes)

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


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
        got = _counter_words(123456789, 0, 64)
        assert [int(w) for w in got] == reference_words(123456789, 0, 64)
        # Every third word from word 7 on, for two seeds at once.
        seeds = np.array([123456789, (1 << 64) - 1], dtype=np.uint64)
        got = _counter_words(seeds, 7, 20, 3)
        assert got.shape == (2, 20)
        for seed, row in zip(seeds, got):
            want = reference_words(int(seed), 7, 58)[::3]
            assert [int(w) for w in row] == want

    def test_mix64_against_longhand(self):
        for z in (0, 1, GOLDEN, MASK, 0xDEADBEEF):
            assert mix64(z) == reference_mix64(z)

    def test_same_seed_same_sequence(self):
        a = RandomStream(7).uniform(1000)
        b = RandomStream(7).uniform(1000)
        np.testing.assert_array_equal(a, b)

    def test_chunked_uniforms_splice(self):
        whole = RandomStream(99).uniform(30)
        stream = RandomStream(99)
        parts = np.concatenate([stream.uniform(11), stream.uniform(19)])
        np.testing.assert_array_equal(whole, parts)

    def test_counter_resume(self):
        stream = RandomStream(5)
        stream.uniform(17)
        resumed = RandomStream(5, counter=17)
        np.testing.assert_array_equal(stream.uniform(8), resumed.uniform(8))

    def test_different_seeds_differ(self):
        a = _counter_words(1, 0, 16)
        b = _counter_words(2, 0, 16)
        assert not np.array_equal(a, b)


class TestUniform:
    def test_open_interval(self):
        u = RandomStream(2024).uniform(100_000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_moments(self):
        u = RandomStream(31337).uniform(200_000)
        assert abs(u.mean() - 0.5) < 0.003
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    def test_ks_distance(self):
        u = np.sort(RandomStream(8).uniform(20_000))
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
        rows = uniform_planes(self.SEEDS, 0, 33)
        assert rows.shape == (1, len(self.SEEDS), 33)
        for seed, row in zip(self.SEEDS, rows[0]):
            np.testing.assert_array_equal(row, RandomStream(seed).uniform(33))
        # Kept offsets of each group of six words, from word 4 on: one
        # contiguous plane per offset.
        planes = uniform_planes(self.SEEDS, 4, 33, 6, (0, 1, 2, 4))
        assert planes.shape == (4, len(self.SEEDS), 33)
        assert all(plane.flags.c_contiguous for plane in planes)
        for seed, groups in zip(self.SEEDS, planes.transpose(1, 2, 0)):
            want = RandomStream(seed, counter=4).uniform(6 * 33).reshape(33, 6)
            np.testing.assert_array_equal(groups, want[:, [0, 1, 2, 4]])

    def test_stream_planes_advance_by_whole_groups(self):
        # Student-t reserves six words per value on the stream and reads
        # its planes at the stream's counter, whatever the counter.
        stream = RandomStream(5, counter=3)
        got = TSTUDENT5.sample(10, stream)
        assert stream.counter == 63
        planes = uniform_planes(5, 3, 10, 6, TSTUDENT5._word_offsets)
        np.testing.assert_array_equal(got, TSTUDENT5._transform(planes, np.empty(10)))
        np.testing.assert_array_equal(stream.uniform(2), RandomStream(5, counter=63).uniform(2))

    def test_take_reserves_words(self):
        stream = RandomStream(5, counter=3)
        assert stream.take(10) == 3
        assert stream.take(0) == 13
        assert stream.counter == 13
        np.testing.assert_array_equal(stream.uniform(2), RandomStream(5, counter=13).uniform(2))


class TestValidation:
    def test_negative_counter(self):
        with pytest.raises(ValueError, match=r"^counter must be >= 0, got -1$"):
            RandomStream(1, counter=-1)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            RandomStream(1).uniform(-1)
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

    @pytest.mark.parametrize("draw", [
        lambda stream, n: stream.uniform(n),
        lambda stream, n: stream.take(n),
    ])
    def test_sizes_must_be_integers(self, draw):
        stream = RandomStream(1, counter=5)
        for n, message in ((2.5, r"^n: 2\.5 is not an integer$"),
                           (3.0, r"^n: 3\.0 is not an integer$"),
                           (-1, r"^n must be >= 0, got -1$")):
            with pytest.raises(ValueError, match=message):
                draw(stream, n)
        assert stream.counter == 5

    def test_integer_likes_are_accepted(self):
        stream = RandomStream(np.uint64(7), counter=np.int64(3))
        assert (stream.seed, stream.counter) == (7, 3)
        np.testing.assert_array_equal(stream.uniform(np.int32(4)), RandomStream(7, 3).uniform(4))
        assert stream.counter == 7
        # Any integer seed, reduced modulo 2**64.
        assert RandomStream(-1).seed == MASK
        assert RandomStream(2**64 + 5).seed == 5
