"""Tests for the counter-based random stream.

The generator is checked against an independent pure-Python walk of the
same algorithm, and its statistical output against textbook properties.
"""

import numpy as np
import pytest

from evtrisk.rng import RandomStream, derive_seed, derive_seeds, mix64, uniform_rows

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
        stream = RandomStream(123456789)
        got = stream.words(64)
        want = reference_words(123456789, 0, 64)
        assert [int(w) for w in got] == want

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
        a = RandomStream(1).words(16)
        b = RandomStream(2).words(16)
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


class TestNormal:
    def test_moments(self):
        z = RandomStream(44).normal(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs(np.mean(z ** 3)) < 0.03

    def test_odd_request_length(self):
        z = RandomStream(45).normal(7)
        assert z.shape == (7,)

    def test_word_consumption(self):
        stream = RandomStream(46)
        stream.normal(7)
        assert stream.counter == 8  # 4 Box-Muller pairs


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_part_types_do_not_collide(self):
        assert derive_seed("12") != derive_seed(12)

    def test_spawn_independence(self):
        parent = RandomStream(10)
        child_a = parent.spawn("a")
        child_b = parent.spawn("b")
        assert child_a.seed != child_b.seed
        assert child_a.seed != parent.seed
        assert not np.array_equal(child_a.words(8), child_b.words(8))


class TestBatchedStreams:
    """Row i of a batched draw is the stream of seed i, bit for bit."""

    SEEDS = [0, 1, 2**63 + 5, (1 << 64) - 1, derive_seed(7, "pareto2", 20, 3)]

    def test_derive_seeds_matches_scalar_fold(self):
        got = derive_seeds((1729, "gumbel", 35), np.arange(50))
        want = [derive_seed(1729, "gumbel", 35, t) for t in range(50)]
        assert [int(s) for s in got] == want

    def test_uniform_rows(self):
        rows = uniform_rows(self.SEEDS, 33)
        assert rows.shape == (len(self.SEEDS), 33)
        for seed, row in zip(self.SEEDS, rows):
            np.testing.assert_array_equal(row, RandomStream(seed).uniform(33))


class TestValidation:
    def test_negative_counter(self):
        with pytest.raises(ValueError):
            RandomStream(1, counter=-1)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            RandomStream(1).words(-1)
