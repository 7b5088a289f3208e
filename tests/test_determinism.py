"""Tests for the deterministic RNG substrate."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.determinism import SplitMix64, ZeroNoise, hash_string, mix64


class TestSplitMix64:
    def test_same_seed_same_stream(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(100)] == \
               [b.next_u64() for _ in range(100)]

    def test_different_seeds_differ(self):
        a = SplitMix64(1)
        b = SplitMix64(2)
        assert [a.next_u64() for _ in range(4)] != \
               [b.next_u64() for _ in range(4)]

    def test_outputs_are_64_bit(self):
        rng = SplitMix64(7)
        for _ in range(1000):
            v = rng.next_u64()
            assert 0 <= v < (1 << 64)

    def test_fork_is_deterministic(self):
        a = SplitMix64(5).fork("bus")
        b = SplitMix64(5).fork("bus")
        assert a.next_u64() == b.next_u64()

    def test_fork_labels_distinguish(self):
        parent = SplitMix64(5)
        a = parent.fork("bus")
        parent2 = SplitMix64(5)
        b = parent2.fork("irq")
        assert a.next_u64() != b.next_u64()

    def test_forked_streams_independent_of_parent_progress(self):
        parent = SplitMix64(9)
        child = parent.fork("x")
        first = child.next_u64()
        # Advancing the parent must not change the child's stream.
        parent.next_u64()
        assert child.next_u64() != first  # stream continues

    @given(seed=st.integers(0, 2 ** 64 - 1), count=st.integers(0, 80))
    def test_randoms_equal_that_many_random_calls(self, seed, count):
        """The batch draw yields what ``count`` calls of ``random``
        yield and leaves the stream where they leave it."""
        batch, calls = SplitMix64(seed), SplitMix64(seed)
        assert batch.randoms(count) == [calls.random()
                                        for _ in range(count)]
        assert batch._state == calls._state

    def test_random_in_unit_interval(self):
        rng = SplitMix64(11)
        for _ in range(1000):
            assert 0.0 <= rng.random() < 1.0

    def test_uniform_respects_bounds(self):
        rng = SplitMix64(13)
        for _ in range(1000):
            v = rng.uniform(-2.5, 7.5)
            assert -2.5 <= v < 7.5

    def test_randint_inclusive_bounds(self):
        rng = SplitMix64(17)
        seen = {rng.randint(0, 3) for _ in range(500)}
        assert seen == {0, 1, 2, 3}

    def test_randint_single_value(self):
        rng = SplitMix64(17)
        assert rng.randint(5, 5) == 5

    def test_randint_empty_range_raises(self):
        with pytest.raises(ValueError):
            SplitMix64(1).randint(3, 2)

    def test_exponential_mean(self):
        rng = SplitMix64(19)
        n = 20000
        mean = sum(rng.exponential(10.0) for _ in range(n)) / n
        assert mean == pytest.approx(10.0, rel=0.05)

    def test_normal_moments(self):
        rng = SplitMix64(23)
        n = 20000
        draws = [rng.normal(3.0, 2.0) for _ in range(n)]
        mean = sum(draws) / n
        var = sum((d - mean) ** 2 for d in draws) / n
        assert mean == pytest.approx(3.0, abs=0.1)
        assert math.sqrt(var) == pytest.approx(2.0, rel=0.05)

    def test_choice_and_shuffle_deterministic(self):
        a, b = SplitMix64(3), SplitMix64(3)
        seq_a, seq_b = list(range(20)), list(range(20))
        a.shuffle(seq_a)
        b.shuffle(seq_b)
        assert seq_a == seq_b
        assert sorted(seq_a) == list(range(20))
        assert a.choice([10, 20, 30]) == b.choice([10, 20, 30])

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            SplitMix64(1).choice([])

    def test_sample_bits(self):
        bits = SplitMix64(29).sample_bits(256)
        assert len(bits) == 256
        assert set(bits) <= {0, 1}
        # Should be roughly balanced.
        assert 64 < sum(bits) < 192

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_mix64_is_a_permutation_sample(self, x):
        # mix64 must be deterministic and stay in range.
        assert mix64(x) == mix64(x)
        assert 0 <= mix64(x) < (1 << 64)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=1, max_value=100),
           st.integers(min_value=1, max_value=100))
    def test_randint_in_bounds_property(self, seed, low, span):
        rng = SplitMix64(seed)
        v = rng.randint(low, low + span)
        assert low <= v <= low + span


class TestHashString:
    def test_deterministic(self):
        assert hash_string("nic") == hash_string("nic")

    def test_distinguishes(self):
        assert hash_string("nic") != hash_string("disk")

    def test_empty_ok(self):
        assert 0 <= hash_string("") < (1 << 64)


class TestZeroNoise:
    def test_all_draws_are_floor(self):
        z = ZeroNoise()
        assert z.next_u64() == 0
        assert z.random() == 0.0
        assert z.uniform(2.0, 5.0) == 2.0
        assert z.randint(3, 9) == 3
        assert z.exponential(100.0) == 0.0
        assert z.normal(4.0, 2.0) == 4.0
        assert z.choice([7, 8]) == 7
        assert z.sample_bits(4) == [0, 0, 0, 0]

    def test_fork_returns_self(self):
        z = ZeroNoise()
        assert z.fork("anything") is z

    def test_shuffle_is_identity(self):
        z = ZeroNoise()
        seq = [3, 1, 2]
        z.shuffle(seq)
        assert seq == [3, 1, 2]
