"""Tests for the cache hierarchy and its determinism properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.determinism import SplitMix64, ZeroNoise
from repro.errors import HardwareConfigError
from repro.hw.bus import BusConfig, MemoryBus
from repro.hw.cache import Cache, CacheConfig, CacheHierarchy, ReplacementPolicy


def make_cache(size=4096, line=64, ways=2, policy=ReplacementPolicy.LRU,
               rng=None):
    return Cache(CacheConfig(size_bytes=size, line_bytes=line, ways=ways,
                             policy=policy), rng=rng)


def quiet_bus():
    return MemoryBus(BusConfig(), ZeroNoise())


class TestCacheConfig:
    def test_num_sets(self):
        cfg = CacheConfig(size_bytes=4096, line_bytes=64, ways=2)
        assert cfg.num_sets == 32

    def test_rejects_bad_geometry(self):
        with pytest.raises(HardwareConfigError):
            CacheConfig(size_bytes=0)
        with pytest.raises(HardwareConfigError):
            CacheConfig(size_bytes=1000, line_bytes=64, ways=3)

    def test_rejects_negative_latency(self):
        with pytest.raises(HardwareConfigError):
            CacheConfig(size_bytes=4096, hit_cycles=-1)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(HardwareConfigError):
            Cache(CacheConfig(size_bytes=4096, line_bytes=48, ways=1))


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        c = make_cache()
        assert not c.access(0x1000)
        assert c.access(0x1000)
        assert c.misses == 1 and c.hits == 1

    def test_same_line_is_one_entry(self):
        c = make_cache(line=64)
        c.access(0x100)
        assert c.access(0x13F)  # same 64-byte line
        assert not c.access(0x140)  # next line

    def test_lru_eviction_order(self):
        c = make_cache(size=128, line=64, ways=2)  # 1 set, 2 ways
        c.access(0x0)
        c.access(0x40)
        c.access(0x0)       # touch A again: LRU victim is now B
        c.access(0x80)      # evicts B
        assert c.contains(0x0)
        assert not c.contains(0x40)

    def test_fifo_eviction_order(self):
        c = make_cache(size=128, line=64, ways=2,
                       policy=ReplacementPolicy.FIFO)
        c.access(0x0)
        c.access(0x40)
        c.access(0x0)       # FIFO ignores recency
        c.access(0x80)      # evicts A (oldest insertion)
        assert not c.contains(0x0)
        assert c.contains(0x40)

    def test_random_policy_is_seed_deterministic(self):
        def run(seed):
            c = make_cache(size=256, ways=4, policy=ReplacementPolicy.RANDOM,
                           rng=SplitMix64(seed))
            results = []
            for i in range(200):
                results.append(c.access((i * 7919) % 4096))
            return results, c.state_fingerprint()

        assert run(5) == run(5)

    def test_random_policy_differs_across_seeds(self):
        def run(seed):
            c = make_cache(size=256, line=64, ways=4,
                           policy=ReplacementPolicy.RANDOM,
                           rng=SplitMix64(seed))
            for i in range(500):
                c.access((i * 7919) % 8192)
            return c.state_fingerprint()

        assert run(1) != run(2)

    def test_flush_empties(self):
        c = make_cache()
        for i in range(10):
            c.access(i * 64)
        assert c.occupancy == 10
        c.flush()
        assert c.occupancy == 0
        assert not c.contains(0)

    def test_pollute_fills_lines(self):
        c = make_cache(size=8192, ways=4)
        c.pollute(SplitMix64(1), 20)
        assert c.occupancy > 0

    def test_randomize_is_bounded_by_fraction(self):
        c = make_cache(size=8192, ways=4)
        c.randomize(SplitMix64(3), fill_fraction=0.5)
        assert 0 < c.occupancy <= c.config.num_sets * c.config.ways

    def test_fingerprint_reflects_state(self):
        a, b = make_cache(), make_cache()
        assert a.state_fingerprint() == b.state_fingerprint()
        a.access(0x40)
        assert a.state_fingerprint() != b.state_fingerprint()
        b.access(0x40)
        assert a.state_fingerprint() == b.state_fingerprint()

    def test_sets_keep_their_dicts(self):
        """Every state change mutates the set dicts in place: compiled
        trace blocks hold a set's dict across the accesses of one call."""
        c = make_cache(size=1024, ways=2)
        sets = list(c._sets)
        rng = SplitMix64(9)

        def fill():
            for i in range(3 * len(sets)):
                c.fill(i % len(sets), i)

        for change in (fill, c.flush, lambda: c.pollute(rng, 40),
                       lambda: c.randomize(rng, fill_fraction=0.75), fill,
                       c.flush):
            change()
            assert len(c._sets) == len(sets)
            assert all(now is then for now, then in zip(c._sets, sets))
        assert c.misses and c.occupancy == 0

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20),
                    min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_identical_streams_identical_state(self, addrs):
        """The core TDR cache property: same access stream => same state."""
        a, b = make_cache(), make_cache()
        for addr in addrs:
            assert a.access(addr) == b.access(addr)
        assert a.state_fingerprint() == b.state_fingerprint()

    @given(st.lists(st.integers(min_value=0, max_value=1 << 16),
                    min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        c = make_cache(size=1024, ways=2)
        for addr in addrs:
            c.access(addr)
        assert c.occupancy <= c.config.num_sets * c.config.ways


class TestCacheHierarchy:
    def make(self, dram=200):
        l1 = make_cache(size=1024, ways=2)
        l2 = make_cache(size=8192, ways=4)
        return CacheHierarchy(l1, l2, quiet_bus(), dram_cycles=dram)

    def test_cost_ordering(self):
        h = self.make()
        cold = h.access(0x4000)          # miss everywhere
        l1_hit = h.access(0x4000)        # L1 hit
        assert cold > l1_hit
        assert l1_hit == h.l1.config.hit_cycles

    def test_l2_hit_cost(self):
        h = self.make()
        h.access(0x0)
        # Evict 0x0 from tiny L1 but keep it in L2.
        for i in range(1, 64):
            h.access(i * 1024 * 64)
        cost = h.access(0x0)
        expected = h.l1.config.hit_cycles + h.l2.config.hit_cycles
        assert cost in (expected, expected + h.dram_cycles) or cost == expected

    def test_dram_count(self):
        h = self.make()
        h.access(0x0)
        h.access(0x0)
        assert h.dram_accesses == 1

    def test_flush_flushes_both(self):
        h = self.make()
        h.access(0x0)
        h.flush()
        assert h.l1.occupancy == 0 and h.l2.occupancy == 0

    def test_negative_dram_rejected(self):
        with pytest.raises(HardwareConfigError):
            self.make(dram=-1)

    def test_pollute_touches_both_levels(self):
        h = self.make()
        h.pollute(SplitMix64(1), 8, 16)
        assert h.l1.occupancy > 0 and h.l2.occupancy > 0

    def test_hierarchy_fingerprint_deterministic(self):
        a, b = self.make(), self.make()
        for i in range(100):
            a.access(i * 64)
            b.access(i * 64)
        assert a.state_fingerprint() == b.state_fingerprint()
