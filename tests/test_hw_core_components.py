"""Tests for clock, bus, memory/TLB, branch predictor, CPU model,
interrupts, storage, and NIC."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.determinism import SplitMix64, ZeroNoise
from repro.errors import HardwareConfigError
from repro.hw.branch import BranchPredictor, BranchPredictorConfig
from repro.hw.bus import BusConfig, MemoryBus
from repro.hw.clock import VirtualClock
from repro.hw.cpu import (CostClass, CpuModel, CpuTimingConfig,
                          INTERPRETER_COSTS, JIT_COSTS)
from repro.hw.interrupts import InterruptController, IrqSource, standard_sources
from repro.hw.memory import AddressSpace, FrameAllocator, PAGE_SIZE
from repro.hw.nic import Nic
from repro.hw.storage import Hdd, PaddedStorage, Ssd
from repro.hw.tlb import Tlb, TlbConfig


class TestVirtualClock:
    def test_advance_accumulates(self):
        clk = VirtualClock()
        clk.advance(100)
        clk.advance(50)
        assert clk.cycles == 150

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_ns_conversion(self):
        clk = VirtualClock(frequency_hz=1e9)
        clk.advance(1000)
        assert clk.now_ns() == pytest.approx(1000.0)
        assert clk.now_ms() == pytest.approx(1e-3)

    def test_cycles_for_ns_roundtrip(self):
        clk = VirtualClock(frequency_hz=3.4e9)
        assert clk.cycles_for_ns(0) == 0
        assert clk.cycles_for_ms(1.0) == pytest.approx(3.4e6, rel=1e-6)

    def test_reset(self):
        clk = VirtualClock()
        clk.advance(5)
        clk.reset()
        assert clk.cycles == 0

    def test_bad_frequency_rejected(self):
        with pytest.raises(HardwareConfigError):
            VirtualClock(frequency_hz=0)


class TestMemoryBus:
    def test_no_traffic_no_penalty(self):
        bus = MemoryBus(BusConfig(), SplitMix64(1))
        assert all(bus.transfer_penalty() == 0 for _ in range(100))

    def test_traffic_induces_stalls(self):
        bus = MemoryBus(BusConfig(contention_probability=0.5), SplitMix64(1))
        bus.set_traffic_level(1.0)
        stalls = [bus.transfer_penalty() for _ in range(500)]
        assert any(s > 0 for s in stalls)
        assert bus.collisions > 0
        assert bus.total_stall_cycles == sum(stalls)

    def test_stall_bounded(self):
        cfg = BusConfig(contention_probability=1.0, max_stall_cycles=7)
        bus = MemoryBus(cfg, SplitMix64(2))
        bus.set_traffic_level(1.0)
        assert all(1 <= bus.transfer_penalty() <= 7 for _ in range(200))

    def test_traffic_clamped(self):
        bus = MemoryBus(BusConfig(), ZeroNoise())
        bus.add_traffic(5.0)
        assert bus.traffic_level == 1.0
        # 0.6**27 is just above the 1e-6 snap, 0.6**28 below it.
        bus.decay(27)
        assert bus.traffic_level > 0.0
        bus.decay()
        assert bus.traffic_level == 0.0

    def test_decay(self):
        bus = MemoryBus(BusConfig(), ZeroNoise())
        bus.set_traffic_level(0.8)
        bus.decay()
        assert bus.traffic_level == pytest.approx(0.48)

    @settings(max_examples=200, deadline=None)
    @given(level=st.floats(min_value=0.0, max_value=1.0),
           floor=st.sampled_from([0.0, 1e-7, 0.3, 0.97, 1.0, 1.5]),
           steps=st.integers(min_value=0, max_value=40))
    def test_decay_runs_match_single_steps(self, level, floor, steps):
        """``decay(k)`` is k steps of ``level * 0.6``, snapped to zero
        below 1e-6 and raised to the background floor (clamped to 1)."""
        expected = level
        for _ in range(steps):
            expected *= 0.6
            if expected < 1e-6:
                expected = 0.0
            if expected < floor:
                expected = min(1.0, floor)
        bus = MemoryBus(BusConfig(), ZeroNoise(), floor=floor)
        bus.set_traffic_level(level)
        bus.decay(steps)
        assert bus.traffic_level == expected

    def test_zero_noise_never_stalls(self):
        bus = MemoryBus(BusConfig(contention_probability=0.9), ZeroNoise())
        bus.set_traffic_level(1.0)
        # ZeroNoise.random()==0.0 < p, so a collision fires but with the
        # minimum stall; determinism still holds.
        first = [bus.transfer_penalty() for _ in range(5)]
        assert first == [1, 1, 1, 1, 1]

    def test_invalid_config(self):
        with pytest.raises(HardwareConfigError):
            BusConfig(contention_probability=1.5)
        with pytest.raises(HardwareConfigError):
            BusConfig(max_stall_cycles=-1)


class TestMemoryAndTlb:
    def test_deterministic_allocator_sequence(self):
        a = FrameAllocator(16, deterministic=True, noise_rng=SplitMix64(1))
        assert [a.allocate() for _ in range(4)] == [0, 1, 2, 3]

    def test_random_allocator_is_seed_dependent(self):
        a = FrameAllocator(64, deterministic=False, noise_rng=SplitMix64(1))
        b = FrameAllocator(64, deterministic=False, noise_rng=SplitMix64(2))
        seq_a = [a.allocate() for _ in range(16)]
        seq_b = [b.allocate() for _ in range(16)]
        assert seq_a != seq_b

    def test_allocator_exhaustion(self):
        a = FrameAllocator(1, deterministic=True, noise_rng=ZeroNoise())
        a.allocate()
        with pytest.raises(HardwareConfigError):
            a.allocate()

    @settings(max_examples=80, deadline=None)
    @given(num_frames=st.integers(1, 600), deterministic=st.booleans(),
           seed=st.integers(0, 2**64 - 1), zero_noise=st.booleans())
    def test_cursor_allocator_matches_pop_front_reference(
            self, num_frames, deterministic, seed, zero_noise):
        """The cursor allocator hands out the frames, and draws the
        noise, of a list built up front and allocated with ``pop(0)``."""
        def rng():
            return ZeroNoise() if zero_noise else SplitMix64(seed)

        alloc_rng, reference_rng = rng(), rng()
        alloc = FrameAllocator(num_frames, deterministic, alloc_rng)
        reference = list(range(num_frames))
        if not deterministic:
            reference_rng.shuffle(reference)
        assert alloc_rng.next_u64() == reference_rng.next_u64()
        while reference:
            assert alloc.frames_remaining == len(reference)
            assert alloc.allocate() == reference.pop(0)
        assert alloc.frames_remaining == 0
        with pytest.raises(HardwareConfigError):
            alloc.allocate()

    def test_translation_is_stable(self):
        alloc = FrameAllocator(32, deterministic=True, noise_rng=ZeroNoise())
        space = AddressSpace(alloc)
        p1 = space.translate(0x1234)
        p2 = space.translate(0x1234)
        assert p1 == p2
        assert p1 & (PAGE_SIZE - 1) == 0x234

    def test_same_frames_same_physical_addresses(self):
        def build():
            alloc = FrameAllocator(32, deterministic=True,
                                   noise_rng=ZeroNoise())
            space = AddressSpace(alloc)
            return [space.translate(v) for v in
                    (0x0, 0x1000, 0x2000, 0x10, 0x3000)]
        assert build() == build()

    def test_random_frames_differ_across_seeds(self):
        def build(seed):
            alloc = FrameAllocator(256, deterministic=False,
                                   noise_rng=SplitMix64(seed))
            space = AddressSpace(alloc)
            return [space.translate(v * PAGE_SIZE) for v in range(16)]
        assert build(1) != build(2)

    def test_mapping_fingerprint(self):
        alloc = FrameAllocator(8, deterministic=True, noise_rng=ZeroNoise())
        space = AddressSpace(alloc)
        fp0 = space.mapping_fingerprint()
        space.translate(0)
        assert space.mapping_fingerprint() != fp0
        assert space.mapped_pages == 1

    def test_bad_page_size(self):
        alloc = FrameAllocator(8, deterministic=True, noise_rng=ZeroNoise())
        with pytest.raises(HardwareConfigError):
            AddressSpace(alloc, page_size=3000)

    def test_tlb_hit_miss(self):
        tlb = Tlb(TlbConfig(entries=2, miss_cycles=30))
        assert tlb.access(1) == 30
        assert tlb.access(1) == 0
        assert tlb.access(2) == 30
        assert tlb.access(3) == 30  # evicts vpn 1 (LRU)
        assert tlb.access(1) == 30
        assert tlb.hits == 1 and tlb.misses == 4

    def test_tlb_lru_recency(self):
        tlb = Tlb(TlbConfig(entries=2))
        tlb.access(1)
        tlb.access(2)
        tlb.access(1)   # 2 is now LRU
        tlb.access(3)   # evicts 2
        assert tlb.access(1) == 0
        assert tlb.access(2) != 0

    def test_tlb_flush(self):
        tlb = Tlb(TlbConfig())
        tlb.access(5)
        tlb.flush()
        assert tlb.occupancy == 0
        assert tlb.access(5) == tlb.config.miss_cycles

    def test_tlb_config_validation(self):
        with pytest.raises(HardwareConfigError):
            TlbConfig(entries=0)
        with pytest.raises(HardwareConfigError):
            TlbConfig(miss_cycles=-1)


class TestBranchPredictor:
    def test_learns_a_loop(self):
        bp = BranchPredictor(BranchPredictorConfig())
        # A loop branch at pc=100, taken 50 times: after warm-up the
        # predictor should stop mispredicting.
        penalties = [bp.record(100, True) for _ in range(50)]
        assert penalties[0] > 0          # initial weak-not-taken state
        assert all(p == 0 for p in penalties[5:])

    def test_alternating_pattern_hurts(self):
        bp = BranchPredictor(BranchPredictorConfig())
        penalties = [bp.record(100, i % 2 == 0) for i in range(100)]
        assert sum(1 for p in penalties if p > 0) > 20

    def test_flush_resets_state(self):
        bp = BranchPredictor(BranchPredictorConfig())
        for _ in range(10):
            bp.record(7, True)
        fp = bp.state_fingerprint()
        assert fp != 0
        bp.flush()
        assert bp.state_fingerprint() == 0

    def test_miss_rate(self):
        bp = BranchPredictor(BranchPredictorConfig())
        assert bp.miss_rate == 0.0
        bp.record(0, True)
        assert 0.0 <= bp.miss_rate <= 1.0

    def test_config_validation(self):
        with pytest.raises(HardwareConfigError):
            BranchPredictorConfig(table_entries=1000)
        with pytest.raises(HardwareConfigError):
            BranchPredictorConfig(mispredict_cycles=-5)

    @given(st.lists(st.tuples(st.integers(0, 4095), st.booleans()),
                    min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_identical_branch_streams_identical_state(self, stream):
        a = BranchPredictor(BranchPredictorConfig())
        b = BranchPredictor(BranchPredictorConfig())
        for pc, taken in stream:
            assert a.record(pc, taken) == b.record(pc, taken)
        assert a.state_fingerprint() == b.state_fingerprint()


class TestCpuModel:
    def test_noise_free_costs_are_base(self):
        cpu = CpuModel(CpuTimingConfig(speculation_sigma=0.0), ZeroNoise())
        for cls in CostClass:
            assert cpu.instruction_cost(cls) == INTERPRETER_COSTS[cls]

    def test_jit_table_is_cheaper(self):
        for cls in CostClass:
            assert JIT_COSTS[cls] <= INTERPRETER_COSTS[cls]

    def test_freq_scaling_perturbs_costs(self):
        cfg = CpuTimingConfig(freq_scaling_enabled=True, freq_quantum=10,
                              speculation_sigma=0.0, speculation_period=8)
        cpu = CpuModel(cfg, SplitMix64(3))
        costs = {cpu.instruction_cost(CostClass.ALU) for _ in range(2000)}
        assert len(costs) > 1

    def test_disabled_scaling_is_stable(self):
        cfg = CpuTimingConfig(speculation_sigma=0.0)
        cpu = CpuModel(cfg, SplitMix64(3))
        costs = {cpu.instruction_cost(CostClass.ALU) for _ in range(2000)}
        assert costs == {INTERPRETER_COSTS[CostClass.ALU]}

    def test_turbo_adds_jitter(self):
        cfg = CpuTimingConfig(turbo_enabled=True, speculation_sigma=0.002,
                              speculation_period=16)
        cpu = CpuModel(cfg, SplitMix64(9))
        total = sum(cpu.instruction_cost(CostClass.ALU) for _ in range(5000))
        base = INTERPRETER_COSTS[CostClass.ALU] * 5000
        assert total != base

    def test_seed_determinism(self):
        def total(seed):
            cfg = CpuTimingConfig(freq_scaling_enabled=True,
                                  turbo_enabled=True)
            cpu = CpuModel(cfg, SplitMix64(seed))
            return sum(cpu.instruction_cost(CostClass.MEM)
                       for _ in range(3000))
        assert total(4) == total(4)
        assert total(4) != total(5)

    def test_config_validation(self):
        with pytest.raises(HardwareConfigError):
            CpuTimingConfig(freq_quantum=0)
        with pytest.raises(HardwareConfigError):
            CpuTimingConfig(speculation_sigma=-0.1)

    def test_config_keeps_costs_non_negative(self):
        """A frequency factor of 1 - span, or a negative base cost,
        would make an instruction cost negative cycles."""
        with pytest.raises(HardwareConfigError):
            CpuTimingConfig(freq_span=1.5)
        with pytest.raises(HardwareConfigError):
            CpuTimingConfig(costs={c: -1 for c in CostClass})
        assert CpuTimingConfig(freq_span=1.0).freq_span == 1.0


class TestInterrupts:
    def test_no_sources_no_interference(self):
        ic = InterruptController([], SplitMix64(1), routed_to_timed_core=True)
        assert ic.pending_interference(10**9) == (0, 0, 0.0)

    def test_timed_core_routing_charges_cycles(self):
        src = IrqSource("t", mean_interval_cycles=1000.0, handler_cycles=500,
                        cache_lines=8, bus_traffic=0.1)
        ic = InterruptController([src], SplitMix64(2),
                                 routed_to_timed_core=True)
        direct, lines, traffic = ic.pending_interference(100_000)
        assert direct > 0 and lines > 0 and traffic > 0
        assert ic.firings > 10

    def test_sc_routing_only_leaks_bus_traffic(self):
        src = IrqSource("t", mean_interval_cycles=1000.0, handler_cycles=500)
        ic = InterruptController([src], SplitMix64(2),
                                 routed_to_timed_core=False)
        direct, lines, traffic = ic.pending_interference(100_000)
        assert direct == 0 and lines == 0
        assert traffic > 0

    def test_zero_noise_never_fires(self):
        ic = InterruptController(standard_sources(), ZeroNoise(),
                                 routed_to_timed_core=True)
        assert ic.pending_interference(10**12) == (0, 0, 0.0)
        assert ic.firings == 0

    def test_monotonic_consumption(self):
        src = IrqSource("t", mean_interval_cycles=1000.0, handler_cycles=1)
        ic = InterruptController([src], SplitMix64(7),
                                 routed_to_timed_core=True)
        ic.pending_interference(50_000)
        fired_once = ic.firings
        direct, _, _ = ic.pending_interference(50_000)
        assert ic.firings == fired_once  # same instant: nothing new
        assert direct == 0

    def test_source_validation(self):
        with pytest.raises(HardwareConfigError):
            IrqSource("bad", mean_interval_cycles=0, handler_cycles=1)
        with pytest.raises(HardwareConfigError):
            IrqSource("bad", mean_interval_cycles=10, handler_cycles=-1)

    def test_standard_sources_shape(self):
        sources = standard_sources()
        assert {s.name for s in sources} == {"timer", "nic", "disk", "misc"}


class TestStorage:
    def test_ssd_latency_range(self):
        ssd = Ssd(SplitMix64(1), base_cycles=100, jitter_cycles=10)
        costs = [ssd.read(i) for i in range(200)]
        assert all(100 <= c <= 110 for c in costs)
        assert ssd.reads == 200
        assert ssd.total_cycles == sum(costs)

    def test_ssd_zero_noise_constant(self):
        ssd = Ssd(ZeroNoise(), base_cycles=100, jitter_cycles=10)
        assert len({ssd.read(i) for i in range(50)}) == 1

    def test_hdd_variance_exceeds_ssd(self):
        hdd = Hdd(SplitMix64(2))
        ssd = Ssd(SplitMix64(2))
        hdd_costs = [hdd.read(i * 1000) for i in range(100)]
        ssd_costs = [ssd.read(i * 1000) for i in range(100)]
        spread = lambda xs: max(xs) - min(xs)
        assert spread(hdd_costs) > 100 * spread(ssd_costs)

    def test_hdd_seek_depends_on_distance(self):
        hdd = Hdd(ZeroNoise(), seek_cycles_per_block=10,
                  rotation_cycles=1)  # rotation -> randint(0,0)=0
        hdd.read(0)
        near = hdd.read(10)
        hdd.read(0)
        far = hdd.read(10_000)
        assert far > near

    def test_padding_makes_latency_constant(self):
        padded = PaddedStorage(Hdd(SplitMix64(3)))
        costs = {padded.read(i * 5000) for i in range(50)}
        assert len(costs) == 1
        assert costs.pop() == padded.pad_to_cycles

    def test_padding_below_worst_case_rejected(self):
        with pytest.raises(HardwareConfigError):
            PaddedStorage(Ssd(ZeroNoise(), base_cycles=100, jitter_cycles=10),
                          pad_to_cycles=50)

    def test_negative_block_rejected(self):
        with pytest.raises(ValueError):
            Ssd(ZeroNoise()).read(-1)

    def test_parameter_validation(self):
        with pytest.raises(HardwareConfigError):
            Ssd(ZeroNoise(), base_cycles=0)
        with pytest.raises(HardwareConfigError):
            Hdd(ZeroNoise(), rotation_cycles=0)


class TestNic:
    def test_arrival_ordering(self):
        nic = Nic()
        nic.schedule_rx(200, b"b")
        nic.schedule_rx(100, b"a")
        assert nic.pending_rx == 2
        assert nic.next_arrival_cycle() == 100
        assert nic.poll_rx(150) == [b"a"]
        assert nic.poll_rx(250) == [b"b"]
        assert nic.rx_delivered == 2

    def test_poll_before_arrival_empty(self):
        nic = Nic()
        nic.schedule_rx(1000, b"x")
        assert nic.poll_rx(999) == []

    def test_fifo_among_simultaneous(self):
        nic = Nic()
        nic.schedule_rx(100, b"first")
        nic.schedule_rx(100, b"second")
        assert nic.poll_rx(100) == [b"first", b"second"]

    def test_transmit_records_time(self):
        nic = Nic()
        nic.transmit(42, b"out")
        assert nic.tx_packets == [(42, b"out")]

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            Nic().schedule_rx(-1, b"x")
