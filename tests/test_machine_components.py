"""Tests for machine-level components: ring buffers, workloads, noise
presets, and configuration validation."""

import pytest

from repro.determinism import SplitMix64
from repro.errors import HardwareConfigError
from repro.machine import (InteractiveClient, MachineConfig, Request,
                           ScriptedArrivals, scenario_config)
from repro.machine.config import RuntimeKind, StorageKind
from repro.machine.natives import MACHINE_REGISTRY
from repro.machine.noise import NOISE_SCENARIOS, NoiseScenario
from repro.machine.ringbuf import (ENTRY_STRIDE, NUM_ENTRIES, STBuffer,
                                   TSBuffer)
from repro.net.jitter import EAST_COAST_JITTER


class TestSTBuffer:
    def test_fifo_semantics(self):
        buffer = STBuffer()
        assert buffer.head() is None
        buffer.stage(b"a")
        buffer.stage(b"b")
        assert buffer.pending == 2
        assert buffer.head() == b"a"
        assert buffer.consume() == b"a"
        assert buffer.consume() == b"b"
        assert buffer.head() is None

    def test_ring_addresses_advance_and_wrap(self):
        buffer = STBuffer()
        first = buffer.head_vaddr()
        for i in range(NUM_ENTRIES):
            buffer.stage(bytes([i % 256]))
            buffer.consume()
        assert buffer.head_vaddr() == first  # wrapped a full ring

    def test_check_addresses_same_while_empty(self):
        """§3.5: the next-entry check touches the same addresses whether
        or not an entry is present (the fake-timestamp trick)."""
        buffer = STBuffer()
        empty_check = buffer.check_addresses()
        buffer.stage(b"x")
        assert buffer.check_addresses() == empty_check

    def test_copy_addresses_word_granularity(self):
        buffer = STBuffer()
        assert len(buffer.copy_addresses(1)) == 1
        assert len(buffer.copy_addresses(8)) == 1
        assert len(buffer.copy_addresses(9)) == 2

    def test_oversized_packet_rejected(self):
        buffer = STBuffer()
        with pytest.raises(HardwareConfigError):
            buffer.stage(b"x" * ENTRY_STRIDE)

    def test_counters(self):
        buffer = STBuffer()
        buffer.stage(b"a")
        buffer.consume()
        assert buffer.staged_total == 1
        assert buffer.consumed_total == 1


class TestTSBuffer:
    def test_write_addresses_include_header(self):
        buffer = TSBuffer()
        addresses = buffer.write_addresses(16)
        assert len(addresses) == 2 + 2  # header words + payload words

    def test_tail_advances(self):
        buffer = TSBuffer()
        first = buffer.write_addresses(8)
        buffer.advance()
        second = buffer.write_addresses(8)
        assert first != second
        assert buffer.written_total == 1


class TestScriptedArrivals:
    def test_sorted_and_finished(self):
        class FakeMachine:
            def __init__(self):
                self.scheduled = []

            def schedule_arrival(self, cycle, payload):
                self.scheduled.append((cycle, payload))

        workload = ScriptedArrivals([(200, b"b"), (100, b"a")])
        assert not workload.finished()
        machine = FakeMachine()
        workload.start(machine)
        assert machine.scheduled == [(100, b"a"), (200, b"b")]
        assert workload.finished()
        workload.on_transmit(machine, 300, b"resp")  # no-op
        assert machine.scheduled == [(100, b"a"), (200, b"b")]


class TestInteractiveClient:
    class FakeMachine:
        def __init__(self):
            self.scheduled = []

        def schedule_arrival(self, cycle, payload):
            self.scheduled.append((cycle, payload))

    def test_request_response_pacing(self):
        requests = [Request(b"q1"), Request(b"q2")]
        client = InteractiveClient(requests, SplitMix64(1),
                                   one_way_delay_cycles=1000,
                                   mean_think_cycles=0.0,
                                   first_arrival_cycle=50)
        machine = self.FakeMachine()
        client.start(machine)
        assert len(machine.scheduled) == 1
        assert machine.scheduled[0][1] == b"q1"
        assert not client.finished()
        # Server answers request 1 -> request 2 scheduled after the
        # response, delayed by the one-way time.
        client.on_transmit(machine, 5000, b"r1")
        assert machine.scheduled[1][1] == b"q2"
        assert machine.scheduled[1][0] >= 6000
        client.on_transmit(machine, 9000, b"r2")
        assert client.finished()

    def test_multi_packet_responses(self):
        requests = [Request(b"q1", responses_expected=3), Request(b"q2")]
        client = InteractiveClient(requests, SplitMix64(2),
                                   mean_think_cycles=0.0)
        machine = self.FakeMachine()
        client.start(machine)
        client.on_transmit(machine, 100, b"part1")
        client.on_transmit(machine, 200, b"part2")
        assert len(machine.scheduled) == 1   # still waiting for part 3
        client.on_transmit(machine, 300, b"part3")
        assert len(machine.scheduled) == 2   # q2 released

    def test_shutdown_payload_scheduled_last(self):
        client = InteractiveClient([Request(b"q")], SplitMix64(3),
                                   mean_think_cycles=0.0,
                                   shutdown_payload=b"\xff")
        machine = self.FakeMachine()
        client.start(machine)
        assert not client.finished()
        client.on_transmit(machine, 100, b"r")
        assert machine.scheduled[-1][1] == b"\xff"
        assert client.finished()

    def test_receiver_records_transmissions(self):
        client = InteractiveClient([Request(b"q")], SplitMix64(4),
                                   mean_think_cycles=0.0)
        machine = self.FakeMachine()
        client.start(machine)
        client.on_transmit(machine, 123, b"resp")
        assert client.received == [(123, b"resp")]

    def test_jitter_model_applied(self):
        client = InteractiveClient([Request(b"q")], SplitMix64(5),
                                   jitter_model=EAST_COAST_JITTER,
                                   mean_think_cycles=0.0,
                                   first_arrival_cycle=0)
        machine = self.FakeMachine()
        client.start(machine)
        # Jitter pushes the arrival past the base cycle.
        assert machine.scheduled[0][0] > 0

    def test_needs_requests(self):
        with pytest.raises(ValueError):
            InteractiveClient([], SplitMix64(1))


class TestNoisePresets:
    def test_all_scenarios_buildable(self):
        for scenario in NOISE_SCENARIOS:
            config = scenario_config(scenario)
            assert isinstance(config, MachineConfig)
            assert config.name == scenario.value

    def test_string_lookup(self):
        assert scenario_config("sanity").name == "sanity"
        with pytest.raises(HardwareConfigError):
            scenario_config("cosmic")

    def test_sanity_is_fully_mitigated(self):
        config = scenario_config(NoiseScenario.SANITY)
        assert config.irqs_to_supporting_core
        assert not config.preemption_enabled
        assert config.flush_caches_at_start
        assert config.deterministic_frames
        assert not config.freq_scaling and not config.turbo
        assert config.pad_storage

    def test_dirty_is_noisy(self):
        config = scenario_config("dirty")
        assert config.preemption_enabled
        assert not config.flush_caches_at_start
        assert config.turbo

    def test_kernel_quiet_disables_irqs(self):
        config = scenario_config("kernel-quiet")
        assert not config.irqs_enabled


class TestMachineConfig:
    def test_flush_and_random_cache_exclusive(self):
        with pytest.raises(HardwareConfigError):
            MachineConfig(flush_caches_at_start=True,
                          random_initial_cache=True)

    def test_with_overrides_preserves_rest(self):
        base = MachineConfig()
        changed = base.with_overrides(frequency_hz=1e9)
        assert changed.frequency_hz == 1e9
        assert changed.l1_config == base.l1_config
        assert base.frequency_hz == 3.4e9  # original untouched

    def test_cost_table_follows_runtime(self):
        from repro.hw.cpu import CostClass

        interpreted = MachineConfig().cost_table
        jitted = MachineConfig(runtime=RuntimeKind.ORACLE_JIT).cost_table
        assert jitted[CostClass.ALU] < interpreted[CostClass.ALU]

    def test_validation(self):
        with pytest.raises(HardwareConfigError):
            MachineConfig(frequency_hz=0)
        with pytest.raises(HardwareConfigError):
            MachineConfig(poll_stride_cycles=0)

    @pytest.mark.parametrize("field", ("thread_quantum", "vm_poll_interval"))
    @pytest.mark.parametrize("value", (0, -1, -5))
    def test_scheduling_counts_below_one_rejected(self, field, value):
        """A quantum below 1 runs no instruction per slice (``play``
        would loop forever), an interval of 0 divides by zero and a
        negative one never polls; only construction is tried here."""
        with pytest.raises(HardwareConfigError):
            MachineConfig(**{field: value})
        assert getattr(MachineConfig(**{field: 1}), field) == 1

    @pytest.mark.parametrize("duration,interval", [
        (4.0e5, 2.0e4), (2.0e4, 2.0e4), (-1.0, 2.0e4)])
    def test_preemption_without_a_steady_state_rejected(self, duration,
                                                        interval):
        """Each preemption is scheduled from the previous one's start and
        lasts its duration, so a mean duration at or above the mean
        interval is a backlog that grows at every poll; only
        construction is tried here."""
        with pytest.raises(HardwareConfigError, match="steady state"):
            MachineConfig(preemption_enabled=True,
                          preempt_mean_duration_cycles=duration,
                          preempt_mean_interval_cycles=interval)
        assert MachineConfig(preempt_mean_duration_cycles=0.0,
                             preempt_mean_interval_cycles=interval)

    def test_storage_kinds(self):
        assert MachineConfig(storage=StorageKind.HDD).storage == \
            StorageKind.HDD


class TestNativeRegistry:
    def test_machine_abi_is_stable(self):
        """Programs are assembled against native indices; the registry
        order is part of the machine ABI and must not silently change."""
        names = MACHINE_REGISTRY.names
        assert names[:3] == ["print_int", "print_float", "nano_time"]
        assert "covert_delay" in names
        assert "covert_next_delay" in names
        assert "busy_cycles" in names
        # The pre-executive ABI prefix is frozen: new natives may only be
        # appended (programs assembled against the old table keep their
        # indices), and "exit" closes that original prefix.
        assert MACHINE_REGISTRY.native_index("exit") == 11
        assert names.index("exec_yield") > names.index("exit")

    def test_specs_match_arity(self):
        spec = MACHINE_REGISTRY.spec(
            MACHINE_REGISTRY.native_index("send_packet"))
        assert spec.num_args == 2
        assert not spec.returns_value
        spec = MACHINE_REGISTRY.spec(
            MACHINE_REGISTRY.native_index("nano_time"))
        assert spec.num_args == 0
        assert spec.returns_value
