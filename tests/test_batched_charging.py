"""Differential tests: batched cycle charging vs the unbatched reference.

The batched fast path accumulates integer cycle costs between poll/event
boundaries and flushes them as one ``VirtualClock.advance`` per source.
Integer addition is associative, so a run's fingerprint must be
bit-identical to the unbatched implementation's, which stays available
behind ``REPRO_NO_BATCH=1`` as the reference; ``test_equivalence.py``
compares the pipeline scenarios and every noise preset.  The same holds
for the idle polls a batched ``wait_packet`` applies in closed form
(DESIGN §4.5), whose boundaries the tests below pin directly.

The batched side of every test here runs batched even when the suite
runs under ``REPRO_NO_BATCH=1``; the reference side sets it itself.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps import (build_kernel_program, build_nfs_program,
                        build_nfs_workload, compile_app)
from repro.core.tdr import play, round_trip
from repro.determinism import SplitMix64
from repro.hw.cache import ReplacementPolicy
from repro.hw.cpu import CostClass
from repro.hw.interrupts import IrqSource
from repro.machine import MachineConfig, ScriptedArrivals
from repro.machine.machine import Machine
from repro.machine.noise import NOISE_SCENARIOS, scenario_config
from repro.machine.platform import (_ACC_INSTR, _ACC_SOURCES,
                                    TimedCorePlatform, batching_enabled)
from repro.obs import Observability
from repro.obs.ledger import Source
from repro.vm.interpreter import Interpreter

REQUESTS = 5


@pytest.fixture(scope="module", autouse=True)
def _batched_by_default():
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_NO_BATCH", raising=False)
        yield


@pytest.fixture(scope="module")
def nfs_program():
    return build_nfs_program()


def _round_trip(nfs_program):
    workload = build_nfs_workload(SplitMix64(7042), num_requests=REQUESTS)
    return round_trip(nfs_program, MachineConfig(), workload=workload,
                      play_seed=3, replay_seed=9)


def test_idle_waits_skip_most_polls(nfs_program, monkeypatch):
    """Batched waits run one real poll per horizon (an arrival, a logged
    packet, a preemption or an IRQ routed to the timed core), not one
    per stride or per IRQ routed to the supporting core: 3 per
    transmitted packet here, against about 770 without the
    fast-forward and 11.4 when every IRQ ended it."""
    polls = 0
    try_recv = TimedCorePlatform._try_recv

    def counted(self, vm, buf_handle):
        nonlocal polls
        polls += 1
        return try_recv(self, vm, buf_handle)

    monkeypatch.setattr(TimedCorePlatform, "_try_recv", counted)
    trip = _round_trip(nfs_program)
    transmitted = len(trip.play.tx) + len(trip.replay.tx)
    assert transmitted == 2 * REQUESTS
    assert polls <= 4 * transmitted


ECHO_GUEST = """
void main() {
    int[] buf = new int[16];
    while (true) {
        int n = wait_packet(buf);
        if (n < 0) { break; }
        send_packet(buf, n);
    }
    exit();
}
"""


@pytest.fixture(scope="module")
def echo_program():
    return compile_app(ECHO_GUEST)


@settings(max_examples=40, deadline=None)
@given(stride=st.integers(min_value=1, max_value=40_000),
       sc_cycles=st.integers(min_value=0, max_value=10_000),
       arrivals=st.lists(st.integers(min_value=0, max_value=600),
                         min_size=1, max_size=4),
       scenario=st.sampled_from(NOISE_SCENARIOS),
       sigma=st.sampled_from([0.0, 0.004]))
def test_idle_fast_forward_matches_per_poll_loop(echo_program, stride,
                                                 sc_cycles, arrivals,
                                                 scenario, sigma):
    """Any stride, staging delay, arrival schedule and noise preset: the
    skipped polls end where the per-poll loop would.  Strides of a few
    cycles make polls land exactly on an arrival or IRQ horizon."""
    config = scenario_config(scenario).with_overrides(
        poll_stride_cycles=stride, sc_processing_cycles=sc_cycles,
        speculation_sigma=sigma)
    # Arrival times in poll strides, so every wait is a few hundred polls.
    schedule = [(slot * (stride + 12), bytes([i + 1] * 3))
                for i, slot in enumerate(arrivals)]

    def run():
        trip = round_trip(echo_program, config,
                          workload=ScriptedArrivals(list(schedule)),
                          play_seed=5, replay_seed=6, obs=Observability())
        return trip.play.fingerprint(), trip.replay.fingerprint()

    batched = run()
    with mock.patch.dict(os.environ, {"REPRO_NO_BATCH": "1"}):
        assert run() == batched
    assert len(batched[0]["tx"]) == len(arrivals)


STRIDE = 1_000
PER_POLL = 3 * 4 + STRIDE       # three L1 hits plus the noise-free stride


def _after_real_poll(polls_to_horizon, extra=0, **overrides):
    """A noise-free play machine right after a real poll, whose packet is
    staged once ``polls_to_horizon`` whole polls (plus ``extra`` cycles)
    have passed.  Returns the platform and a stand-in interpreter."""
    config = MachineConfig(speculation_sigma=0.0, irqs_enabled=False,
                           poll_stride_cycles=STRIDE, **overrides)
    machine = Machine(config, seed=0, mode="play")
    platform = machine.platform
    platform._charge_st_check()
    platform.flush_charges()
    horizon = machine.clock.cycles + polls_to_horizon * PER_POLL + extra
    machine.schedule_arrival(horizon - config.sc_processing_cycles, b"x")
    return platform, SimpleNamespace(instruction_count=0)


@pytest.mark.parametrize("extra,skipped", [(0, 4), (1, 5)])
def test_idle_fast_forward_stops_before_the_horizon(extra, skipped):
    """A poll whose service_world would run at the horizon runs for real."""
    platform, vm = _after_real_poll(5, extra)
    assert platform._skip_idle_polls(vm, STRIDE, STRIDE) is None
    assert vm.instruction_count == skipped
    assert platform.cpu._until_redraw == 64 - skipped


@pytest.mark.parametrize("extra,skipped,drawn", [(0, 2, STRIDE),
                                                 (1, 3, None)])
def test_idle_fast_forward_redraw_at_the_horizon(extra, skipped, drawn):
    """A redraw poll runs scale_block before its horizon check; if it
    lands on the horizon, its drawn cost goes back to the wait loop."""
    platform, vm = _after_real_poll(3, extra)
    platform.cpu._until_redraw = 3
    assert platform._skip_idle_polls(vm, STRIDE, STRIDE) == drawn
    assert vm.instruction_count == skipped
    assert platform.cpu._until_redraw == 64


def _pollute_check_set(platform):
    l1 = platform.hierarchy.l1
    line = platform.space.translate(platform.st_buffer.head_vaddr()) \
        >> l1._line_shift
    l1.fill(line % l1._num_sets, 1 << 20)


def _make_writeback_pending(platform):
    platform.hierarchy.l1._pending_writeback = 60


@pytest.mark.parametrize("disturb,overrides", [
    pytest.param(_pollute_check_set, {}, id="l1-set-order"),
    pytest.param(_make_writeback_pending, {}, id="l1-writeback"),
    # Another page, whose line lands in another L1 set.
    pytest.param(lambda platform: platform.mem_access(0x2000_0040), {},
                 id="tlb-order"),
    pytest.param(lambda platform: None, {"co_tenant_intensity": 0.5},
                 id="co-tenant"),
])
def test_idle_fast_forward_preconditions(disturb, overrides):
    """Skipped accesses must be hits that leave every order as it is, and
    no service_world call may charge: otherwise every poll is real."""
    platform, vm = _after_real_poll(10, **overrides)
    disturb(platform)
    assert platform._skip_idle_polls(vm, STRIDE, STRIDE) is None
    assert vm.instruction_count == 0


#: Writes one word per cache line of an array larger than the L2 after
#: every wait, so the first memory accesses after a wait are DRAM fills
#: and read the bus traffic level the skipped polls left behind.
DRAM_GUEST = """
void main() {
    int[] buf = new int[16];
    int[] big = new int[40000];
    while (true) {
        int n = wait_packet(buf);
        if (n < 0) { break; }
        for (int i = 0; i < 40000; i = i + 8) { big[i] = n; }
        send_packet(buf, n);
    }
    exit();
}
"""


@pytest.fixture(scope="module")
def dram_program():
    return compile_app(DRAM_GUEST)


@settings(max_examples=12, deadline=None)
@given(intervals=st.tuples(st.floats(min_value=2.5, max_value=7.0),
                           st.floats(min_value=2.5, max_value=7.0)),
       traffic=st.tuples(st.floats(min_value=0.0, max_value=1.2),
                         st.floats(min_value=0.0, max_value=1.2)),
       to_sc=st.booleans(),
       background=st.sampled_from([0.0, 0.3, 0.97]),
       stride=st.integers(min_value=100, max_value=40_000),
       arrivals=st.lists(st.integers(min_value=0, max_value=300),
                         min_size=1, max_size=3),
       sigma=st.sampled_from([0.0, 0.004]))
@example(intervals=(math.log10(4e5), math.log10(2e6)), traffic=(0.4, 0.9),
         to_sc=True, background=0.0, stride=25_000, arrivals=[40, 200, 350],
         sigma=0.004)
@example(intervals=(math.log10(4e5), math.log10(2e6)), traffic=(0.4, 0.9),
         to_sc=True, background=0.3, stride=25_000, arrivals=[40, 200, 350],
         sigma=0.004)
def test_sc_irq_traffic_matches_per_poll_loop(dram_program, intervals,
                                              traffic, to_sc, background,
                                              stride, arrivals, sigma):
    """IRQs of any rate (log10 of the mean interval in cycles, from below
    one stride to 1e7) and traffic (adds that saturate at 1.0), routed
    to either core, over any background floor: the bus level the
    skipped polls leave is the one the per-poll loop leaves, as every
    DRAM fill of the guest sees with contention probability 1.  The
    handlers are small, so IRQs routed to the timed core cannot keep it
    busy for longer than the interval between them."""
    sources = [IrqSource(name, 10 ** log_mean, 50, cache_lines=2,
                         bus_traffic=load)
               for name, log_mean, load in zip("ab", intervals, traffic)]
    config = MachineConfig(
        bus_contention_probability=1.0, irqs_to_supporting_core=to_sc,
        background_bus_traffic=background, poll_stride_cycles=stride,
        speculation_sigma=sigma)
    schedule = [(slot * (stride + 12), bytes([i + 1] * 3))
                for i, slot in enumerate(arrivals)]

    def run():
        with mock.patch("repro.machine.machine.standard_sources",
                        lambda: list(sources)):
            trip = round_trip(dram_program, config,
                              workload=ScriptedArrivals(list(schedule)),
                              play_seed=5, replay_seed=6,
                              obs=Observability())
        return trip.play.fingerprint(), trip.replay.fingerprint()

    batched = run()
    with mock.patch.dict(os.environ, {"REPRO_NO_BATCH": "1"}):
        assert run() == batched
    assert len(batched[0]["tx"]) == len(arrivals)


def _poll(platform, vm, stride=STRIDE) -> int:
    """One iteration of ``wait_packet``'s per-poll loop whose receive
    fails; returns the poll's idle cost."""
    assert platform._try_recv(vm, 0) == -1
    vm.instruction_count += 1
    idle = platform.cpu.scale_block(stride)
    platform.clock.advance(idle, Source.IDLE)
    platform.machine.service_world()
    return idle


TWIN_POLLS = 8


def _twin(fires, until_redraw, sigma, background):
    """A play machine right after a real poll, with its packet staged
    about ``TWIN_POLLS`` polls later, the bus at 0.5, and the standard
    IRQ sources (routed to the supporting core) next due at ``fires``:
    per source, None or ``(k, offset)`` for ``offset`` cycles after the
    reading of the ``k``-th poll after the real one, if every poll costs
    what the real one did.  Returns the platform, a stand-in
    interpreter and the real poll's idle cost."""
    config = MachineConfig(speculation_sigma=sigma,
                           poll_stride_cycles=STRIDE,
                           background_bus_traffic=background)
    machine = Machine(config, seed=4, mode="play", obs=Observability())
    platform = machine.platform
    vm = SimpleNamespace(instruction_count=0)
    idle = _poll(platform, vm)
    now = machine.clock.cycles
    per_poll = PER_POLL - STRIDE + idle
    machine.schedule_arrival(now + TWIN_POLLS * per_poll
                             - config.sc_processing_cycles, b"x")
    machine.irq_controller._next_fire = [
        math.inf if due is None else now + due[0] * per_poll + due[1]
        for due in fires]
    machine.bus.set_traffic_level(0.5)
    if until_redraw is not None:
        machine.cpu._until_redraw = until_redraw
    return platform, vm, idle


def _world_state(machine):
    """Everything an idle poll may touch, the next draw of every noise
    stream but the CPU's, and the CPU's redraw position: its stream's
    state and the factors left of its batch (a next draw would hide a
    difference of under a batch in the redraws made)."""
    machine.platform.flush_charges()
    streams = (machine.bus._rng, machine._irq_rng, machine._preempt_rng,
               machine._co_tenant_rng)
    cpu = machine.cpu
    return (machine.clock.cycles, machine.ledger.totals(),
            machine.bus.traffic_level,
            list(machine.irq_controller._next_fire),
            machine.irq_controller.firings, cpu._instructions,
            cpu._until_redraw, cpu._combined, cpu._rng._state,
            len(cpu._factors), machine.tlb.hits, machine.l1.hits,
            [stream.next_u64() for stream in streams])


@pytest.mark.parametrize("fires,until_redraw,sigma,background", [
    pytest.param([(3, 0), None, None, None], None, 0.0, 0.0,
                 id="at-a-reading"),
    pytest.param([(3, 1), None, None, None], None, 0.0, 0.0,
                 id="one-cycle-later"),
    pytest.param([(3, 0), (3, -7), None, None], None, 0.0, 0.3,
                 id="two-sources-one-poll"),
    pytest.param([None, (2, 1), None, None], 3, 0.004, 0.0,
                 id="on-a-redraw-poll"),
    # Due at the real poll's own reading, as after a preemption charge.
    pytest.param([(0, 0), (6, 0), None, (7, 0)], 5, 0.004, 0.97,
                 id="overdue-then-two-runs"),
])
def test_sc_irq_skip_matches_twin_loop(fires, until_redraw, sigma,
                                       background):
    """Two machines with the same seed run the same polls, one through
    the per-poll loop and one through ``_skip_idle_polls``, and end in
    the same state: an IRQ routed to the supporting core fires at the
    first poll whose ``service_world`` reading reaches it."""
    loop, loop_vm, _ = _twin(fires, until_redraw, sigma, background)
    skip, skip_vm, idle = _twin(fires, until_redraw, sigma, background)
    assert skip._skip_idle_polls(skip_vm, STRIDE, idle) is None
    assert skip_vm.instruction_count >= TWIN_POLLS - 1
    while loop_vm.instruction_count < skip_vm.instruction_count:
        _poll(loop, loop_vm)
    assert skip.machine.irq_controller.firings \
        == sum(due is not None for due in fires)
    assert _world_state(skip.machine) == _world_state(loop.machine)


@pytest.mark.parametrize("background", [0.0, 0.3, 0.97])
def test_world_decays_to_the_background_floor(background):
    """Each ``service_world`` call scales the bus level by 0.6, never
    below the background floor, and a long quiet run settles on it."""
    machine = Machine(MachineConfig(irqs_enabled=False,
                                    background_bus_traffic=background),
                      seed=0, mode="play")
    machine.bus.set_traffic_level(0.5)
    machine.service_world()
    assert machine.bus.traffic_level == max(0.5 * 0.6, background)
    machine.quiet_world(40)
    assert machine.bus.traffic_level == background


def test_no_batch_escape_hatch(monkeypatch):
    machine = Machine(MachineConfig(), seed=0, mode="play")
    # Batched: the fast paths are bound as instance attributes.
    assert batching_enabled()
    assert "charge" in machine.platform.__dict__
    assert "mem_access" in machine.platform.__dict__

    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    reference = Machine(MachineConfig(), seed=0, mode="play")
    assert not batching_enabled()
    assert "charge" not in reference.platform.__dict__
    assert "mem_access" not in reference.platform.__dict__


def test_no_ledger_charge_is_plain_accumulation():
    """Without observability the charge path does no Source tagging:
    every cost lands in the single instruction slot of the accumulator,
    and flushing advances the clock by exactly that amount."""
    machine = Machine(MachineConfig(), seed=0, mode="play")
    platform = machine.platform
    assert machine.clock.ledger is None

    before = machine.clock.cycles
    for _ in range(64):
        platform.charge(CostClass(0))
    accumulated = platform._acc[_ACC_INSTR]
    assert accumulated > 0
    # No other accumulator slot (TLB/cache/bus/branch) was touched.
    assert all(platform._acc[i] == 0
               for i in range(len(_ACC_SOURCES)) if i != _ACC_INSTR)
    # The clock itself only moves at the flush boundary.
    assert machine.clock.cycles == before
    platform.flush_charges()
    assert machine.clock.cycles == before + accumulated
    assert platform._acc[_ACC_INSTR] == 0


def test_non_lru_l1_runs_the_unbatched_reference(monkeypatch):
    """The batched memory template's L1 hit is an LRU move, so a machine
    whose L1 uses another policy binds the unbatched reference, which
    lends no block templates: it runs on the interpreter, where the
    default machine tiers up, and plays to the same cycles as
    ``REPRO_NO_BATCH=1``."""
    monkeypatch.delenv("REPRO_NO_JIT", raising=False)
    config = MachineConfig()
    fifo = replace(config, l1_config=replace(config.l1_config,
                                             policy=ReplacementPolicy.FIFO))
    platform = Machine(fifo, seed=0, mode="play").platform
    assert "mem_access" not in platform.__dict__
    assert platform.mem_inline() is None

    program = build_kernel_program("sor", n=16, iterations=4)
    assert Interpreter(program, platform).jit is None
    assert play(program, config, seed=3).jit is not None
    played = play(program, fifo, seed=3)
    assert played.jit is None
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    assert play(program, fifo, seed=3).total_cycles == played.total_cycles \
        == 878_452


def test_mem_access_code_is_shared_across_platforms():
    """Every platform renders the same memory template, with or without
    a ledger, so only the first one compiles its ``mem_access``."""
    one = Machine(MachineConfig(), seed=0, mode="play").platform
    two = Machine(MachineConfig(), seed=1, mode="play",
                  obs=Observability()).platform
    assert one.mem_access is not two.mem_access
    assert one.mem_access.__code__ is two.mem_access.__code__
