"""Differential tests: batched cycle charging vs the unbatched reference.

The batched fast path accumulates integer cycle costs between poll/event
boundaries and flushes them as one ``VirtualClock.advance`` per source.
Integer addition is associative, so everything observable — total
cycles, per-source ledger sums, transmission times, audit verdicts —
must be bit-identical to the unbatched implementation, which stays
available behind ``REPRO_NO_BATCH=1`` as the reference.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps import (build_kernel_program, build_nfs_program,
                        build_nfs_workload)
from repro.core.resilience import audit_resilient
from repro.core.tdr import play, round_trip
from repro.determinism import SplitMix64
from repro.hw.cache import ReplacementPolicy
from repro.hw.cpu import CostClass
from repro.machine import MachineConfig
from repro.machine.machine import Machine
from repro.machine.platform import _ACC_INSTR, _ACC_SOURCES, batching_enabled
from repro.obs import Observability

REQUESTS = 5


@pytest.fixture(scope="module")
def nfs_program():
    return build_nfs_program()


def _round_trip(nfs_program, obs=None, schedule=None):
    workload = build_nfs_workload(SplitMix64(7042), num_requests=REQUESTS)
    return round_trip(nfs_program, MachineConfig(), workload=workload,
                      play_seed=3, replay_seed=9,
                      covert_schedule=schedule, obs=obs)


def _snapshot(result):
    return (result.total_cycles, result.instructions, result.tx,
            result.tx_times_ms(), result.ledger)


def test_batched_matches_unbatched_with_ledger(nfs_program, monkeypatch):
    batched = _round_trip(nfs_program, obs=Observability())
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    unbatched = _round_trip(nfs_program, obs=Observability())

    assert _snapshot(batched.play) == _snapshot(unbatched.play)
    assert _snapshot(batched.replay) == _snapshot(unbatched.replay)
    # The ledger's per-source sums survive batching exactly (only the
    # number of charge *events* changes, never the cycles they carry).
    assert batched.play.ledger == unbatched.play.ledger
    assert batched.play.ledger is not None


def test_batched_matches_unbatched_no_obs(nfs_program, monkeypatch):
    batched = _round_trip(nfs_program)
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    unbatched = _round_trip(nfs_program)
    assert _snapshot(batched.play) == _snapshot(unbatched.play)
    assert _snapshot(batched.replay) == _snapshot(unbatched.replay)


def test_covert_schedule_matches_unbatched(nfs_program, monkeypatch):
    schedule = [1_500, 4_000, 2_500, 6_000]
    batched = _round_trip(nfs_program, schedule=list(schedule))
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    unbatched = _round_trip(nfs_program, schedule=list(schedule))
    assert _snapshot(batched.play) == _snapshot(unbatched.play)


def test_audit_verdicts_match_unbatched(nfs_program, monkeypatch):
    def verdicts():
        trip = _round_trip(nfs_program)
        report = trip.audit
        outcome = audit_resilient(nfs_program, trip.play,
                                  trip.play.log.to_bytes(),
                                  config=MachineConfig(), replay_seed=9)
        return (report.payloads_match, report.deviation_score(),
                report.total_time_error, report.is_consistent(),
                outcome.classification, outcome.consistent,
                outcome.coverage)

    batched = verdicts()
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    assert verdicts() == batched


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
    whose L1 uses another policy binds the unbatched reference and plays
    to the same cycles as ``REPRO_NO_BATCH=1``."""
    config = MachineConfig()
    fifo = replace(config, l1_config=replace(config.l1_config,
                                             policy=ReplacementPolicy.FIFO))
    platform = Machine(fifo, seed=0, mode="play").platform
    assert "mem_access" not in platform.__dict__
    assert platform.mem_inline() is None

    program = build_kernel_program("sor", n=16, iterations=4)
    cycles = play(program, fifo, seed=3).total_cycles
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    assert play(program, fifo, seed=3).total_cycles == cycles == 878_452


def test_mem_access_code_is_shared_across_platforms():
    """Every platform renders the same memory template, with or without
    a ledger, so only the first one compiles its ``mem_access``."""
    one = Machine(MachineConfig(), seed=0, mode="play").platform
    two = Machine(MachineConfig(), seed=1, mode="play",
                  obs=Observability()).platform
    assert one.mem_access is not two.mem_access
    assert one.mem_access.__code__ is two.mem_access.__code__
