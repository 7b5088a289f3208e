"""The parallel experiment fleet must be invisible in every result.

Every fleet task is rebuilt from seeds inside its worker process, so
``run_fleet(jobs=N)`` has to produce the exact list a serial loop would:
same cycles, same transmissions, same ledger totals, same AUCs.  These
tests pin that down on a small Fig 8-style slice (full NFS machine runs
plus a statistical detector matrix).
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from unittest import mock

from repro.analysis import parallel
from repro.analysis.experiment import NfsTrafficModel, run_detector_matrix
from repro.analysis.parallel import (MachineSpec, ObservedExecution,
                                     _compiled, _workload, default_jobs,
                                     execute_spec, prefetch, prefetching,
                                     run_fleet, run_fleet_observed)
from repro.channels import Ipctc, Trctc
from repro.detectors import all_statistical_detectors
from repro.machine import MachineConfig
from repro.obs.metrics import EMPTY_SNAPSHOT, NullRegistry
from repro.obs.snapshot import EMPTY_OBS_SNAPSHOT, ObsSnapshot
from repro.service import FleetService, FleetTopology, default_tenants
from repro.service import fleet as service_fleet
from repro.service.scheduler import ReplayTask, execute_replay_task

REQUESTS = 5


def _specs(n=4):
    return [MachineSpec(program="nfs", config=MachineConfig(), seed=seed,
                        workload=f"nfs:{7000 + seed}:{REQUESTS}")
            for seed in range(n)]


def _ledger_worker(spec):
    """Top-level worker: one observed play, returning its ledger totals
    alongside the timing facts (live results never cross the pool)."""
    from repro.core.tdr import play
    from repro.obs import Observability

    result = play(_compiled(spec.program), spec.config,
                  workload=_workload(spec), seed=spec.seed,
                  obs=Observability())
    return (result.total_cycles, result.instructions, result.tx,
            result.ledger)


def _probe(spec):
    """Top-level worker: run ``spec`` and report which process served it
    and the ``REPRO_NO_BATCH`` value that process saw."""
    result = execute_spec(spec)
    return (os.getpid(), os.environ.get("REPRO_NO_BATCH"),
            (result.total_cycles, result.instructions, result.tx))


def _slow_probe(spec):
    """Top-level worker: :func:`_probe`, after a pause long enough that
    a test acting right after submitting finds the task unfinished."""
    time.sleep(0.3)
    return _probe(spec)


def _probe_specs(n=4):
    return [MachineSpec(program="zero-array:256", config=MachineConfig(),
                        seed=seed) for seed in range(n)]


@contextmanager
def _deadline(seconds):
    """Fail the block with TimeoutError if it runs longer than
    ``seconds`` (a hang must not stall the suite)."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_fleet_bit_identical_to_serial():
    specs = _specs(4)
    serial = run_fleet(specs, jobs=1)
    parallel = run_fleet(specs, jobs=4)
    assert len(parallel) == len(serial) == 4
    for ser, par in zip(serial, parallel):
        assert par.total_cycles == ser.total_cycles
        assert par.instructions == ser.instructions
        assert par.tx == ser.tx
        assert par.tx_times_ms() == ser.tx_times_ms()


def test_fleet_ledger_totals_match_serial():
    specs = _specs(3)
    serial = run_fleet(specs, jobs=1, worker=_ledger_worker)
    parallel = run_fleet(specs, jobs=3, worker=_ledger_worker)
    assert parallel == serial
    assert all(ledger for _, _, _, ledger in parallel)


def test_replay_spec_round_trips():
    played = execute_spec(_specs(1)[0])
    replay_spec = MachineSpec(program="nfs", config=MachineConfig(),
                              seed=31, mode="replay",
                              log_bytes=played.log.to_bytes())
    direct = execute_spec(replay_spec)
    via_fleet = run_fleet([replay_spec, replay_spec], jobs=2)
    for result in via_fleet:
        assert result.total_cycles == direct.total_cycles
        assert result.tx == direct.tx


def test_detector_matrix_jobs_parity():
    def matrix(jobs):
        cells = run_detector_matrix([Ipctc(), Trctc()],
                                    all_statistical_detectors,
                                    model=NfsTrafficModel(),
                                    num_training=8, num_test=6,
                                    packets_per_trace=40, seed=7,
                                    jobs=jobs)
        return [(c.channel, c.detector, c.auc, c.roc.points)
                for c in cells]

    assert matrix(jobs=2) == matrix(jobs=1)


def test_observed_fleet_merge_bit_identical_to_serial():
    """The acceptance bar for fleet observability: run_fleet_observed at
    jobs=4 merges worker snapshots into exactly the ledger totals and
    metrics counters the serial jobs=1 path produces — bit-identical,
    not approximately equal."""
    specs = _specs(4)
    serial_results, serial_obs = run_fleet_observed(specs, jobs=1)
    fleet_results, fleet_obs = run_fleet_observed(specs, jobs=4)

    for ser, par in zip(serial_results, fleet_results):
        assert par.total_cycles == ser.total_cycles
        assert par.tx == ser.tx
    assert fleet_obs.ledger_totals() == serial_obs.ledger_totals()
    assert fleet_obs.ledger_totals()          # non-empty: obs survived
    assert fleet_obs.registry.snapshot() == serial_obs.registry.snapshot()
    assert fleet_obs.registry.render() == serial_obs.registry.render()
    assert fleet_obs.workers == serial_obs.workers == 4
    assert fleet_obs.spans == serial_obs.spans
    # Per-run ledgers sum exactly to the merged totals (accounting is
    # conserved across the process boundary).
    merged_sum = sum(fleet_obs.ledger_totals().values())
    assert merged_sum == sum(r.total_cycles for r in fleet_results)


def test_observed_specs_return_snapshot_alongside_result():
    spec = _specs(1)[0]
    plain = execute_spec(spec)
    observed = execute_spec(MachineSpec(**{**spec.__dict__, "observe": True}))
    assert isinstance(observed, ObservedExecution)
    assert observed.result.total_cycles == plain.total_cycles
    assert observed.result.tx == plain.tx
    assert not observed.snapshot.empty
    assert observed.snapshot.ledger
    assert sum(observed.snapshot.ledger.values()) == plain.total_cycles
    assert observed.snapshot.metrics["tdr_runs_total"]["value"] == 1.0


def test_null_registry_fast_path_is_allocation_free():
    """The disabled path hands out shared singletons — no per-call dicts
    or snapshot objects on the hot path."""
    registry = NullRegistry()
    assert registry.snapshot() is EMPTY_SNAPSHOT
    assert registry.snapshot() is registry.snapshot()
    registry.merge_snapshot({"x": {"kind": "counter", "value": 1.0}})
    assert registry.render() == ""
    assert ObsSnapshot.capture(None) is EMPTY_OBS_SNAPSHOT
    assert EMPTY_OBS_SNAPSHOT.empty


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert default_jobs() >= 1
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() == 1


def test_pooled_calls_reuse_the_same_workers():
    """One pool per process: three pooled calls with the same ``jobs``
    are served by the same two worker processes, not one fork each."""
    specs = _probe_specs()
    serial = [facts for _, _, facts in run_fleet(specs, jobs=1,
                                                 worker=_probe)]
    pids = set()
    for _ in range(3):
        with _deadline(120):
            out = run_fleet(specs, jobs=2, worker=_probe)
        assert [facts for _, _, facts in out] == serial
        pids |= {pid for pid, _, _ in out}
    assert os.getpid() not in pids
    assert len(pids) == 2


def test_repro_switch_flipped_between_calls_reaches_workers(monkeypatch):
    """``REPRO_*`` is part of the pool's key: a switch flipped in the
    parent between two pooled calls is what the next call's workers
    see, and the results still equal the serial loop's."""
    specs = _probe_specs()
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    with _deadline(120):
        batched = run_fleet(specs, jobs=2, worker=_probe)
        monkeypatch.setenv("REPRO_NO_BATCH", "1")
        unbatched = run_fleet(specs, jobs=2, worker=_probe)
    serial = run_fleet(specs, jobs=1, worker=_probe)
    assert {seen for _, seen, _ in batched} == {None}
    assert {seen for _, seen, _ in unbatched} == {"1"}
    assert os.getpid() not in {pid for pid, _, _ in batched + unbatched}
    facts = [facts for _, _, facts in serial]
    assert [f for _, _, f in batched] == [f for _, _, f in unbatched] \
        == facts


def test_killed_worker_falls_back_to_serial_then_reforks():
    """A worker killed between two calls breaks the pool; the next call
    still returns the serial results (the broken pool is dropped and
    that call runs in-process), and a fresh pool serves later calls."""
    specs = _probe_specs()
    serial = [facts for _, _, facts in run_fleet(specs, jobs=1,
                                                 worker=_probe)]
    victim = run_fleet(specs, jobs=2, worker=_probe)[0][0]
    assert victim != os.getpid()
    os.kill(victim, signal.SIGKILL)
    with _deadline(120):
        after_kill = run_fleet(specs, jobs=2, worker=_probe)
        later = run_fleet(specs, jobs=2, worker=_probe)
    assert [facts for _, _, facts in after_kill] == serial
    assert [facts for _, _, facts in later] == serial
    assert {pid for pid, _, _ in later}.isdisjoint({victim, os.getpid()})


# -- prefetch ---------------------------------------------------------------

def _kvstore_specs(n=3):
    return [MachineSpec(program="kvstore", config=MachineConfig(), seed=seed,
                        workload=f"kvstore:{500 + seed}:4")
            for seed in range(n)]


def test_prefetched_results_equal_the_serial_ones():
    """Plays (``execute_spec``) and audits (``execute_replay_task``)
    served from prefetched futures equal the ``jobs=1`` results, and
    serving them empties the memo."""
    plays = _kvstore_specs()
    serial_plays = run_fleet(plays, jobs=1)
    audits = [ReplayTask("kvstore", result.log.to_bytes(), MachineConfig(),
                         seed=1, max_instructions=200_000_000)
              for result in serial_plays]
    serial_audits = run_fleet(audits, jobs=1, worker=execute_replay_task)
    with _deadline(120), prefetching():
        prefetch(plays, 2)
        prefetch(audits, 2, worker=execute_replay_task)
        assert len(parallel._prefetched) == len(plays) + len(audits)
        served_plays = run_fleet(plays, jobs=2)
        served_audits = run_fleet(audits, jobs=2,
                                  worker=execute_replay_task)
        assert not parallel._prefetched
    assert [r.fingerprint() for r in served_plays] \
        == [r.fingerprint() for r in serial_plays]
    assert [(r.result.fingerprint(), r.diverged) for r in served_audits] \
        == [(r.result.fingerprint(), r.diverged) for r in serial_audits]


def test_prefetching_cancels_or_waits_for_what_nobody_asked_for():
    # Two workers start at most five of eight tasks (two running, three
    # in the pool's call queue) before the block ends.
    specs = _probe_specs(8)
    with _deadline(120):
        with prefetching():
            prefetch(specs, 2, worker=_slow_probe)
            futures = list(parallel._prefetched.values())
        assert not parallel._prefetched
    assert len(futures) == 8
    assert all(f.done() and not f.running() for f in futures)
    assert any(f.cancelled() for f in futures)   # queued, never started


def test_fleet_run_leaves_no_prefetched_work():
    """After ``FleetService.run(jobs=2)`` the memo is empty and no
    prefetched future is pending or running."""
    futures = []

    def recording(original):
        def prefetch(*args, **kwargs):
            original(*args, **kwargs)
            futures.extend(parallel._prefetched.values())
        return prefetch

    service = FleetService(default_tenants(3, requests=4),
                           topology=FleetTopology(num_nodes=2), epochs=2,
                           seed=3)
    with _deadline(120), mock.patch.object(
            service_fleet, "prefetch", recording(service_fleet.prefetch)):
        service.run(jobs=2)
    assert futures
    assert not parallel._prefetched
    assert all(f.done() and not f.running() for f in futures)


def test_killed_worker_drops_the_memo():
    """Workers killed under prefetched tasks break their futures: the
    call drops the pool with its memo and returns the serial results,
    computed in this process."""
    specs = _probe_specs()
    serial = [facts for _, _, facts in run_fleet(specs, jobs=1,
                                                 worker=_probe)]
    with _deadline(120), prefetching():
        prefetch(specs, 2, worker=_slow_probe)
        for pid in list(parallel._pool._processes):
            os.kill(pid, signal.SIGKILL)
        out = run_fleet(specs, jobs=2, worker=_slow_probe)
        assert not parallel._prefetched
        assert parallel._pool is None
    assert [facts for _, _, facts in out] == serial
    assert {pid for pid, _, _ in out} == {os.getpid()}


def test_repro_switch_flipped_after_prefetch_drops_the_memo(monkeypatch):
    """Futures prefetched under one ``REPRO_*`` environment are not
    served to a call made under another: the call drops them with the
    pool, and fresh workers that see the switch return the serial
    results."""
    specs = _probe_specs()
    serial = [facts for _, _, facts in run_fleet(specs, jobs=1,
                                                 worker=_probe)]
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    with _deadline(120), prefetching():
        prefetch(specs, 2, worker=_probe)
        monkeypatch.setenv("REPRO_NO_BATCH", "1")
        out = run_fleet(specs, jobs=2, worker=_probe)
        assert not parallel._prefetched
    assert {seen for _, seen, _ in out} == {"1"}
    assert [facts for _, _, facts in out] == serial


def test_task_without_a_prefetched_future_runs_as_before():
    """Only prefetched tasks are served from the pool's futures: a lone
    other task runs in this process, as a one-task call always has, and
    several go to the pool; results stay in submission order."""
    specs = _probe_specs()
    serial = [facts for _, _, facts in run_fleet(specs, jobs=1,
                                                 worker=_probe)]
    with _deadline(120), prefetching():
        prefetch(specs[:3], 2, worker=_probe)
        mixed = run_fleet(specs, jobs=2, worker=_probe)
        assert not parallel._prefetched
        pooled = run_fleet(specs[1:], jobs=2, worker=_probe)
    assert [facts for _, _, facts in mixed] == serial
    assert [facts for _, _, facts in pooled] == serial[1:]
    assert os.getpid() not in {pid for pid, _, _ in mixed[:3] + pooled}
    assert mixed[3][0] == os.getpid()
    assert parallel._prefetched == {}
