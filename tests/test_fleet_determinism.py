"""Determinism of the sharded fleet under chaos.

The tentpole invariant: a fleet run is a pure function of (seed, roster,
policy, topology, chaos plan).  Killing node N at tick T yields
bit-identical verdict sets, rebalance events, and ledger sums across
reruns and across ``jobs=1`` vs ``jobs=4`` — the process pool moves
wall-clock only, never an outcome (``test_equivalence.py`` checks it on
``verdicts_dict()``).  The tests here compare the rebalance events and
tenant ledgers of the report objects across ``jobs``, and pin what the
seed and the fleet size may move.
"""

from unittest import mock

import pytest

from repro.analysis import parallel
from repro.faults.plans import NodeChaosPlan
from repro.obs.metrics import MetricsRegistry
from repro.service import FleetService, FleetTopology, default_tenants
from repro.service import daemon, fleet, scheduler

CHAOS = NodeChaosPlan.parse("crash:1@180,stall:2@90+500")


def _run(seed=7, chaos=CHAOS, nodes=4, jobs=None):
    service = FleetService(
        default_tenants(3, requests=4),
        topology=FleetTopology(num_nodes=nodes),
        epochs=2, seed=seed, chaos=chaos, registry=MetricsRegistry())
    return service.run(jobs=jobs)


@pytest.fixture(scope="module")
def jobs_1_and_4():
    return _run(jobs=1), _run(jobs=4)


class TestFleetDeterminism:
    def test_rebalance_events_identical_across_jobs(self, jobs_1_and_4):
        serial, parallel = jobs_1_and_4
        assert serial.rebalances == parallel.rebalances
        assert serial.requeued == parallel.requeued
        assert serial.killed_in_flight == parallel.killed_in_flight

    def test_ledger_sums_identical_across_jobs(self, jobs_1_and_4):
        serial, parallel = jobs_1_and_4
        for tid, ledger in serial.ledgers.items():
            other = parallel.ledgers[tid]
            assert ledger.audits == other.audits
            assert ledger.spot_checks == other.spot_checks
            assert ledger.escalations == other.escalations
            assert ledger.final_status == other.final_status

    def test_seeded_chaos_plan_is_reproducible(self):
        plan_a = NodeChaosPlan.seeded(11, num_nodes=4, horizon_ms=800.0)
        plan_b = NodeChaosPlan.seeded(11, num_nodes=4, horizon_ms=800.0)
        assert plan_a.spec == plan_b.spec
        assert _run(chaos=plan_a).verdicts_dict() \
            == _run(chaos=plan_b).verdicts_dict()

    def test_seed_changes_timeline_not_robustness(self):
        for seed in (7, 8):
            report = _run(seed=seed)
            assert report.flagged_tenants == ["tenant-01"]
            verdicted = report.sessions_verdicted
            assert verdicted + len(report.unaudited) == \
                report.sessions_total

    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_verdicts_stable_across_fleet_sizes(self, nodes):
        # Node count is capacity, not policy: the flag set must not
        # depend on how many shards the fleet runs (no chaos here —
        # capacity loss legitimately changes coverage).
        report = _run(chaos=None, nodes=nodes)
        assert report.flagged_tenants == ["tenant-01"]
        assert not report.unaudited


def test_prefetch_serves_every_planned_play_and_audit():
    """Work-count gate for the fleet's prefetch (8 tenants x 3 epochs, 4
    nodes, ``crash:1@180``, ``jobs=2``): every play, and every audit of
    the undamaged epochs 1 and 2 (no crash, no escalation), finds its
    future waiting in the memo when the loop asks for it.  The one task
    that does not is the covert tenant's escalation in epoch 0, which
    waits on a verdict.  Submissions and lookups happen at fixed points
    of the run, so these counts do not depend on timing."""
    calls = []                    # (epoch, kind, [prefetched per task])
    epoch = [None]

    def tracking(original):
        def play_and_ship(sessions, at_epoch, *args, **kwargs):
            epoch[0] = at_epoch
            return original(sessions, at_epoch, *args, **kwargs)
        return play_and_ship

    def counting(kind):
        def run_fleet(tasks, jobs=None, worker=parallel.execute_spec):
            tasks = list(tasks)
            calls.append((epoch[0], kind, [(worker, task) in parallel
                                           ._prefetched for task in tasks]))
            return parallel.run_fleet(tasks, jobs=jobs, worker=worker)
        return run_fleet

    service = FleetService(
        default_tenants(8, requests=8), topology=FleetTopology(num_nodes=4),
        epochs=3, seed=1, chaos=NodeChaosPlan.parse("crash:1@180"),
        registry=MetricsRegistry())
    with mock.patch.object(fleet, "play_and_ship",
                           tracking(fleet.play_and_ship)), \
            mock.patch.object(daemon, "run_fleet", counting("play")), \
            mock.patch.object(scheduler, "run_fleet", counting("audit")):
        report = service.run(jobs=2)

    plays = [hit for _, kind, hits in calls if kind == "play"
             for hit in hits]
    assert len(plays) == 24 and all(plays)
    for undamaged in (1, 2):
        audits = [hit for at, kind, hits in calls
                  if kind == "audit" and at == undamaged for hit in hits]
        assert audits and all(audits)
    misses = [(at, len(hits)) for at, _, hits in calls for hit in hits
              if not hit]
    assert misses == [(0, 1)]
    assert [(e.epoch, e.kind) for e in service.sink.events
            if e.cause.startswith("spot-anomaly")] == [(0, "escalated")]
    assert sum(len(hits) for _, _, hits in calls) == 65
    assert report.flagged_tenants == ["tenant-01"]
    assert report.rebalances and not parallel._prefetched
