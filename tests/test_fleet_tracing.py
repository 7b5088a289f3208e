"""Fleet-level tracing contract: determinism, re-parenting, SLO gating.

The observability pillar of time-deterministic replay is that watching
the system never changes it.  Concretely:

* **Traces are themselves deterministic** — the merged Chrome trace is
  byte-identical across reruns and across worker counts (``--jobs 1``
  vs ``--jobs 4``), including under chaos (``test_equivalence.py``).
* **Causality survives node death** — when a node dies mid-audit the
  in-flight span closes ``killed`` and the redelivered job's queue-wait
  span re-parents onto it, so one trace tells the whole story through
  the crash to the final verdict.
"""

import json

from repro.faults.plans import NodeChaosPlan, NodeCrash
from repro.obs.metrics import MetricsRegistry, split_series
from repro.service import FleetService, FleetTopology, default_tenants
from repro.tools.reproduce import main

COVERT = "tenant-01"
CHAOS = NodeChaosPlan.parse("crash:1@180,stall:2@90+500")


def _service(chaos=None, nodes=3, tenants=3, epochs=2, seed=7,
             registry=None):
    return FleetService(
        default_tenants(tenants, requests=4),
        topology=FleetTopology(num_nodes=nodes),
        epochs=epochs, seed=seed, chaos=chaos,
        registry=registry if registry is not None else MetricsRegistry())


def _razor_plan():
    """A crash timed to land while the covert tenant's escalation is in
    flight on its owner node (the hardest redelivery case)."""
    baseline = _service()
    report = baseline.run()
    escalations = sorted(
        (e for ledger in report.ledgers.values() for e in ledger.events
         if e.tenant_id == COVERT and e.kind == "escalated"),
        key=lambda e: e.start_ms)
    assert escalations, "fixture expects the covert tenant to escalate"
    target = escalations[0]
    owner = int(target.node.split("-")[1])
    crash_at = (target.start_ms + target.completion_ms) / 2.0
    return NodeChaosPlan(faults=(NodeCrash(node=owner, at_ms=crash_at),),
                         name="razor")


class TestTraceDeterminism:
    def test_chaos_markers_land_on_tracks(self):
        service = _service(chaos=CHAOS)
        service.run()
        names = {i["name"] for i in service.dist.instants}
        assert "crash:node-01" in names
        assert "stall:node-02" in names
        categories = {i["category"] for i in service.dist.instants}
        assert "chaos" in categories


class TestRazorReparenting:
    """The acceptance scenario: owner dies between dispatch and verdict."""

    def test_killed_span_reparents_to_verdict(self):
        service = _service(chaos=_razor_plan())
        report = service.run()
        dist = service.dist
        assert dist.killed_spans >= 1 and dist.reparented >= 1

        killed = [s for s in dist.spans if s.status == "killed"]
        by_id = {s.span_id: s for s in dist.spans}
        chains = 0
        for wait in dist.spans:
            if wait.name != "queue-wait" or \
                    "reparented_from" not in wait.attrs:
                continue
            parent = by_id[wait.parent_id]
            assert parent.status == "killed"
            assert wait.attrs["reparented_from"] == \
                parent.attrs["killed_on"]
            assert wait.track != parent.track  # new owner, new track
            # The redelivered audit hangs off the re-parented wait and
            # ends in a verdict.
            audit = next(s for s in dist.spans
                         if s.parent_id == wait.span_id)
            assert audit.name.startswith("audit:")
            assert audit.status == "ok"
            assert "classification" in audit.attrs
            assert audit.trace_id == parent.trace_id
            chains += 1
        assert chains == len(killed) >= 1
        # Detection still lands despite the mid-flight kill.
        assert COVERT in report.flagged_tenants

    def test_razor_trace_still_byte_identical(self):
        plan = _razor_plan()
        first = _service(chaos=plan)
        second = _service(chaos=plan)
        first.run(jobs=1)
        second.run(jobs=4)
        assert json.dumps(first.dist.to_chrome_trace(), sort_keys=True) \
            == json.dumps(second.dist.to_chrome_trace(), sort_keys=True)


class TestPerNodeMetricAggregates:
    def test_labeled_cache_hits_sum_to_aggregate(self):
        registry = MetricsRegistry()
        _service(chaos=CHAOS, registry=registry).run()
        snapshot = registry.snapshot()
        for family in ("tdr_replay_cache_hits_total",
                       "tdr_replay_cache_misses_total"):
            per_node = [
                entry["value"] for name, entry in snapshot.items()
                if split_series(name)[0] == family
                and split_series(name)[1].startswith("node=")]
            assert family in snapshot
            assert len(per_node) == 3  # one labeled series per node
            assert sum(per_node) == snapshot[family]["value"]
        assert snapshot["tdr_replay_cache_misses_total"]["value"] > 0


class TestSLOExitCode:
    def test_fleet_audit_breach_exits_4(self, tmp_path, capsys):
        # tenants=1 keeps the covert tenant out so the flag exit (1)
        # cannot shadow the SLO exit (4).
        code = main(["fleet-audit", "--tenants", "1", "--nodes", "2",
                     "--epochs", "1",
                     "--slo", "p99_verdict_ms=0.001"])
        assert code == 4
        out = capsys.readouterr().out
        assert "BREACH" in out and "p99_verdict_ms" in out

    def test_fleet_audit_met_slo_keeps_clean_exit(self, capsys):
        code = main(["fleet-audit", "--tenants", "1", "--nodes", "2",
                     "--epochs", "1",
                     "--slo", "p99_verdict_ms=1e9,max_unaudited=1"])
        assert code == 0
        assert "SLO" in capsys.readouterr().out

    def test_bad_slo_spec_is_a_usage_error(self, capsys):
        code = main(["fleet-audit", "--tenants", "1",
                     "--slo", "bogus_key=1"])
        assert code == 2

    def test_trace_out_writes_loadable_chrome_trace(self, tmp_path):
        out = tmp_path / "fleet-trace.json"
        main(["fleet-audit", "--tenants", "1", "--nodes", "2",
              "--epochs", "1", "--trace-out", str(out)])
        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert {"M", "X"} <= phases
