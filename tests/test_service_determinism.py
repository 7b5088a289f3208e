"""The service run is a pure function of (seed, roster, policy).

Its verdicts, queue metrics, and per-tenant ledgers are byte-identical
across repeat runs and ``--jobs`` settings (``test_equivalence.py``
checks it).  Worker count is a *policy* knob that may legally move
virtual latencies, but never the flagged set or audit outcomes.  The
runs here are the one-node fleet ``reproduce serve`` makes.
"""

from repro.obs.metrics import MetricsRegistry
from repro.service import FleetService, FleetTopology, default_tenants


def _run(num_workers=2, seed=7):
    service = FleetService(
        default_tenants(3, requests=4),
        topology=FleetTopology(num_nodes=1, workers_per_node=num_workers),
        epochs=2, seed=seed, registry=MetricsRegistry())
    return service.run()


def test_worker_count_never_changes_a_verdict():
    two = _run(num_workers=2)
    four = _run(num_workers=4)
    assert two.flagged_tenants == four.flagged_tenants == ["tenant-01"]
    for tid in two.ledgers:
        a, b = two.ledgers[tid], four.ledgers[tid]
        assert a.verdict == b.verdict
        assert [e.classification for e in a.events] \
            == [e.classification for e in b.events]


def test_different_seeds_move_the_timeline_not_the_verdicts():
    a, b = _run(seed=7), _run(seed=8)
    assert a.verdicts_dict() != b.verdicts_dict()    # seed actually matters
    assert a.flagged_tenants == b.flagged_tenants    # the channel still shows
