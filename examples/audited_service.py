#!/usr/bin/env python3
"""A continuously-audited multi-tenant service (the paper's §3.2, live).

Earlier revisions of this example audited one machine after the fact.
This one drives ``repro.service`` — the deterministic continuous-audit
verifier fleet, here on one node as ``reproduce serve`` runs it — end
to end, on a roster of three tenants:

* **tenant-00** runs an honest key-value store;
* **tenant-01** runs the same store but leaks a secret through an
  IPCTC covert timing channel (delays injected during play, *never*
  logged — the shipped log is perfectly honest-looking);
* **tenant-02** is honest too, but its segments travel a lossy link.

Each epoch, every tenant plays its workload, hash-chains and signs its
event log, and ships it in segments over the (simulated) network.  The
verifier admits segments through a CRC + attestation-chain gate, spot
checks cheap prefixes, and escalates anomalies to full-prefix replays —
all on a virtual clock, so the whole story below is bit-identical on
every run.

Run:  python examples/audited_service.py
"""

from repro.core.resilience import AuditClassification
from repro.obs.metrics import MetricsRegistry
from repro.service import FleetService, FleetTopology, default_tenants

TENANTS = 3
EPOCHS = 2
SEED = 2014


def main() -> None:
    roster = default_tenants(TENANTS, covert_channel="ipctc", requests=6)
    print("tenant roster:")
    for spec in roster:
        traits = []
        if spec.covert_channel:
            traits.append(f"covert {spec.covert_channel.upper()} channel")
        if spec.drop_rate:
            traits.append(f"lossy link (drop {spec.drop_rate:.0%})")
        print(f"  {spec.tenant_id}: kvstore x {spec.requests} requests, "
              f"{spec.segments} segments/epoch"
              + (f" — {', '.join(traits)}" if traits else ""))

    service = FleetService(roster, topology=FleetTopology(num_nodes=1),
                           epochs=EPOCHS, seed=SEED,
                           registry=MetricsRegistry())
    report = service.run()

    # --- 1. The escalation story, replayed from the ledger. --------------
    covert = report.ledgers["tenant-01"]
    print(f"\nhow tenant-01 was caught ({covert.audits} audits):")
    for event in covert.events:
        print(f"  epoch {event.epoch} {event.kind:>9s} "
              f"[{event.cause}] -> {event.classification.value:16s} "
              f"coverage {event.coverage:.2f}  "
              f"worst IPD diff {event.max_rel_ipd_diff:.1%}  "
              f"status {event.tenant_status}")
    assert covert.flagged and covert.final_status == "flagged-covert"
    assert any(e.kind == "escalated" for e in covert.events), \
        "the flag must come from an escalated full-prefix replay"

    # The spot check saw the anomaly first; the escalation confirmed it.
    suspicious = [e for e in covert.events if e.kind == "spot"
                  and e.classification
                  is AuditClassification.REPLAY_DIVERGENT]
    assert suspicious, "a spot check must have raised the suspicion"
    print(f"  -> a {suspicious[0].coverage:.0%}-coverage spot check "
          f"raised the alarm; escalation confirmed it")

    # --- 2. The honest tenants, including the lossy one, stay clean. -----
    print("\nhonest tenants:")
    for tid in ("tenant-00", "tenant-02"):
        ledger = report.ledgers[tid]
        worst = max(e.max_rel_ipd_diff for e in ledger.events)
        print(f"  {tid}: {ledger.verdict} after {ledger.audits} audits "
              f"(worst IPD diff {worst:.2%})")
        assert not ledger.flagged
        assert worst < 0.0185, "honest replays stay inside the §6.2 bound"

    # --- 3. The full report the operator would read. ----------------------
    print()
    for line in report.render_lines():
        print(f"  {line}")
    assert report.exit_code == 1, "a flagged tenant means non-zero exit"

    print("\nThe verifier flagged the covert tenant from streaming "
          "segments — cheap spot checks first, full replay only on "
          "suspicion — and the whole run is a pure function of "
          f"seed={SEED}.")


if __name__ == "__main__":
    main()
