"""Admission control: CRC salvage, chain checks, gap quarantine."""

import dataclasses

import pytest

from repro.analysis.parallel import execute_spec
from repro.obs.metrics import MetricsRegistry
from repro.service import AdmissionStatus, IngestGate, ProverSession, TenantSpec


def _shipments(tamper=False, tenant_id="t0"):
    spec = TenantSpec(tenant_id=tenant_id, requests=4, seed=3, segments=3,
                      tamper=tamper)
    session = ProverSession(spec, service_seed=11)
    result = execute_spec(session.play_spec(0))
    return spec, session.ship(0, result, epoch_start_ms=0.0).shipments


def _damage(shipment):
    """Truncate the chunk mid-entry: framing breaks, prefix survives."""
    return dataclasses.replace(
        shipment, chunk_bytes=shipment.chunk_bytes[:-10])


def _gate(spec, registry=None):
    if registry is None:
        registry = MetricsRegistry()
    return IngestGate({spec.tenant_id: spec}, registry=registry)


def test_clean_epoch_admits_every_segment():
    spec, shipments = _shipments()
    gate = _gate(spec)
    records = [gate.admit(s) for s in shipments]
    assert all(r.status is AdmissionStatus.ADMITTED for r in records)
    assert all(r.chain_ok is True for r in records)
    lengths = [r.accumulated_entries for r in records]
    assert lengths == sorted(lengths) and lengths[0] > 0
    acc = gate.accumulator(spec.tenant_id, 0)
    assert acc.segments_admitted == 3 and not acc.gap and not acc.tampered


def test_tampered_segment_is_proof_not_suspicion():
    spec, shipments = _shipments(tamper=True)
    gate = _gate(spec)
    records = [gate.admit(s) for s in shipments]
    statuses = [r.status for r in records]
    assert AdmissionStatus.TAMPER in statuses
    first_bad = statuses.index(AdmissionStatus.TAMPER)
    assert records[first_bad].chain_ok is False
    # Everything after proof of tampering is quarantined, not chained.
    assert all(s is AdmissionStatus.QUARANTINED
               for s in statuses[first_bad + 1:])
    assert gate.accumulator(spec.tenant_id, 0).tampered


def test_damaged_chunk_degrades_and_opens_a_gap():
    spec, shipments = _shipments()
    gate = _gate(spec)
    first = gate.admit(shipments[0])
    assert first.status is AdmissionStatus.ADMITTED
    degraded = gate.admit(_damage(shipments[1]))
    assert degraded.status is AdmissionStatus.DEGRADED
    # The intact prefix of the damaged chunk is still salvaged.
    assert degraded.accumulated_entries >= first.accumulated_entries
    acc = gate.accumulator(spec.tenant_id, 0)
    assert acc.gap and not acc.tampered


def test_intact_segment_after_gap_is_quarantined():
    spec, shipments = _shipments()
    gate = _gate(spec)
    gate.admit(shipments[0])
    gate.admit(_damage(shipments[1]))
    before = len(gate.accumulator(spec.tenant_id, 0).log.entries)
    late = gate.admit(shipments[2])
    assert late.status is AdmissionStatus.QUARANTINED
    assert late.chain_ok is None
    # Quarantined entries never reach the verifier-side log.
    assert len(gate.accumulator(spec.tenant_id, 0).log.entries) == before


@pytest.mark.parametrize("order", [(1, 0, 2), (0, 2, 1)],
                         ids=("1-before-0", "2-before-1"))
def test_segment_ahead_of_its_predecessor_opens_the_gap(order):
    # Lossy-link retries can land a segment before its predecessor.
    spec, shipments = _shipments()
    gate = _gate(spec)
    records = [gate.admit(shipments[seq]) for seq in order]
    early = next(i for i, seq in enumerate(order) if seq != i)
    assert all(r.status is AdmissionStatus.ADMITTED
               for r in records[:early])
    assert all(r.status is AdmissionStatus.QUARANTINED
               for r in records[early:])
    assert "out of order" in records[early].detail
    acc = gate.accumulator(spec.tenant_id, 0)
    assert acc.gap and not acc.tampered
    # Only the in-order prefix was appended, so the log never runs
    # backwards in instruction count.
    assert len(acc.log.entries) == (records[early - 1].accumulated_entries
                                    if early else 0)
    counts = [entry.instr_count for entry in acc.log.entries]
    assert counts == sorted(counts)


def test_epochs_accumulate_independently():
    spec = TenantSpec(tenant_id="t0", requests=4, seed=3, segments=2)
    session = ProverSession(spec, service_seed=11)
    gate = _gate(spec)
    epoch0 = session.ship(0, execute_spec(session.play_spec(0)), 0.0)
    epoch1 = session.ship(1, execute_spec(session.play_spec(1)), 500.0)
    gate.admit(_damage(epoch0.shipments[0]))          # epoch 0 gap
    records = [gate.admit(s) for s in epoch1.shipments]
    assert all(r.status is AdmissionStatus.ADMITTED for r in records)
    assert gate.accumulator("t0", 0).gap
    assert not gate.accumulator("t0", 1).gap


def test_admission_metrics_are_emitted():
    spec, shipments = _shipments()
    registry = MetricsRegistry()
    gate = _gate(spec, registry=registry)
    for shipment in shipments[:2]:
        gate.admit(shipment)
    gate.admit(_damage(shipments[2]))
    snap = registry.snapshot()
    assert snap["service_segments_ingested_total"]["value"] == 3
    assert snap["service_segments_admitted_total"]["value"] == 2
    assert snap["service_segments_degraded_total"]["value"] == 1
    assert snap["service_ingest_bytes_total"]["value"] > 0
