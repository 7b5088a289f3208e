"""Admission control: verify before you enqueue, enqueue before you replay.

Replay is the expensive resource of the verifier service, so the ingest
layer spends the cheap checks first, PeerReview-style:

1. **Framing / CRC** — the chunk bytes are parsed tolerantly
   (:meth:`EventLog.parse_prefix`); a degraded transfer delivers a
   contiguous prefix whose intact entries are still usable.
2. **Chain** — the cumulative per-tenant log (all admitted entries of the
   epoch plus this chunk's intact entries) is checked against the
   segment's signed authenticator.  A mismatch is *proof* of tampering —
   the entries on hand are not the ones the machine committed to — and
   short-circuits straight to escalation without any replay.
3. **Gap discipline** — once a chunk is damaged or lost, later chunks of
   the same epoch are quarantined rather than appended: splicing entries
   after a gap would produce a log the chain can never match, and a
   fabricated "tamper" verdict for what is really transfer damage.  A
   chunk that arrives before its predecessor (lossy-link retries can
   reorder them) opens the gap the same way: appending it would splice
   a log whose instruction counts run backwards.

The accumulator owns the verifier-side copy of each tenant-epoch's log;
schedulable audit work only ever sees entries that came through here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.attestation import LogVerifier
from repro.core.log import EventLog
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.service.session import SegmentShipment, TenantSpec


class AdmissionStatus(str, enum.Enum):
    """What the ingest gate concluded about one segment."""

    ADMITTED = "admitted"              #: intact, chain-consistent
    DEGRADED = "degraded"              #: damage truncated the chunk
    QUARANTINED = "quarantined"        #: after a gap; cannot be chained
    TAMPER = "tamper"                  #: chain mismatch on intact entries


@dataclass
class AdmissionRecord:
    """Outcome of admitting one segment shipment."""

    shipment: SegmentShipment
    status: AdmissionStatus
    intact_entries: int                #: entries salvaged from this chunk
    accumulated_entries: int           #: verifier-side log length after
    #: Chain verdict: True ok, False tamper, None inconclusive (the
    #: authenticator covers entries the damage removed).
    chain_ok: bool | None
    detail: str = ""


@dataclass
class EpochAccumulator:
    """The verifier's copy of one tenant-epoch's log, grown chunk by chunk."""

    tenant_id: str
    epoch: int
    log: EventLog = field(default_factory=EventLog)
    segments_seen: int = 0
    segments_admitted: int = 0
    gap: bool = False                  #: a chunk was damaged, lost or late
    tampered: bool = False
    #: Wire-observed transmissions audited so far (set by the scheduler).
    last_audited_entries: int = 0


class IngestGate:
    """Per-tenant admission: CRC + chain checks, then enqueue."""

    def __init__(self, tenants: dict[str, TenantSpec],
                 registry: MetricsRegistry | None = None) -> None:
        self._verifiers = {tid: LogVerifier(spec.signing_key)
                           for tid, spec in tenants.items()}
        self.registry = registry if registry is not None else get_registry()
        self._accumulators: dict[tuple[str, int], EpochAccumulator] = {}

    def accumulator(self, tenant_id: str, epoch: int) -> EpochAccumulator:
        key = (tenant_id, epoch)
        acc = self._accumulators.get(key)
        if acc is None:
            acc = EpochAccumulator(tenant_id=tenant_id, epoch=epoch)
            self._accumulators[key] = acc
        return acc

    def admit(self, shipment: SegmentShipment) -> AdmissionRecord:
        """Run the cheap checks; grow the accumulator; classify."""
        acc = self.accumulator(shipment.tenant_id, shipment.epoch)
        acc.segments_seen += 1
        verifier = self._verifiers[shipment.tenant_id]

        parse = EventLog.parse_prefix(shipment.chunk_bytes)
        damaged = shipment.degraded or not parse.complete
        intact = parse.log.entries[:parse.intact_entries]

        out_of_order = shipment.seq != acc.segments_seen - 1
        if acc.gap or out_of_order:
            # Entries after a gap, or out of their epoch's order, cannot
            # extend the chained prefix.
            acc.gap = True
            cause = (f"segment {shipment.seq} arrived out of order"
                     if out_of_order else
                     "a prior segment of this epoch was damaged")
            record = AdmissionRecord(
                shipment, AdmissionStatus.QUARANTINED,
                intact_entries=len(intact),
                accumulated_entries=len(acc.log.entries),
                chain_ok=None,
                detail=f"{cause}; the chain cannot be extended past the gap")
            self._count(record)
            return record

        acc.log.entries.extend(intact)
        chain_ok = verifier.verify_available_prefix(acc.log, shipment.auth)
        if chain_ok is False:
            acc.tampered = True
            acc.gap = True            # nothing after proof of tampering
            record = AdmissionRecord(
                shipment, AdmissionStatus.TAMPER,
                intact_entries=len(intact),
                accumulated_entries=len(acc.log.entries),
                chain_ok=False,
                detail="attestation chain mismatch: the delivered entries "
                       "are not the ones the machine committed to")
            self._count(record)
            return record

        if damaged:
            acc.gap = True
            status = AdmissionStatus.DEGRADED
            detail = (f"transfer delivered "
                      f"{shipment.transfer.frames_delivered}/"
                      f"{shipment.transfer.total_frames} frames; "
                      f"{len(intact)} intact entries salvaged")
        else:
            acc.segments_admitted += 1
            status = AdmissionStatus.ADMITTED
            detail = (f"segment {shipment.seq + 1}/"
                      f"{shipment.total_segments} chained at "
                      f"{len(acc.log.entries)} entries")
        record = AdmissionRecord(
            shipment, status, intact_entries=len(intact),
            accumulated_entries=len(acc.log.entries),
            chain_ok=chain_ok, detail=detail)
        self._count(record)
        return record

    def _count(self, record: AdmissionRecord) -> None:
        registry = self.registry
        if not registry.enabled:
            return
        registry.counter("service_segments_ingested_total",
                         "Segment shipments presented to admission").inc()
        slug = record.status.value
        registry.counter(f"service_segments_{slug}_total",
                         f"Segments classified {slug} at admission").inc()
        registry.counter(
            "service_ingest_bytes_total",
            "Chunk bytes received (post-transfer)").inc(
            len(record.shipment.chunk_bytes))
