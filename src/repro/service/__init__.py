"""repro.service — a deterministic continuous-audit verifier service.

The §3.2 deployment story made executable: tenants (prover machines)
stream hash-chained log segments to a verifier fleet that admits,
queues, schedules, and escalates incremental replay audits — all under a
seeded discrete-event clock, so an entire multi-tenant service run is a
pure function of its seed.  ``reproduce serve`` runs the fleet on one
node; ``reproduce fleet-audit`` on N nodes under node chaos.

Modules
-------
``simclock``    virtual-time event queue + worker-pool model
``session``     prover sessions: play, chain, sign, segment, ship
``ingest``      admission: CRC + attestation-chain checks, gap discipline
``queue``       priority job queue with budgets and backpressure
``scheduler``   escalation state machine + cache-backed fleet dispatch
``verdicts``    per-tenant ledgers, the idempotent verdict sink
``daemon``      the prover side: the default roster, play and ship
``ring``        consistent-hash tenant placement for the sharded fleet
``failure``     heartbeat failure detection over virtual time
``fleet``       the epoch loop on N nodes: chaos, rebalance, degradation,
                the run report
"""

from repro.service.daemon import default_tenants, play_and_ship
from repro.service.failure import FailureDetector, NodeHealth
from repro.service.fleet import (FleetNode, FleetReport, FleetService,
                                 FleetTopology, RebalanceEvent,
                                 persist_fleet_report)
from repro.service.ingest import (AdmissionRecord, AdmissionStatus,
                                  EpochAccumulator, IngestGate)
from repro.service.queue import (PRIORITY_ESCALATED, PRIORITY_FULL,
                                 PRIORITY_SPOT, AuditJob, AuditQueue)
from repro.service.ring import HashRing
from repro.service.scheduler import (AuditScheduler, EscalationPolicy,
                                     ReplayTask, TenantState, TenantStatus,
                                     execute_replay_task, resolve_replays)
from repro.service.session import (EpochShipment, ProverSession,
                                   SegmentShipment, TenantSpec,
                                   WireObservation)
from repro.service.simclock import (ServiceError, SimClock, SimEvent,
                                    WorkerPool)
from repro.service.verdicts import (AuditEvent, TenantLedger,
                                    UnauditedRecord, VerdictSink)

__all__ = [
    "AdmissionRecord",
    "AdmissionStatus",
    "AuditEvent",
    "AuditJob",
    "AuditQueue",
    "AuditScheduler",
    "EpochAccumulator",
    "EpochShipment",
    "EscalationPolicy",
    "FailureDetector",
    "FleetNode",
    "FleetReport",
    "FleetService",
    "FleetTopology",
    "HashRing",
    "IngestGate",
    "NodeHealth",
    "PRIORITY_ESCALATED",
    "PRIORITY_FULL",
    "PRIORITY_SPOT",
    "ProverSession",
    "RebalanceEvent",
    "ReplayTask",
    "SegmentShipment",
    "ServiceError",
    "SimClock",
    "SimEvent",
    "TenantLedger",
    "TenantSpec",
    "TenantState",
    "TenantStatus",
    "UnauditedRecord",
    "VerdictSink",
    "WireObservation",
    "WorkerPool",
    "default_tenants",
    "execute_replay_task",
    "persist_fleet_report",
    "play_and_ship",
    "resolve_replays",
]
