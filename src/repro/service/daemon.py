"""The prover side of the verifier service, shared by ``serve`` and
``fleet-audit``.

Both commands run :class:`~repro.service.fleet.FleetService` (``serve``
on one node); this module holds what happens before the verifier sees a
byte:

* :func:`default_tenants` — the standard roster: one covert tenant and,
  on rosters of three or more, one tenant on a lossy link;
* :func:`play_and_ship` — each epoch, every tenant's machine execution
  runs as one batched, submission-ordered
  :func:`~repro.analysis.parallel.run_fleet` round (covert tenants
  inject their ``covert_delay`` schedule here; the verifier's trusted
  wire vantage captures what actually went out), and each session
  chains, signs and ships its log in segments whose arrival times come
  from the lossy-channel model (:func:`play_specs` lists the plays, so
  the fleet can submit them ahead of the call).
"""

from __future__ import annotations

from repro.analysis.parallel import run_fleet
from repro.service.session import TenantSpec
from repro.service.simclock import ServiceError


def default_tenants(num_tenants: int, covert_channel: str = "ipctc",
                    requests: int = 6, segments: int = 3) -> list[TenantSpec]:
    """The standard roster: tenant 1 covert and, from three tenants on,
    the last one on a lossy link.

    Deterministic by construction (no randomness — the interesting
    variation comes from per-tenant seeds derived inside the sessions).
    """
    if num_tenants < 1:
        raise ServiceError(f"need >= 1 tenant, got {num_tenants}")
    tenants = []
    for i in range(num_tenants):
        covert = covert_channel if i == 1 and num_tenants > 1 else None
        degraded = (num_tenants > 2 and i == num_tenants - 1)
        tenants.append(TenantSpec(
            tenant_id=f"tenant-{i:02d}", requests=requests,
            seed=101 + i, covert_channel=covert,
            drop_rate=0.12 if degraded else 0.0,
            segments=segments))
    return tenants


def play_and_ship(sessions: dict, epoch: int, epoch_start: float,
                  jobs: int | None = None) -> list:
    """Play every tenant's epoch in one fleet batch and ship the logs.

    Tenants' machines run regardless of which verifier node will audit
    them (or whether that node survives).  Returns
    ``[(tenant_id, EpochShipment), ...]`` in sorted-tenant order; plays
    stay submission-ordered so ``jobs`` changes wall-clock only.
    """
    order = sorted(sessions)
    results = run_fleet(play_specs(sessions, epoch), jobs=jobs)
    return [(tid, sessions[tid].ship(epoch, result, epoch_start))
            for tid, result in zip(order, results)]


def play_specs(sessions: dict, epoch: int) -> list:
    """The epoch's plays, one spec per tenant in sorted-tenant order."""
    return [sessions[tid].play_spec(epoch) for tid in sorted(sessions)]
