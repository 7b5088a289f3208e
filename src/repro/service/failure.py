"""Deterministic heartbeat failure detection for the verifier fleet.

Every node of the simulated fleet emits a heartbeat each
``heartbeat_interval_ms`` of virtual time, so silence is measurable
without wall clocks: when a node crashes or stalls at virtual time T,
its last heartbeat was at ``floor(T / interval) * interval``, and the
detector fires at ``last_heartbeat + timeout * backoff**strikes``.

The backoff exponent is the node's *strike count* — how many times it
has previously gone silent and come back.  A flapping node (repeated
stalls) therefore earns an increasingly long grace period before its
work is stolen, while a first failure is detected at the base timeout.
Because every input is virtual time derived from the seed, detection
instants are a pure function of the chaos plan — the fleet schedules
them as ordinary simulator events and the run stays bit-reproducible.

Detection is deliberately conservative about *which* signal it is: a
silent node is only **suspected** until the fleet learns (from the
chaos plan's ground truth, standing in for an operator or a longer
quarantine) that the failure is permanent.  Suspected nodes keep ring
ownership but lose their queue to work stealing; confirmed-dead nodes
are evicted from the ring and their sessions rebalance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.service.simclock import ServiceError

__all__ = ["FailureDetector", "NodeHealth"]


@dataclass
class NodeHealth:
    """What the detector believes about one node."""

    node_id: str
    strikes: int = 0              #: prior silences that later resolved
    suspected: bool = False
    suspected_at_ms: float = -1.0
    dead: bool = False
    dead_at_ms: float = -1.0


@dataclass
class FailureDetector:
    """Virtual-time heartbeat bookkeeping over a fixed node roster."""

    node_ids: tuple
    heartbeat_interval_ms: float = 100.0
    timeout_ms: float = 350.0
    backoff: float = 2.0
    health: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.heartbeat_interval_ms <= 0:
            raise ServiceError("heartbeat interval must be positive")
        if self.timeout_ms <= 0:
            raise ServiceError("failure timeout must be positive")
        if self.backoff < 1.0:
            raise ServiceError(
                f"backoff must be >= 1, got {self.backoff}")
        for node_id in self.node_ids:
            self.health[node_id] = NodeHealth(node_id=node_id)

    def node(self, node_id: str) -> NodeHealth:
        health = self.health.get(node_id)
        if health is None:
            raise ServiceError(f"unknown node '{node_id}'")
        return health

    # -- the detection timeline --------------------------------------------

    def last_heartbeat_ms(self, silent_from_ms: float) -> float:
        """The last beat a node emitted before going silent."""
        return math.floor(
            silent_from_ms / self.heartbeat_interval_ms
        ) * self.heartbeat_interval_ms

    def detection_ms(self, node_id: str, silent_from_ms: float) -> float:
        """When silence starting at ``silent_from_ms`` becomes suspicion."""
        grace = self.timeout_ms * self.backoff ** self.node(node_id).strikes
        return max(silent_from_ms,
                   self.last_heartbeat_ms(silent_from_ms) + grace)

    # -- state transitions (driven by the fleet's event loop) --------------

    def suspect(self, node_id: str, now_ms: float) -> NodeHealth:
        health = self.node(node_id)
        if not health.suspected and not health.dead:
            health.suspected = True
            health.suspected_at_ms = now_ms
        return health

    def resume(self, node_id: str, now_ms: float) -> NodeHealth:
        """A silent node heartbeats again: clear suspicion, add a strike."""
        health = self.node(node_id)
        if health.dead:
            raise ServiceError(
                f"node '{node_id}' resumed after being declared dead "
                f"at {health.dead_at_ms} ms")
        if health.suspected:
            health.suspected = False
            health.suspected_at_ms = -1.0
        health.strikes += 1
        return health

    def declare_dead(self, node_id: str, now_ms: float) -> NodeHealth:
        health = self.node(node_id)
        health.suspected = False
        health.dead = True
        health.dead_at_ms = now_ms
        return health
