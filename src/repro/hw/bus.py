"""The shared memory bus between the timed core and the supporting core.

The TC/SC separation (§3.3) shields the timed core from *most* effects of
asynchronous events, but both cores share the memory bus, so DMA traffic
generated by the supporting core can still delay the timed core's DRAM
accesses.  The paper identifies this as the dominant *residual* noise source
— the one that bounds Sanity's replay accuracy at 1.85% (§6.9).

The model: each DRAM transfer by the TC pays an extra penalty drawn from a
geometric-ish distribution whose probability scales with the SC's current
traffic level.  Mitigations cannot eliminate this source, only reduce it
(Table 1 lists "Interrupts ... Reduced").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.determinism import SplitMix64, ZeroNoise
from repro.errors import HardwareConfigError
from repro.obs.ledger import Source


@dataclass
class BusConfig:
    """Contention parameters of the shared memory bus.

    ``contention_probability`` is the chance that a TC DRAM transfer
    collides with SC traffic *at traffic level 1.0*; the effective
    probability is scaled by the instantaneous traffic level.
    ``max_stall_cycles`` bounds a single collision's cost.
    """

    contention_probability: float = 0.05
    max_stall_cycles: int = 40

    def __post_init__(self) -> None:
        if not 0.0 <= self.contention_probability <= 1.0:
            raise HardwareConfigError(
                f"contention probability out of range: "
                f"{self.contention_probability}")
        if self.max_stall_cycles < 0:
            raise HardwareConfigError("max stall cannot be negative")


class MemoryBus:
    """Shared TC/SC memory bus with stochastic contention stalls.

    ``floor`` is the background traffic level (other tenants, system
    activity) below which decay never takes the level.
    """

    #: Ledger bucket for contention-stall cycles this component causes.
    LEDGER_SOURCE = Source.BUS

    def __init__(self, config: BusConfig,
                 noise_rng: SplitMix64 | ZeroNoise,
                 floor: float = 0.0) -> None:
        self.config = config
        self._rng = noise_rng
        self._floor = min(1.0, max(0.0, floor))
        self._traffic_level = 0.0
        self.total_stall_cycles = 0
        self.collisions = 0

    @property
    def traffic_level(self) -> float:
        """Instantaneous SC traffic intensity in [0, 1]."""
        return self._traffic_level

    def set_traffic_level(self, level: float) -> None:
        """Set SC-side traffic intensity (DMA bursts raise it)."""
        self._traffic_level = min(1.0, max(0.0, level))

    def add_traffic(self, amount: float) -> None:
        """Superimpose a traffic burst (e.g. a packet DMA)."""
        self.set_traffic_level(self._traffic_level + amount)

    def decay(self, steps: int = 1) -> None:
        """Apply ``steps`` decay steps of the traffic level.

        One step, between two polls of the supporting core's world,
        scales the level by 0.6, snaps it to zero below 1e-6 and raises
        it to the floor.  The step is a function of the level alone, so
        once it maps a level to itself (zero or the floor), every later
        step does too: a run of steps ends there, after at most 28 from
        1.0 with no floor.
        """
        level = self._traffic_level
        floor = self._floor
        for _ in range(steps):
            after = level * 0.6
            if after < 1e-6:
                after = 0.0
            if after < floor:
                after = floor
            if after == level:
                break
            level = after
        self._traffic_level = level

    def transfer_penalty(self) -> int:
        """Extra cycles a TC DRAM transfer pays to cross the bus now."""
        effective_p = self.config.contention_probability * self._traffic_level
        if effective_p <= 0.0:
            return 0
        if self._rng.random() >= effective_p:
            return 0
        stall = self._rng.randint(1, max(1, self.config.max_stall_cycles))
        self.collisions += 1
        self.total_stall_cycles += stall
        return stall
