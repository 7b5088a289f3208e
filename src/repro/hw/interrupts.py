"""Hardware interrupt sources and their timing interference.

Interrupts are a major noise source (§2.4): "Interrupts can occur at
different points in the program; the handlers can cause delays and displace
part of the working set from the cache."

The model: each :class:`IrqSource` fires with exponential inter-arrival
times measured in timed-core cycles.  When interrupts are routed to the
timed core (an ordinary OS), each firing charges the handler cost to the
timed core's clock *and* pollutes its caches.  Sanity's mitigation (§3.3)
routes them to the supporting core instead: the TC then sees no direct
charge, only an increase of the shared-bus traffic level — reduced, not
eliminated, exactly as Table 1 records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.determinism import SplitMix64, ZeroNoise
from repro.errors import HardwareConfigError
from repro.obs.ledger import Source


@dataclass(frozen=True)
class IrqSource:
    """One interrupt source (timer tick, NIC, disk, ...).

    ``mean_interval_cycles`` is the mean inter-arrival time;
    ``handler_cycles`` the handler's direct cost on whichever core runs it;
    ``cache_lines`` the working-set footprint it displaces.
    """

    name: str
    mean_interval_cycles: float
    handler_cycles: int
    cache_lines: int = 32
    bus_traffic: float = 0.05

    def __post_init__(self) -> None:
        if self.mean_interval_cycles <= 0:
            raise HardwareConfigError(
                f"IRQ '{self.name}': mean interval must be positive")
        if self.handler_cycles < 0 or self.cache_lines < 0:
            raise HardwareConfigError(
                f"IRQ '{self.name}': costs cannot be negative")


def standard_sources() -> list[IrqSource]:
    """The interrupt mix of a commodity machine.

    Rates are per-cycle at 3.4 GHz: the timer ticks at 1 kHz, the NIC and
    disk interrupt at moderate rates, and miscellaneous housekeeping IRQs
    fire occasionally.
    """
    return [
        IrqSource("timer", mean_interval_cycles=3.4e6, handler_cycles=4000,
                  cache_lines=64, bus_traffic=0.02),
        IrqSource("nic", mean_interval_cycles=8.0e6, handler_cycles=9000,
                  cache_lines=128, bus_traffic=0.20),
        IrqSource("disk", mean_interval_cycles=2.5e7, handler_cycles=12000,
                  cache_lines=96, bus_traffic=0.25),
        IrqSource("misc", mean_interval_cycles=5.0e7, handler_cycles=20000,
                  cache_lines=160, bus_traffic=0.10),
    ]


class InterruptController:
    """Schedules IRQ firings against the virtual clock.

    The machine polls :meth:`pending_interference` periodically (every
    scheduler quantum); the controller reports the accumulated direct cost
    and cache pollution since the previous poll.
    """

    #: Ledger bucket for handler cycles charged to the timed core.
    LEDGER_SOURCE = Source.INTERRUPT

    def __init__(self, sources: list[IrqSource],
                 noise_rng: SplitMix64 | ZeroNoise,
                 routed_to_timed_core: bool) -> None:
        self.sources = sources
        self._rng = noise_rng
        self.routed_to_timed_core = routed_to_timed_core
        self._next_fire: list[float] = []
        for source in sources:
            self._next_fire.append(self._draw_interval(source))
        self.firings = 0

    def _draw_interval(self, source: IrqSource) -> float:
        interval = self._rng.exponential(source.mean_interval_cycles)
        # A ZeroNoise rng returns 0; treat that as "never fires", which is
        # the fully-quiesced configuration.
        if interval <= 0.0:
            return float("inf")
        return interval

    def next_fire_cycle(self) -> float:
        """When the earliest pending firing is due (inf if never)."""
        return min(self._next_fire, default=float("inf"))

    def pending_interference(self, now_cycles: int) -> tuple[int, int, float]:
        """IRQ interference accrued up to ``now_cycles``.

        Returns ``(direct_cycles, cache_lines, bus_traffic)`` where
        ``direct_cycles`` is charged to the timed core only when IRQs are
        routed to it; otherwise the handler runs on the supporting core and
        only ``bus_traffic`` leaks through.
        """
        direct = 0
        lines = 0
        traffic = 0.0
        for i, source in enumerate(self.sources):
            while self._next_fire[i] <= now_cycles:
                self.firings += 1
                traffic += source.bus_traffic
                if self.routed_to_timed_core:
                    direct += source.handler_cycles
                    lines += source.cache_lines
                self._next_fire[i] += self._draw_interval(source)
        return direct, lines, traffic
