"""A WAN link: propagation delay plus stochastic jitter.

Used in two places:

* the :class:`~repro.machine.workload.InteractiveClient` sits behind one,
  so request arrivals at the server carry realistic wide-area variation;
* receiver-side covert-channel decoding (§6.9): the *receiver* of a covert
  channel observes sender IPDs after they traverse the link, so channel
  capacity is bounded by the jitter this model adds.
"""

from __future__ import annotations

from repro.determinism import SplitMix64
from repro.net.jitter import EAST_COAST_JITTER, JitterModel


class WanLink:
    """One direction of a wide-area path."""

    def __init__(self, rtt_ms: float = 10.0,
                 jitter: JitterModel | None = None,
                 frequency_hz: float = 3.4e9) -> None:
        if rtt_ms < 0:
            raise ValueError(f"negative RTT: {rtt_ms}")
        self.rtt_ms = rtt_ms
        self.jitter = jitter if jitter is not None else EAST_COAST_JITTER
        self.frequency_hz = frequency_hz

    @property
    def one_way_ms(self) -> float:
        return self.rtt_ms / 2.0

    @property
    def one_way_cycles(self) -> int:
        return round(self.one_way_ms * 1e-3 * self.frequency_hz)

    def deliver_ms(self, send_time_ms: float, rng: SplitMix64) -> float:
        """Arrival time of a packet sent at ``send_time_ms``."""
        return send_time_ms + self.one_way_ms + self.jitter.sample_ms(rng)

    def delivers(self, rng: SplitMix64) -> bool:
        """Does one transmission attempt survive the path?

        The base link never drops; :class:`LossyWanLink` overrides this.
        """
        return True

    def transit_times_ms(self, send_times_ms: list[float],
                         rng: SplitMix64) -> list[float]:
        """Arrival times for a whole transmission schedule.

        Arrival order is preserved (packets on one TCP-like flow do not
        reorder): each arrival is clamped to be no earlier than the
        previous one.
        """
        arrivals: list[float] = []
        last = float("-inf")
        for send in send_times_ms:
            arrival = self.deliver_ms(send, rng)
            last = max(last, arrival)
            arrivals.append(last)
        return arrivals


class LossyWanLink(WanLink):
    """A WAN link that drops a fraction of transmission attempts.

    Models the log-transfer path from the audited machine to the auditor
    (§5.3): the log travels over a real network, so the resilient audit
    pipeline must survive loss, not just jitter.  Drops are drawn from
    the caller's :class:`~repro.determinism.SplitMix64` stream, so every
    lossy transfer is exactly reproducible.
    """

    def __init__(self, rtt_ms: float = 10.0,
                 jitter: JitterModel | None = None,
                 frequency_hz: float = 3.4e9,
                 drop_rate: float = 0.0) -> None:
        super().__init__(rtt_ms=rtt_ms, jitter=jitter,
                         frequency_hz=frequency_hz)
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop rate must be in [0, 1): {drop_rate}")
        self.drop_rate = drop_rate

    def delivers(self, rng: SplitMix64) -> bool:
        return rng.random() >= self.drop_rate
