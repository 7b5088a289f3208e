"""Deterministic pseudo-randomness for the simulated hardware substrate.

All stochastic components in the simulator (interrupt arrivals, bus
contention, storage latency variance, ...) draw from a :class:`SplitMix64`
stream seeded explicitly by the caller.  This gives the two properties the
reproduction needs:

* **Determinism** — the same seed always yields the same noise trace, so
  experiments are exactly repeatable run-to-run (and in CI).
* **Independence** — "time noise" in the paper's sense is whatever the
  record/replay machinery does *not* capture.  We model that by seeding the
  noise stream differently for play and for replay, while everything that is
  logged is reproduced exactly.

SplitMix64 is used instead of :mod:`random` because its state is a single
64-bit integer, it is trivially forkable (:meth:`SplitMix64.fork`), and its
output is fully specified — no dependence on CPython implementation details.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    """Finalization mix of SplitMix64; also useful as a cheap hash."""
    z = (value + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def hash_string(text: str) -> int:
    """Deterministically hash ``text`` to a 64-bit seed (FNV-1a + mix)."""
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc = ((acc ^ byte) * 0x100000001B3) & _MASK64
    return mix64(acc)


def box_muller(u1: float, u2: float) -> float:
    """The standard normal variate of two uniform ones in [0, 1)."""
    if u1 <= 0.0:
        u1 = 2.0 ** -53     # guard against log(0)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


class SplitMix64:
    """A tiny, fully deterministic 64-bit PRNG (Steele et al., OOPSLA'14).

    The generator passes through to a handful of convenience distributions
    (uniform, exponential, normal) that the hardware noise models use.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Return the next raw 64-bit output."""
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        return mix64(self._state ^ _GOLDEN_GAMMA ^ 0)

    def fork(self, label: str = "") -> "SplitMix64":
        """Derive an independent child stream.

        Forking is how one experiment seed fans out to the many independent
        noise sources without the sources' draw counts interfering.
        """
        child_seed = self.next_u64()
        if label:
            child_seed ^= hash_string(label)
        return SplitMix64(child_seed)

    # -- distributions -----------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randoms(self, count: int) -> list[float]:
        """The next ``count`` :meth:`random` values, drawn in one loop
        with :func:`mix64` inlined; the stream ends where ``count``
        calls of :meth:`random` leave it."""
        state = self._state
        values = []
        append = values.append
        for _ in range(count):
            state = (state + _GOLDEN_GAMMA) & _MASK64
            z = ((state ^ _GOLDEN_GAMMA) + _GOLDEN_GAMMA) & _MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            append(((z ^ (z >> 31)) >> 11) * (1.0 / (1 << 53)))
        self._state = state
        return values

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high)."""
        return low + (high - low) * self.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u64() % span

    def exponential(self, mean: float) -> float:
        """Exponentially distributed float with the given mean."""
        u = self.random()
        # Guard against log(0).
        if u <= 0.0:
            u = 2.0 ** -53
        return -mean * math.log(u)

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Normally distributed float (Box-Muller, one draw per call)."""
        return mu + sigma * box_muller(self.random(), self.random())

    def lognormal(self, mu: float, sigma: float) -> float:
        """Log-normally distributed float."""
        return math.exp(self.normal(mu, sigma))

    def choice(self, seq):
        """Uniformly choose one element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(0, i)
            seq[i], seq[j] = seq[j], seq[i]

    def sample_bits(self, count: int) -> list[int]:
        """Return ``count`` uniform bits (used for covert payloads)."""
        return [self.next_u64() & 1 for _ in range(count)]


class ZeroNoise:
    """A stand-in RNG whose every draw is the distribution's floor.

    Used by mitigation paths that *eliminate* a noise source: the component
    keeps its code path (so play and replay execute identically) but the
    stochastic contribution collapses to a constant.
    """

    def next_u64(self) -> int:
        return 0

    def fork(self, label: str = "") -> "ZeroNoise":
        return self

    def random(self) -> float:
        return 0.0

    def uniform(self, low: float, high: float) -> float:
        return low

    def randint(self, low: int, high: int) -> int:
        return low

    def exponential(self, mean: float) -> float:
        return 0.0

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        return mu

    def lognormal(self, mu: float, sigma: float) -> float:
        return math.exp(mu)

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[0]

    def shuffle(self, seq: list) -> None:
        return None

    def sample_bits(self, count: int) -> list[int]:
        return [0] * count
