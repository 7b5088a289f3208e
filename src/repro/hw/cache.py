"""Set-associative cache models (Section 3.6 of the paper).

The paper's argument about caches is structural: if the instruction and
memory-access streams are identical, the caches have a deterministic
replacement policy (LRU), the caches are flushed at the start, and the same
physical frames back the same virtual pages, then the cache-state evolution
— and hence its timing contribution — is reproduced exactly.

This module implements that machinery:

* :class:`Cache` — one level, configurable geometry and replacement policy
  (LRU / FIFO / RANDOM; RANDOM exists to demonstrate *why* determinism of
  the policy matters).
* :class:`CacheHierarchy` — L1 + L2 + DRAM, charging cycles per access and
  routing DRAM fills over the (contended) memory bus.
* ``pollute`` / ``randomize`` — the hooks interrupt handlers and "dirty"
  environments use to disturb cache state, i.e. the noise the mitigations
  remove.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.determinism import SplitMix64, mix64
from repro.errors import HardwareConfigError
from repro.hw.bus import MemoryBus
from repro.obs.ledger import Source


class ReplacementPolicy(enum.Enum):
    """Cache replacement policy.

    The paper requires a deterministic policy ("such as the popular LRU",
    §3.6) for time-determinism; RANDOM is provided as the counterexample.
    """

    LRU = "lru"
    FIFO = "fifo"
    RANDOM = "random"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    line_bytes: int = 64
    ways: int = 8
    hit_cycles: int = 4
    policy: ReplacementPolicy = ReplacementPolicy.LRU
    #: Cost of writing back a dirty victim line on eviction.
    writeback_cycles: int = 60

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise HardwareConfigError(f"invalid cache geometry: {self}")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise HardwareConfigError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.ways}-way sets of {self.line_bytes}B lines")
        if self.hit_cycles < 0:
            raise HardwareConfigError("hit latency cannot be negative")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


class Cache:
    """One set-associative cache level over physical addresses."""

    #: Ledger bucket for cycles this component charges.
    LEDGER_SOURCE = Source.CACHE

    def __init__(self, config: CacheConfig,
                 rng: SplitMix64 | None = None) -> None:
        self.config = config
        self._rng = rng or SplitMix64(0)
        self._num_sets = config.num_sets
        self._line_shift = config.line_bytes.bit_length() - 1
        if (1 << self._line_shift) != config.line_bytes:
            raise HardwareConfigError("line size must be a power of two")
        # Each set is an insertion-ordered dict of tags: the first key is
        # the next victim.  For LRU the order is recency (MRU last, via
        # delete+reinsert on hit); for FIFO, insertion order.  For RANDOM
        # the victim is drawn from rng.  A dict makes the LRU move O(1)
        # where a list's remove() is a scan — this is the hottest
        # structure in the simulator.
        self._sets: list[dict[int, bool]] = [{} for _ in range(self._num_sets)]
        # Dirty lines awaiting writeback, as (set index, tag) pairs.  The
        # guest's own traffic is modelled write-through (symmetric for
        # play and replay), but *polluted* lines — interrupt handlers,
        # preempting tasks, leftover pre-flush state — are dirty and cost
        # a writeback when the guest evicts them.  This is the mechanism
        # by which an un-flushed cache perturbs timing (§3.6).
        self._dirty: set[tuple[int, int]] = set()
        self._pending_writeback = 0
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _locate(self, paddr: int) -> tuple[int, int]:
        line = paddr >> self._line_shift
        return line % self._num_sets, line // self._num_sets

    def access(self, paddr: int) -> bool:
        """Access the line containing ``paddr``; returns True on hit.

        The caller (the hierarchy) charges latency; this method only updates
        the replacement state.
        """
        set_idx, tag = self._locate(paddr)
        ways = self._sets[set_idx]
        if tag in ways:
            self.hits += 1
            if self.config.policy is ReplacementPolicy.LRU:
                del ways[tag]
                ways[tag] = True
            return True
        self.fill(set_idx, tag)
        return False

    def fill(self, set_idx: int, tag: int) -> None:
        """Miss bookkeeping: count it, evict a victim, insert the line.

        Split out of :meth:`access` so fused fast paths that inline the
        hit check (see ``TimedCorePlatform``) share the exact miss-side
        behaviour — including dirty-victim writeback accounting.
        """
        self.misses += 1
        ways = self._sets[set_idx]
        if len(ways) >= self.config.ways:
            if self.config.policy is ReplacementPolicy.RANDOM:
                victim_index = self._rng.randint(0, len(ways) - 1)
                victim = list(ways)[victim_index]
            else:
                victim = next(iter(ways))
            del ways[victim]
            if self._dirty:
                key = (set_idx, victim)
                if key in self._dirty:
                    self._dirty.discard(key)
                    self.writebacks += 1
                    self._pending_writeback += self.config.writeback_cycles
        ways[tag] = True

    def take_writeback_cost(self) -> int:
        """Collect (and clear) the pending dirty-eviction cost."""
        cost = self._pending_writeback
        self._pending_writeback = 0
        return cost

    def contains(self, paddr: int) -> bool:
        """Non-mutating lookup (used by tests and the warm-up check)."""
        set_idx, tag = self._locate(paddr)
        return tag in self._sets[set_idx]

    def flush(self) -> None:
        """Invalidate every line (the ``wbinvd`` of §4.2).

        ``wbinvd`` writes dirty lines back as part of the flush, so the
        dirty set is cleared too; the flush happens before the timed
        execution starts, so its own cost is outside the measurement.
        """
        for ways in filter(None, self._sets):    # empty sets stay as is
            ways.clear()
        self._dirty.clear()
        self._pending_writeback = 0

    def pollute(self, rng: SplitMix64, lines: int) -> None:
        """Fill ``lines`` pseudo-random *dirty* lines (handler footprint).

        This is the mechanism by which IRQs displace part of the working set
        (§2.4); it is driven by a *noise* RNG so it differs between play and
        replay unless the mitigation confines IRQs to the supporting core.
        """
        for _ in range(lines):
            set_idx = rng.randint(0, self._num_sets - 1)
            tag = rng.randint(1 << 20, (1 << 21) - 1)
            ways = self._sets[set_idx]
            if tag in ways:
                continue
            if len(ways) >= self.config.ways:
                victim = next(iter(ways))
                del ways[victim]
                self._dirty.discard((set_idx, victim))
            ways[tag] = True
            self._dirty.add((set_idx, tag))

    def randomize(self, rng: SplitMix64, fill_fraction: float = 0.5) -> None:
        """Start from pseudo-random contents (an un-flushed "dirty" cache)."""
        self.flush()
        total_lines = int(self._num_sets * self.config.ways * fill_fraction)
        self.pollute(rng, total_lines)

    def state_fingerprint(self) -> int:
        """A 64-bit digest of the full cache state (determinism checks)."""
        acc = 0
        for set_idx, ways in enumerate(self._sets):
            for pos, tag in enumerate(ways):
                acc = mix64(acc ^ (set_idx * 1048573 + pos * 65537 + tag))
        return acc

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(ways) for ways in self._sets)


class CacheHierarchy:
    """L1 + L2 + DRAM with per-access cycle charging.

    DRAM fills traverse the memory bus, which is where residual TC/SC
    contention noise enters (§3.3: "DMAs from devices must still traverse
    the memory bus").
    """

    #: Ledger bucket for hierarchy latencies; the bus-stall share of a
    #: DRAM fill is split out under :data:`Source.BUS` by the platform.
    LEDGER_SOURCE = Source.CACHE

    def __init__(self, l1: Cache, l2: Cache, bus: MemoryBus,
                 dram_cycles: int = 200) -> None:
        if dram_cycles < 0:
            raise HardwareConfigError("DRAM latency cannot be negative")
        self.l1 = l1
        self.l2 = l2
        self.bus = bus
        self.dram_cycles = dram_cycles
        self.dram_accesses = 0

    def access(self, paddr: int) -> int:
        """Access physical address; return the cycle cost of the access."""
        if self.l1.access(paddr):
            return self.l1.config.hit_cycles + self.l1.take_writeback_cost()
        return self._below_l1(paddr)

    def access_after_l1_miss(self, paddr: int, set_idx: int,
                             tag: int) -> int:
        """Continue an access whose L1 hit check the caller already did.

        Fused fast paths (``TimedCorePlatform``) inline the L1 hit test;
        on a miss they delegate here so the miss-side state evolution —
        L1 fill, L2 lookup, DRAM/bus charging — is shared with
        :meth:`access` and stays bit-identical.
        """
        self.l1.fill(set_idx, tag)
        return self._below_l1(paddr)

    def _below_l1(self, paddr: int) -> int:
        cost = self.l1.config.hit_cycles + self.l1.take_writeback_cost()
        if self.l2.access(paddr):
            return (cost + self.l2.config.hit_cycles
                    + self.l2.take_writeback_cost())
        self.dram_accesses += 1
        return (cost + self.l2.config.hit_cycles
                + self.l2.take_writeback_cost()
                + self.dram_cycles + self.bus.transfer_penalty())

    def flush(self) -> None:
        """Flush both levels (initialization / quiescence, §3.6)."""
        self.l1.flush()
        self.l2.flush()

    def pollute(self, rng: SplitMix64, l1_lines: int, l2_lines: int) -> None:
        """Disturb both levels with an interrupt/preemption footprint."""
        self.l1.pollute(rng, l1_lines)
        self.l2.pollute(rng, l2_lines)

    def state_fingerprint(self) -> int:
        return mix64(self.l1.state_fingerprint() ^
                     mix64(self.l2.state_fingerprint()))
