"""Machine configuration: hardware geometry plus noise-mitigation switches.

A :class:`MachineConfig` describes both a machine *type* (the "T" of the
Alice/Bob scenario, §2.1: frequency, cache sizes, storage kind) and an
*environment* (which of Table 1's noise sources are active and which
mitigations are applied).  Presets for the paper's experimental
environments live in :mod:`repro.machine.noise`; the named machine types
for the cloud-verification scenario are below.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import HardwareConfigError
from repro.hw.cache import CacheConfig, ReplacementPolicy
from repro.hw.cpu import INTERPRETER_COSTS, JIT_COSTS


class RuntimeKind(enum.Enum):
    """Which runtime cost table the machine uses (Table 2 comparators)."""

    SANITY = "sanity"          # our TDR interpreter
    ORACLE_INT = "oracle-int"  # conventional interpreter (no TDR design)
    ORACLE_JIT = "oracle-jit"  # JIT-compiled runtime


class StorageKind(enum.Enum):
    SSD = "ssd"
    HDD = "hdd"


@dataclass(frozen=True)
class MachineConfig:
    """Full machine description.

    The mitigation flags map one-to-one onto Table 1:

    ===========================  =======================================
    Flag                         Table 1 row
    ===========================  =======================================
    ``irqs_to_supporting_core``  Interrupts → handle on a separate core
    ``preemption_enabled``       Preemption → run in kernel mode (off)
    ``flush_caches_at_start``    Caches → flush at the beginning
    ``deterministic_frames``     Caches → use the same physical frames
    ``random_initial_cache``     (the *absence* of the flush mitigation)
    ``freq_scaling`` / ``turbo`` CPU features → disable in BIOS
    ``pad_storage``              I/O → pad variable-time operations
    ``storage``                  I/O → use SSDs instead of HDDs
    ===========================  =======================================
    """

    name: str = "sanity-default"
    frequency_hz: float = 3.4e9
    runtime: RuntimeKind = RuntimeKind.SANITY

    # Cache / memory geometry.  Sizes are scaled-down versions of the
    # i7-4770's caches so the Python cache model stays fast while keeping
    # realistic hit/miss structure.
    l1_config: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=16 * 1024, line_bytes=64, ways=4, hit_cycles=4))
    l2_config: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=128 * 1024, line_bytes=64, ways=8, hit_cycles=12))
    dram_cycles: int = 200
    num_frames: int = 8192
    tlb_entries: int = 64
    tlb_miss_cycles: int = 30

    # Branch prediction.
    btb_entries: int = 1024
    mispredict_cycles: int = 14

    # Noise sources / mitigations (defaults = full Sanity mitigation set).
    irqs_enabled: bool = True
    irqs_to_supporting_core: bool = True
    preemption_enabled: bool = False
    preempt_mean_interval_cycles: float = 2.0e6
    preempt_mean_duration_cycles: float = 4.0e5
    flush_caches_at_start: bool = True
    deterministic_frames: bool = True
    random_initial_cache: bool = False
    freq_scaling: bool = False
    turbo: bool = False
    #: Residual CPU noise (speculation/prefetching): std-dev of the
    #: per-period multiplicative cost factor.  Irreducible — disabling
    #: BIOS features only avoids *amplifying* it (Table 1: "Reduced").
    speculation_sigma: float = 0.004
    bus_contention_probability: float = 0.05
    bus_max_stall_cycles: int = 40

    # Multi-tenancy (§7 "Discussion"): a co-located VM sharing the
    # platform.  Its activity pollutes the shared L2 and raises bus
    # traffic; ``cache_partitioning`` (page-coloring-style, after
    # Liedtke et al. [33]) gives the timed core a private half of the L2,
    # removing the cache cross-talk at the cost of capacity — the paper's
    # speculated mitigation.
    co_tenant_intensity: float = 0.0
    cache_partitioning: bool = False

    # I/O.
    storage: StorageKind = StorageKind.SSD
    pad_storage: bool = True
    sc_processing_cycles: int = 3_000   # SC cost to stage a packet
    background_bus_traffic: float = 0.0  # other tenants / system activity

    # Timed-core idle polling (§3.4: "inspects this buffer at regular
    # intervals").  ~7 us at 3.4 GHz.
    poll_stride_cycles: int = 25_000

    # VM scheduling.
    thread_quantum: int = 4096
    vm_poll_interval: int = 256

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise HardwareConfigError("frequency must be positive")
        if self.poll_stride_cycles <= 0:
            raise HardwareConfigError("poll stride must be positive")
        if self.thread_quantum < 1:
            raise HardwareConfigError(
                f"thread quantum must be at least 1: {self.thread_quantum}")
        if self.vm_poll_interval < 1:
            raise HardwareConfigError(
                f"VM poll interval must be at least 1: "
                f"{self.vm_poll_interval}")
        if self.flush_caches_at_start and self.random_initial_cache:
            raise HardwareConfigError(
                "flush_caches_at_start and random_initial_cache are "
                "mutually exclusive")
        if not 0.0 <= self.co_tenant_intensity <= 1.0:
            raise HardwareConfigError(
                f"co-tenant intensity out of range: "
                f"{self.co_tenant_intensity}")
        # Each preemption is scheduled from the previous one's start and
        # advances the clock by its duration: a mean duration at or above
        # the mean interval leaves a backlog that grows at every poll.
        if not (0.0 <= self.preempt_mean_duration_cycles
                < self.preempt_mean_interval_cycles):
            raise HardwareConfigError(
                f"preemption has no steady state: mean duration "
                f"{self.preempt_mean_duration_cycles} must be at least 0 "
                f"and below the mean interval "
                f"{self.preempt_mean_interval_cycles}")

    @property
    def cost_table(self) -> dict:
        if self.runtime == RuntimeKind.ORACLE_JIT:
            return dict(JIT_COSTS)
        return dict(INTERPRETER_COSTS)

    def with_overrides(self, **kwargs) -> "MachineConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


#: Named machine types for the cloud-verification scenario (§2.1): Alice
#: sells "fast" machines and might secretly provision "slow" ones.
MACHINE_TYPES: dict[str, MachineConfig] = {
    "fast": MachineConfig(name="fast", frequency_hz=3.4e9),
    "slow": MachineConfig(
        name="slow", frequency_hz=2.0e9, dram_cycles=260,
        l2_config=CacheConfig(size_bytes=64 * 1024, line_bytes=64, ways=8,
                              hit_cycles=14)),
}


def machine_type(name: str) -> MachineConfig:
    """Look up a named machine type."""
    try:
        return MACHINE_TYPES[name]
    except KeyError:
        raise HardwareConfigError(
            f"unknown machine type '{name}'; known: "
            f"{sorted(MACHINE_TYPES)}") from None
