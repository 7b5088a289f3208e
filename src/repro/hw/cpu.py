"""CPU cycle-cost model, frequency scaling, and speculation noise.

Two of the paper's noise sources live here (Table 1, "CPU features"):

* **Frequency scaling / TurboBoost** — the effective speed of the core
  changes under OS/hardware control.  We model it as a per-quantum
  multiplicative factor on instruction cost, re-drawn from a noise RNG
  every ``freq_quantum`` instructions.  Sanity disables it in the BIOS
  (§4.2), which pins the factor to 1.0.
* **Speculative execution / prefetching** — "we do not know a way to
  reproduce this behavior exactly" (§1).  We model it as a small
  per-instruction stochastic cost perturbation.  Disabling the dynamic
  optimizations *reduces* its scale but cannot eliminate it; this is the
  irreducible residual that, together with bus contention, bounds replay
  accuracy near the paper's 1.85%.

The same module also hosts the three runtime cost tables used by the
Table 2 / Fig 6 experiments: ``SANITY`` (our TDR VM), ``ORACLE_INT``
(a conventional interpreter without TDR overheads), and ``ORACLE_JIT``
(a JIT whose hot code is an order of magnitude cheaper per bytecode).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.determinism import SplitMix64, ZeroNoise, box_muller
from repro.errors import HardwareConfigError
from repro.obs.ledger import Source


#: Noise redraws whose factors the CPU draws at once.  A larger batch
#: costs more than it saves on the many short-lived machines of a fleet.
NOISE_BATCH = 16


class CostClass(enum.IntEnum):
    """Coarse instruction classes with distinct base costs."""

    CONST = 0
    MOVE = 1
    ALU = 2
    MUL = 3
    DIV = 4
    FPU = 5
    FPU_DIV = 6
    FPU_MATH = 7  # sqrt/sin/cos library calls
    BRANCH = 8
    CALL = 9
    RET = 10
    MEM = 11
    ALLOC = 12
    NATIVE = 13
    SYNC = 14


#: Base cycle costs of an interpreted bytecode on the timed core.  These
#: are per-*bytecode* costs (an interpreter executes tens of host
#: instructions per bytecode), loosely calibrated so relative kernel
#: runtimes look like an interpreter's.
INTERPRETER_COSTS: dict[CostClass, int] = {
    CostClass.CONST: 12,
    CostClass.MOVE: 12,
    CostClass.ALU: 14,
    CostClass.MUL: 18,
    CostClass.DIV: 48,
    CostClass.FPU: 22,
    CostClass.FPU_DIV: 60,
    CostClass.FPU_MATH: 110,
    CostClass.BRANCH: 14,
    CostClass.CALL: 60,
    CostClass.RET: 40,
    CostClass.MEM: 16,
    CostClass.ALLOC: 160,
    CostClass.NATIVE: 120,
    CostClass.SYNC: 30,
}

#: JIT-compiled costs: roughly the cost of the equivalent native code.
JIT_COSTS: dict[CostClass, int] = {
    CostClass.CONST: 1,
    CostClass.MOVE: 1,
    CostClass.ALU: 1,
    CostClass.MUL: 3,
    CostClass.DIV: 22,
    CostClass.FPU: 3,
    CostClass.FPU_DIV: 14,
    CostClass.FPU_MATH: 40,
    CostClass.BRANCH: 1,
    CostClass.CALL: 6,
    CostClass.RET: 4,
    CostClass.MEM: 2,
    CostClass.ALLOC: 60,
    CostClass.NATIVE: 100,
    CostClass.SYNC: 10,
}


@dataclass
class CpuTimingConfig:
    """Knobs for the CPU-level noise sources.

    ``freq_scaling_enabled`` / ``turbo_enabled`` correspond to the BIOS
    settings of §4.2; ``speculation_sigma`` is the scale of the residual
    per-instruction perturbation (as a fraction of base cost) that remains
    even when everything controllable is disabled.
    """

    costs: dict[CostClass, int] = field(
        default_factory=lambda: dict(INTERPRETER_COSTS))
    freq_scaling_enabled: bool = False
    turbo_enabled: bool = False
    freq_quantum: int = 5000  # instructions between governor decisions
    freq_span: float = 0.25   # +/- range of the frequency factor
    #: Std-dev of the per-period multiplicative cost factor modelling
    #: speculative execution / prefetching variability.  The default is
    #: calibrated so a full play/replay round trip lands near the paper's
    #: residual (max IPD error ~1.85%, 97% of totals within 1%).
    speculation_sigma: float = 0.004
    speculation_period: int = 64  # instructions between perturbation draws

    def __post_init__(self) -> None:
        if self.freq_quantum <= 0 or self.speculation_period <= 0:
            raise HardwareConfigError("quantum/period must be positive")
        if self.freq_span < 0 or self.speculation_sigma < 0:
            raise HardwareConfigError("noise scales cannot be negative")
        # Instruction costs stay non-negative: compiled blocks carry the
        # fractional cycle as ``x % 1.0``, which is ``x - int(x)`` only
        # for x >= 0.
        if self.freq_span > 1.0:
            raise HardwareConfigError("frequency span cannot exceed 1.0")
        if min(self.costs.values(), default=0) < 0:
            raise HardwareConfigError("instruction costs cannot be negative")


class CpuModel:
    """Charges cycles per instruction, with optional stochastic noise.

    The hot path (:meth:`instruction_cost`) is deliberately branch-light:
    noise draws happen only every ``speculation_period`` instructions and
    are amortized as an accumulated integer surcharge.
    """

    #: Ledger bucket for per-instruction execution cycles.
    LEDGER_SOURCE = Source.INSTRUCTION

    def __init__(self, config: CpuTimingConfig,
                 noise_rng: SplitMix64 | ZeroNoise) -> None:
        self.config = config
        self._rng = noise_rng
        # Dense cost table indexed by CostClass value: a list index is
        # measurably cheaper than a dict lookup on the per-instruction
        # path.
        self._cost_list = [config.costs[c] for c in CostClass]
        self._combined = 1.0
        self._frac = 0.0              # fractional-cycle carry (Bresenham)
        self._instructions = 0
        # Countdown to the next noise redraw (replaces a modulo per call;
        # redraw points stay at exact multiples of speculation_period).
        self._until_redraw = config.speculation_period
        #: The factors of the next redraws, the next one last.
        self._factors: list[float] = []
        self._recompute_noise()

    def _recompute_noise(self) -> None:
        if not self._factors:
            self._refill()
        self._combined = self._factors.pop()

    def _refill(self) -> None:
        """Draw the factors of the next :data:`NOISE_BATCH` redraws, each
        from the variates a redraw of its own would draw, in its order:
        the frequency factor's uniform, then the speculation factor's
        Box-Muller normal.  A seeded stream draws the whole batch's
        variates in one loop (it is the CPU's own fork, so drawing ahead
        cannot be observed); another (``ZeroNoise``) draws per factor."""
        cfg = self.config
        scaled = cfg.freq_scaling_enabled or cfg.turbo_enabled
        span = cfg.freq_span * (1.0 if cfg.freq_scaling_enabled else 0.4)
        # Dynamic optimizations amplify unpredictability.
        sigma = cfg.speculation_sigma * (6.0 if cfg.turbo_enabled else 1.0)
        rng = self._rng
        batched = isinstance(rng, SplitMix64)
        if batched:
            draw = iter(rng.randoms(
                NOISE_BATCH * (scaled + 2 * (sigma > 0.0)))).__next__
        factors = []
        for _ in range(NOISE_BATCH):
            freq = spec = 1.0
            if scaled:      # ``uniform(-span, span)``
                freq += (-span + (span + span) * draw() if batched
                         else rng.uniform(-span, span))
            if sigma > 0.0:
                spec = max(0.8, 1.0 + (sigma * box_muller(draw(), draw())
                                       if batched else rng.normal(0.0, sigma)))
            factors.append(freq * spec)
        self._factors = factors[::-1]

    def instruction_cost(self, cost_class: CostClass) -> int:
        """Cycle cost of one instruction of the given class, with noise.

        Sub-cycle noise is carried in a fractional accumulator so that a
        1% factor is faithfully realized over a stream of small integer
        base costs rather than being rounded away per instruction.
        """
        self._instructions += 1
        self._until_redraw -= 1
        if self._until_redraw == 0:
            self._until_redraw = self.config.speculation_period
            self._recompute_noise()
        base = self._cost_list[cost_class]
        if self._combined == 1.0 and self._frac == 0.0:
            return base
        exact = base * self._combined + self._frac
        cost = int(exact)
        self._frac = exact - cost
        return cost

    def scale_block(self, cycles: int) -> int:
        """Apply the current CPU noise to a block of cycles.

        Used for idle poll strides and abstracted compute blocks, where
        time passes in chunks rather than per-instruction; the same noise
        factors apply so those phases feel the same sources as
        interpreted code.
        """
        self._instructions += 1
        self._until_redraw -= 1
        if self._until_redraw == 0:
            self._until_redraw = self.config.speculation_period
            self._recompute_noise()
        if self._combined == 1.0:
            return cycles
        return max(1, round(cycles * self._combined))
