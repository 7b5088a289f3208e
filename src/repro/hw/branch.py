"""Branch prediction (2-bit saturating counters + a direct-mapped BTB).

Branch predictor state is part of the microarchitectural state whose
evolution must be identical during play and replay; the paper's symmetric
read/write trick (§3.5) exists precisely so that play and replay take the
same branches and keep the BTB identical ("perhaps a branch taken during
play and not taken during replay, which would pollute the BTB").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareConfigError
from repro.obs.ledger import Source


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Predictor table geometry and mispredict penalty."""

    table_entries: int = 1024
    mispredict_cycles: int = 14

    def __post_init__(self) -> None:
        if self.table_entries <= 0 or self.table_entries & (self.table_entries - 1):
            raise HardwareConfigError(
                f"table size must be a power of two: {self.table_entries}")
        if self.mispredict_cycles < 0:
            raise HardwareConfigError("mispredict penalty cannot be negative")


# 2-bit counter states.
_STRONG_NOT_TAKEN, _WEAK_NOT_TAKEN, _WEAK_TAKEN, _STRONG_TAKEN = 0, 1, 2, 3


class BranchPredictor:
    """Per-core branch predictor with deterministic state evolution."""

    #: Ledger bucket for mispredict-penalty cycles this component charges.
    LEDGER_SOURCE = Source.BRANCH

    def __init__(self, config: BranchPredictorConfig) -> None:
        self.config = config
        self._mask = config.table_entries - 1
        self._counters = [_WEAK_NOT_TAKEN] * config.table_entries
        self.predictions = 0
        self.mispredictions = 0

    def record(self, pc: int, taken: bool) -> int:
        """Resolve a branch at ``pc``; return the cycle penalty (0 if hit)."""
        idx = pc & self._mask
        state = self._counters[idx]
        predicted_taken = state >= _WEAK_TAKEN
        self.predictions += 1
        # Update the saturating counter.
        if taken and state < _STRONG_TAKEN:
            self._counters[idx] = state + 1
        elif not taken and state > _STRONG_NOT_TAKEN:
            self._counters[idx] = state - 1
        if predicted_taken != taken:
            self.mispredictions += 1
            return self.config.mispredict_cycles
        return 0

    def flush(self) -> None:
        """Reset every counter (part of initialization, §3.6), in place:
        code holding ``_counters`` keeps seeing the live table."""
        self._counters[:] = [_WEAK_NOT_TAKEN] * len(self._counters)

    @property
    def miss_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions

    def state_fingerprint(self) -> int:
        from repro.determinism import mix64

        acc = 0
        for i, state in enumerate(self._counters):
            if state != _WEAK_NOT_TAKEN:
                acc = mix64(acc ^ (i * 1299709 + state))
        return acc
