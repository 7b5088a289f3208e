"""Host-speed probe: scale measured seconds to a fixed host speed.

On a shared cloud host, other tenants can slow every process by up to 2x
for tens of seconds at a time (measured on a 2-CPU x86 VM).  Each timed
operation is therefore bracketed by a probe, a fixed pure-Python loop of dict, call and
attribute work that shares no code with the repository, and its seconds
are scaled by ``REFERENCE_S / probe seconds``: the time the operation
would have taken on a host where the probe takes ``REFERENCE_S``.  A
change to the repository moves the operation's time but not the probe's.
"""

from __future__ import annotations

import time

#: Probe time the reported seconds are scaled to (about an idle 2-CPU
#: x86 cloud host).
REFERENCE_S = 0.0035
_ITERATIONS = 12_000
_REPEATS = 3


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _step(cell: _Cell, x: int) -> int:
    cell.value = (cell.value + x) & 0xFFFF
    return cell.value


def _probe_once() -> float:
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    cell = _Cell()
    acc = 1
    for _ in range(_ITERATIONS):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        key = acc & 4095
        table[key] = table.get(key, 0) + _step(cell, key)
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the probe loop takes now (best of a few tries)."""
    return min(_probe_once() for _ in range(_REPEATS))


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, at the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
