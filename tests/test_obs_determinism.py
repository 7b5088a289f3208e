"""Determinism guards: observability must never perturb the observed.

Every collector in ``repro.obs`` is a pure observer — enabling the
ledger, the tracer, opcode sampling, and metrics must leave a run's
fingerprint *bit-identical* to an uninstrumented run's
(``test_equivalence.py`` checks it on the pipeline scenarios).  These
tests pin the ledger's attachment to the clock, and the exactness of
the clock's rational cycle→ns conversion.
"""

from fractions import Fraction

import pytest

from repro.hw.clock import VirtualClock
from repro.obs import CycleLedger


class TestObservabilityIsInert:
    def test_ledger_attach_detach_mid_run_keeps_clock(self):
        clock = VirtualClock(frequency_hz=1000)
        clock.advance(5, "cache")
        ledger = CycleLedger()
        clock.attach_ledger(ledger)
        clock.advance(7, "bus")
        clock.detach_ledger()
        clock.advance(11)
        assert clock.cycles == 23
        assert ledger.totals() == {"bus": 7}


class TestClockExactness:
    def test_three_hz_is_exact(self):
        # The motivating case: 1/3 is not a binary float, so a
        # precomputed ns-per-cycle factor drifts.  Rational arithmetic
        # does not: 3 cycles at 3 Hz is exactly one second.
        clock = VirtualClock(frequency_hz=3)
        clock.advance(3)
        assert clock.now_ns() == 1_000_000_000.0
        assert clock.now_ns_exact() == Fraction(1_000_000_000)
        clock.advance(3 * 10**12 - 3)
        assert clock.now_ns_exact() == Fraction(10**21)
        assert clock.now_ns() == 1e21

    def test_no_drift_over_long_runs(self):
        clock = VirtualClock(frequency_hz=3.4e9)
        clock.advance(34 * 10**14)  # 10^6 seconds of virtual time
        assert clock.now_ns_exact() == Fraction(10**15)
        assert clock.now_ms() == 1e9

    def test_cycles_are_strictly_int(self):
        clock = VirtualClock()
        clock.advance(10)
        assert type(clock.cycles) is int
        with pytest.raises(TypeError):
            clock.advance(1.5)  # float cycles would reintroduce drift
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_cycles_for_ns_roundtrip(self):
        clock = VirtualClock(frequency_hz=3.4e9)
        for cycles in (1, 17, 3_400_000_000, 123_456_789_123):
            ns = Fraction(cycles) * clock._ns_num / clock._ns_den
            assert clock.cycles_for_ns(float(ns)) \
                == round(Fraction(float(ns)) * clock._ns_den
                         / clock._ns_num)
        assert clock.cycles_for_ns(0) == 0
        assert clock.cycles_for_ns(-5) == 0
        assert clock.cycles_for_ms(1) == 3_400_000

    def test_reset_clears_clock_and_ledger(self):
        clock = VirtualClock()
        ledger = CycleLedger()
        clock.attach_ledger(ledger)
        clock.advance(9, "gc")
        clock.reset()
        assert clock.cycles == 0
        assert ledger.total == 0
