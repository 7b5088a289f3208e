"""Table 2: SciMark performance of Sanity vs Oracle's JVM.

Paper: completion time of the five SciMark kernels under Sanity, the
Oracle JVM in interpreted mode (``-Xint``), and with the JIT, normalized
to interpreted mode.

Reproduced shape: Sanity is in the same league as a conventional
interpreter ("at the very least, these results suggest that TDR is not
impractical"), the JIT runtime is several times faster, and the pure-
compute Monte Carlo kernel benefits most from JIT compilation (paper:
MC's 0.0305 is the lowest Oracle-JIT ratio).
"""

from __future__ import annotations

import os
import time

from conftest import print_banner

from repro.core.tdr import play
from repro.machine.config import RuntimeKind
from repro.machine.noise import scenario_config

KERNELS = ("sor", "smm", "mc", "fft", "lu")

PAPER_ROWS = {
    "sor": (7.4211, 1.0, 0.2634),
    "smm": (1.0674, 1.0, 1.1200),
    "mc": (4.0890, 1.0, 0.0305),
    "fft": (8.4068, 1.0, 0.1590),
    "lu": (0.2555, 1.0, 0.0353),
}


def run_table2(scimark_programs):
    results = {}
    clean = scenario_config("clean")
    for name in KERNELS:
        program = scimark_programs[name]
        sanity = play(program, scenario_config("sanity"),
                      seed=0).total_cycles
        oracle_int = play(program, clean.with_overrides(name="oracle-int"),
                          seed=0).total_cycles
        oracle_jit = play(
            program,
            clean.with_overrides(name="oracle-jit",
                                 runtime=RuntimeKind.ORACLE_JIT),
            seed=0).total_cycles
        results[name] = (sanity / oracle_int, 1.0,
                         oracle_jit / oracle_int)
    return results


def test_table2_scimark(benchmark, scimark_programs):
    results = benchmark.pedantic(run_table2, args=(scimark_programs,),
                                 rounds=1, iterations=1)

    print_banner("Table 2 — SciMark completion time normalized to "
                 "Oracle-INT (paper values in parentheses)")
    print(f"  {'kernel':<8s} {'Sanity':>18s} {'Oracle-INT':>12s} "
          f"{'Oracle-JIT':>18s}")
    for name in KERNELS:
        sanity, oint, ojit = results[name]
        p_sanity, _, p_jit = PAPER_ROWS[name]
        print(f"  {name.upper():<8s} {sanity:>8.4f} ({p_sanity:>6.4f}) "
              f"{oint:>12.4f} {ojit:>8.4f} ({p_jit:>6.4f})")

    for name in KERNELS:
        sanity, _, ojit = results[name]
        # Sanity is competitive with a conventional interpreter: within
        # 2x either way (the paper's spread is wider because its Sanity
        # is an entirely different codebase, but the conclusion — "TDR is
        # not impractical" — is this bound).
        assert 0.5 < sanity < 2.0, name
        # The JIT is substantially faster than interpretation.
        assert ojit < 0.5, name
    # Pure-compute MC benefits most from JIT compilation (as in the
    # paper); the memory/math-bound kernels benefit less.
    assert results["mc"][2] == min(results[k][2] for k in KERNELS)


TRIALS = 5
#: Host wall-clock bar for the simulator's own tier-up: trace-compiled
#: Sanity must beat the pure interpreter by >= this factor ...
SPEEDUP_BAR = 1.5
#: ... on at least this many of the five kernels (FFT is CALL-heavy and
#: compiled regions cannot cross calls, so it gains the least).
KERNELS_AT_BAR = 3


def _best_of(fn, trials=TRIALS):
    best = None
    result = None
    for _ in range(trials):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def run_tierup(scimark_programs):
    """Wall-clock host seconds per kernel, tier-up on vs ``REPRO_NO_JIT``.

    Measured on the noise-free Sanity variant (``speculation_sigma=0``,
    no frequency scaling or turbo), whose noise factor is always 1.0:
    both sides' charges, the interpreter's per-instruction ``charge``
    and the blocks' inline charge, skip the float carry steps while the
    carry is zero (DESIGN §4.3).  Bit-identity under the *default noisy*
    configs is pinned by ``tests/test_tracejit.py``, and the
    guest-visible numbers are asserted equal here as well.
    """
    config = scenario_config("sanity").with_overrides(
        name="sanity-deterministic", speculation_sigma=0.0)
    rows = {}
    for name in KERNELS:
        program = scimark_programs[name]
        os.environ["REPRO_NO_JIT"] = "1"
        try:
            interp_s, interp = _best_of(
                lambda: play(program, config, seed=0))
        finally:
            os.environ.pop("REPRO_NO_JIT", None)
        jit_s, jit = _best_of(lambda: play(program, config, seed=0))
        assert jit.total_cycles == interp.total_cycles, name
        assert jit.instructions == interp.instructions, name
        rows[name] = {"interp_s": interp_s, "jit_s": jit_s,
                      "speedup": interp_s / jit_s,
                      "jit_coverage": (jit.jit["jit_instructions"]
                                       / jit.instructions)}
    return rows


def test_table2_tierup_speedup(benchmark, scimark_programs):
    rows = benchmark.pedantic(run_tierup, args=(scimark_programs,),
                              rounds=1, iterations=1)

    print_banner("Table 2 addendum — simulator host time, trace-compiled "
                 f"vs interpreted Sanity (best of {TRIALS})")
    print(f"  {'kernel':<8s} {'interp s':>10s} {'jit s':>10s} "
          f"{'speedup':>9s} {'coverage':>9s}")
    for name in KERNELS:
        row = rows[name]
        print(f"  {name.upper():<8s} {row['interp_s']:>10.4f} "
              f"{row['jit_s']:>10.4f} {row['speedup']:>8.2f}x "
              f"{row['jit_coverage']:>8.1%}")

    at_bar = sum(row["speedup"] >= SPEEDUP_BAR for row in rows.values())
    print(f"  >= {SPEEDUP_BAR}x on {at_bar}/{len(KERNELS)} kernels "
          f"(bar: {KERNELS_AT_BAR})")
    assert at_bar >= KERNELS_AT_BAR, rows
    # Every kernel must at least not regress under the tier-up.
    assert all(row["speedup"] > 0.9 for row in rows.values()), rows
