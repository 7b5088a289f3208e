"""Host-performance baseline: simulator throughput and pipeline knobs.

Unlike the other benches, this one measures the *simulator* rather than
the simulated machine: interpreter instructions per host-second, and the
wall-clock effect of each perf knob on a Fig 8-style VM-trace slice —

* **batching** — batched cycle charging vs the ``REPRO_NO_BATCH=1``
  reference implementation (bit-identical results, fewer clock calls);
* **fleet** — trace-level parallelism via :func:`run_fleet`;
* **replay cache** — memoizing the clean-reference replay when a trace
  is audited more than once.

Results land in ``BENCH_perf.json`` (override the path with
``BENCH_PERF_OUT``) so CI can archive the numbers per commit and
regressions show up as a diffable artifact.  ``PERF_SMOKE=1`` shrinks
the workload for CI smoke runs.

No wall-clock assertions — host speed varies; the assertions here are the
structural ones (batched == unbatched bit-identical, JSON written).  The
recorded ``cpu_count`` makes the fleet numbers interpretable: on a
single-core host the fleet knob is expectedly ~1x.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import print_banner

from repro.analysis.parallel import _compiled, run_fleet
from repro.apps import build_nfs_workload
from repro.core.audit import compare_traces
from repro.core.replay_cache import ReplayCache
from repro.core.tdr import play, replay
from repro.determinism import SplitMix64
from repro.machine import MachineConfig

SMOKE = os.environ.get("PERF_SMOKE", "") == "1"
REQUESTS = 6 if SMOKE else 25
TRACES = 2 if SMOKE else 4
FLEET_JOBS = 4
#: Each trace is audited twice (think: a detector re-scoring the same
#: observation at another threshold) — the second audit is what the
#: replay cache can skip.
AUDITS_PER_TRACE = 2


def _nfs_play(seed):
    program = _compiled("nfs")
    workload = build_nfs_workload(SplitMix64(7000 + seed),
                                  num_requests=REQUESTS)
    return play(program, MachineConfig(), workload=workload, seed=seed)


def _trace_worker(seed):
    """Fleet worker: one trace = play + ``AUDITS_PER_TRACE`` full audits,
    each audit re-running the clean-reference replay."""
    program = _compiled("nfs")
    observed = _nfs_play(seed)
    scores = []
    for _ in range(AUDITS_PER_TRACE):
        reference = replay(program, observed.log, MachineConfig(),
                           seed=30_000 + seed)
        scores.append(compare_traces(observed, reference).deviation_score())
    return scores


def _trace_worker_cached(seed):
    """Like :func:`_trace_worker`, but the audits share a replay cache,
    so only the first audit pays for the reference replay."""
    program = _compiled("nfs")
    observed = _nfs_play(seed)
    cache = ReplayCache()
    scores = []
    for _ in range(AUDITS_PER_TRACE):
        reference = cache.replay(program, observed.log, MachineConfig(),
                                 seed=30_000 + seed)
        scores.append(compare_traces(observed, reference).deviation_score())
    return scores


def _timed_slice(jobs, worker, no_batch=False):
    """Run the VM-trace slice under one knob setting, returning
    ``(seconds, scores)``.  ``no_batch`` flips the charging fast path off
    for both the in-process serial path and the fleet workers: the
    ``REPRO_*`` environment is part of the worker pool's key, so a
    flipped switch gets freshly forked workers that mirror it."""
    if no_batch:
        os.environ["REPRO_NO_BATCH"] = "1"
    try:
        t0 = time.perf_counter()
        scores = run_fleet(list(range(TRACES)), jobs=jobs, worker=worker)
        return time.perf_counter() - t0, scores
    finally:
        os.environ.pop("REPRO_NO_BATCH", None)


def test_perf_baseline():
    _compiled("nfs")  # compile outside every timed region

    # --- interpreter throughput, batched vs unbatched -------------------
    t0 = time.perf_counter()
    batched = _nfs_play(0)
    batched_s = time.perf_counter() - t0

    os.environ["REPRO_NO_BATCH"] = "1"
    try:
        t0 = time.perf_counter()
        unbatched = _nfs_play(0)
        unbatched_s = time.perf_counter() - t0
    finally:
        os.environ.pop("REPRO_NO_BATCH", None)

    # The fast path must be invisible in every observable output.
    assert batched.total_cycles == unbatched.total_cycles
    assert batched.instructions == unbatched.instructions
    assert batched.tx == unbatched.tx
    assert batched.tx_times_ms() == unbatched.tx_times_ms()

    # --- trace-compiling tier-up vs the pure interpreter ----------------
    # Measured on a compute-bound kernel (the tier-up targets hot loops;
    # the request-driven NFS run above is dominated by I/O turnaround).
    kernel = _compiled("kernel:sor")
    trials = 2 if SMOKE else 3

    def best_of(n):
        best = None
        result = None
        for _ in range(n + 1):      # +1 warmup: compile caches, branch state
            t0 = time.perf_counter()
            result = play(kernel, MachineConfig(), seed=0)
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        return best, result

    os.environ["REPRO_NO_JIT"] = "1"
    try:
        interp_s, interp = best_of(trials)
    finally:
        os.environ.pop("REPRO_NO_JIT", None)
    jit_s, jit = best_of(trials)
    assert jit.total_cycles == interp.total_cycles
    assert jit.instructions == interp.instructions

    # --- the Fig 8 VM-trace slice under each knob -----------------------
    slice_s = {}
    slice_scores = {}
    slice_s["unbatched_serial"], slice_scores["unbatched_serial"] = \
        _timed_slice(1, _trace_worker, no_batch=True)
    slice_s["batched_serial"], slice_scores["batched_serial"] = \
        _timed_slice(1, _trace_worker)
    slice_s["batched_fleet"], slice_scores["batched_fleet"] = \
        _timed_slice(FLEET_JOBS, _trace_worker)
    slice_s["batched_fleet_cache"], slice_scores["batched_fleet_cache"] = \
        _timed_slice(FLEET_JOBS, _trace_worker_cached)

    # Every knob combination must produce identical deviation scores.
    for name, scores in slice_scores.items():
        assert scores == slice_scores["unbatched_serial"], name

    def speedup(a, b):
        return slice_s[a] / slice_s[b] if slice_s[b] > 0 else float("inf")

    report = {
        "host": {"cpu_count": os.cpu_count(), "smoke": SMOKE},
        "machine_run": {
            "requests": REQUESTS,
            "instructions": batched.instructions,
            "batched": {"seconds": round(batched_s, 4),
                        "instr_per_sec":
                            round(batched.instructions / batched_s)},
            "unbatched": {"seconds": round(unbatched_s, 4),
                          "instr_per_sec":
                              round(unbatched.instructions / unbatched_s)},
            "speedup_batching": round(unbatched_s / batched_s, 3),
        },
        "interp_vs_jit": {
            "kernel": "sor",
            "instructions": jit.instructions,
            "interp": {"seconds": round(interp_s, 4),
                       "instr_per_sec":
                           round(interp.instructions / interp_s)},
            "jit": {"seconds": round(jit_s, 4),
                    "instr_per_sec": round(jit.instructions / jit_s)},
            "speedup_jit": round(interp_s / jit_s, 3),
            "jit_coverage": round(jit.jit["jit_instructions"]
                                  / jit.instructions, 4),
        },
        "fig8_vm_slice": {
            "traces": TRACES,
            "requests": REQUESTS,
            "audits_per_trace": AUDITS_PER_TRACE,
            "fleet_jobs": FLEET_JOBS,
            "seconds": {k: round(v, 4) for k, v in slice_s.items()},
            "speedup_batching":
                round(speedup("unbatched_serial", "batched_serial"), 3),
            "speedup_fleet":
                round(speedup("batched_serial", "batched_fleet"), 3),
            "speedup_cache":
                round(speedup("batched_fleet", "batched_fleet_cache"), 3),
            "speedup_total":
                round(speedup("unbatched_serial", "batched_fleet_cache"),
                      3),
        },
    }

    out = Path(os.environ.get("BENCH_PERF_OUT", "BENCH_perf.json"))
    out.write_text(json.dumps(report, indent=2) + "\n")

    print_banner("Perf baseline — simulator throughput and knob matrix")
    mr = report["machine_run"]
    print(f"  interpreter: {mr['batched']['instr_per_sec']:>9,d} instr/s "
          f"batched, {mr['unbatched']['instr_per_sec']:>9,d} unbatched "
          f"({mr['speedup_batching']}x) over {mr['instructions']:,d} "
          f"instructions")
    ij = report["interp_vs_jit"]
    print(f"  tier-up ({ij['kernel']}): {ij['jit']['instr_per_sec']:>9,d} "
          f"instr/s compiled, {ij['interp']['instr_per_sec']:>9,d} "
          f"interpreted ({ij['speedup_jit']}x, "
          f"{ij['jit_coverage']:.0%} of instructions in compiled blocks)")
    fs = report["fig8_vm_slice"]
    print(f"  VM slice ({TRACES} traces x {REQUESTS} requests x "
          f"{AUDITS_PER_TRACE} audits, {os.cpu_count()} CPUs):")
    for knob, secs in fs["seconds"].items():
        print(f"    {knob:<22s} {secs:>8.3f}s")
    print(f"  speedups: batching {fs['speedup_batching']}x, "
          f"fleet {fs['speedup_fleet']}x, cache {fs['speedup_cache']}x, "
          f"total {fs['speedup_total']}x")
    print(f"  written to {out}")

    assert out.exists()
    data = json.loads(out.read_text())
    assert data["fig8_vm_slice"]["speedup_total"] > 0
