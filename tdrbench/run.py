"""TDR pipeline benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 tdrbench/run.py --workload nfs-audit --seed 1 --seconds 15 \
        --trace 0

``--trace 0`` sets up the workload several times (reporting the median
set-up time), then repeats the workload's rounds for ``--seconds`` and
reports the end-to-end metrics, with every timed span scaled to a fixed
host speed (see ``hostspeed.py``).  ``--trace 1`` sets up once, runs one
untraced round, then two rounds under cProfile, folds the profiles by
layer (see ``layers.py``) and reports the per-layer metrics; every exact
counter must agree between the two traced rounds.  The last line of
standard output is the JSON result; the exit status is 0 when the run
completed, whether or not the oracle passed (``"correct"`` says that).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3

#: End-to-end metric -> unit (must match BENCHMARK.json).
END_TO_END_UNITS = {
    "play_minstr_per_s": "Minstr/s",
    "replay_minstr_per_s": "Minstr/s",
    "verified_per_s": "ops/s",
    "setup_s": "s",
    "ok_ops_frac": "ratio",
    "peak_rss_mb": "MiB",
}


def _import_repo():
    """Make ``src/`` and this directory importable, or explain why not."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise SystemExit(f"tdrbench: no repository sources under "
                         f"{os.path.join(ROOT, 'src')}")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def _rates(rounds) -> tuple[float, float, float]:
    """Play and replay Minstr/s and ops/s, from each operation's median
    (host-speed scaled) seconds over the rounds."""
    per_op: dict[str, list] = {}
    for tally in rounds:
        for label, timing in tally.timings.items():
            per_op.setdefault(label, []).append(timing)
    totals = [0.0] * 6
    for timings in per_op.values():
        for i, column in enumerate(zip(*timings)):
            totals[i] += statistics.median(column)
    play_instr, play_s, replay_instr, replay_s, wall_s, ops = totals
    return (play_instr / play_s / 1e6, replay_instr / replay_s / 1e6,
            ops / wall_s)


def _check_guards(rounds) -> None:
    """Fail every op of a round whose ``sim`` guards differ from round 0."""
    first = rounds[0].guards()
    for index, tally in enumerate(rounds[1:], start=1):
        if tally.guards() != first:
            failed_now = tally.ops - tally.failed
            tally.failed = tally.ops
            tally.failures.append(
                f"round {index}: sim guards {tally.guards()} differ from "
                f"round 0 {first} ({failed_now} more ops failed)")


def run_untraced(workload, seed: int, seconds: float) -> dict:
    from tdrbench import hostspeed
    from tdrbench.workloads import Tally

    setups = []
    for _ in range(SETUP_REPEATS):
        before = hostspeed.probe()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        elapsed = time.perf_counter() - t0
        setups.append(hostspeed.scale(elapsed, before, hostspeed.probe()))
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(Tally(scaled=True))
        workload.round(state, rounds[-1])
    _check_guards(rounds)
    attempted = sum(t.ops for t in rounds)
    failed = sum(t.failed for t in rounds)
    play_rate, replay_rate, verified_rate = _rates(rounds)
    metrics = {
        "play_minstr_per_s": play_rate,
        "replay_minstr_per_s": replay_rate,
        "verified_per_s": verified_rate,
        "setup_s": statistics.median(setups),
        "ok_ops_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return {"attempted": attempted, "failed": failed,
            "failures": [f for t in rounds for f in t.failures],
            "metrics": {name: (value, END_TO_END_UNITS[name])
                        for name, value in metrics.items()}}


def _profiled(fn):
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - t0
    profiler.create_stats()
    return result, profiler.stats, wall


def run_traced(workload, seed: int) -> dict:
    from tdrbench.layers import Fold
    from tdrbench.metrics import exact_counters, layer_metrics
    from tdrbench.workloads import Tally

    def one_round(serial: bool) -> Tally:
        tally = Tally()
        workload.round(state, tally, serial=serial)
        return tally

    state, setup_stats, _ = _profiled(lambda: workload.setup(seed))
    pooled = one_round(serial=False)
    # The traced rounds run every machine in this process, so the profile
    # sees all of them; an untraced serial round is their baseline and
    # leaves every JIT artifact they need in place.
    untraced = one_round(serial=True) if pooled.pool_wait_s > 0 else pooled
    traced = [_profiled(lambda: one_round(serial=True)) for _ in range(2)]
    folds = [Fold(stats) for _, stats, _ in traced]
    tallies = [tally for tally, _, _ in traced]
    rounds = [pooled] + ([untraced] if untraced is not pooled else []) \
        + tallies
    _check_guards(rounds)
    counters = [exact_counters(fold, tally)
                for fold, tally in zip(folds, tallies)]
    failures = [f for t in rounds for f in t.failures]
    if counters[0] != counters[1]:
        diff = sorted(k for k in counters[0]
                      if counters[0][k] != counters[1].get(k))
        failures.append(f"exact counters differ between traced rounds: "
                        f"{diff}")
    metrics = layer_metrics(
        folds[0], tallies[0], Fold(setup_stats),
        pool_wait_frac=pooled.pool_wait_s / pooled.wall_s,
        overhead=statistics.mean(w for _, _, w in traced) / untraced.wall_s)
    return {"attempted": sum(t.ops for t in rounds),
            "failed": sum(t.failed for t in rounds),
            "failures": failures,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_repo()
    from tdrbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
    if args.trace:
        outcome = run_traced(workload, args.seed)
    else:
        outcome = run_untraced(workload, args.seed, args.seconds)
    for failure in outcome["failures"]:
        print(f"tdrbench: FAILED {failure}", file=sys.stderr)
    _check_names(outcome["metrics"], "per_layer" if args.trace
                 else "end_to_end")
    correct = outcome["failed"] == 0 and not outcome["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }))
    return 0


def _check_names(metrics: dict, section: str) -> None:
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {m["name"]: m["unit"]
                    for m in json.load(handle)[section]}
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if printed != declared:
        raise SystemExit(
            f"tdrbench: {section} metrics disagree with BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(printed))}, "
            f"undeclared {sorted(set(printed) - set(declared))}, "
            f"unit changes {sorted(k for k in printed if k in declared and printed[k] != declared[k])}")


if __name__ == "__main__":
    sys.exit(main())
