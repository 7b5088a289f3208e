"""Interactive reproduction of the paper's experiments.

Usage::

    python -m repro.tools.reproduce --list
    python -m repro.tools.reproduce fig2 fig7
    python -m repro.tools.reproduce all --runs 6 --requests 20
    python -m repro.tools.reproduce fig6 trace --store
    python -m repro.tools.reproduce serve --tenants 4 --epochs 3 --store
    python -m repro.tools.reproduce audit --covert ipctc
    python -m repro.tools.reproduce exec --scenario all --jobs 4
    python -m repro.tools.reproduce exec --covert sched --store
    python -m repro.tools.reproduce fleet-audit --nodes 4 \\
        --chaos crash:1@180 --slo p99_verdict_ms=400 \\
        --trace-out fleet-trace.json --store
    python -m repro.tools.reproduce slo p99_verdict_ms=400,max_unaudited=0.1
    python -m repro.tools.reproduce trace --profile --store
    python -m repro.tools.reproduce profile --diff --flame tdr-flame.svg
    python -m repro.tools.reproduce profile --run latest --folded out.txt
    python -m repro.tools.reproduce runs list
    python -m repro.tools.reproduce report --latest 2 --out tdr-report.html

Each experiment is a quick, parameterizable version of the corresponding
bench in ``benchmarks/`` (the benches add shape assertions and fixed
parameters; this tool is for exploration).  With ``--store [DIR]`` the
store-aware experiments (``fig6``, ``trace``, ``chaos``, ``fleet``,
``serve``, ``fleet-audit``, ``audit``, ``exec``) persist their full
evidence — ledgers, metrics, traces, verdicts — to a
:class:`~repro.obs.runstore.RunStore` (``serve`` stores the one-node
``fleet-audit`` run it makes); the
``runs`` / ``report`` subcommands list and re-render those artifacts.

Exit codes are part of the contract: every experiment returns a status,
and the process exits with the strongest status any selected experiment
returned, ranked flagged > usage > SLO breach > degraded > clean (see
:func:`overall_status`) — so CI and scripts can gate directly on the
verdict:

====  =========================================================
code  meaning
====  =========================================================
0     clean — every audit verdicted, nothing flagged
1     flagged — a tamper, divergence, or covert timing deviation
2     usage — bad arguments, unknown experiment, malformed spec
3     degraded — no flag, but coverage was partial (audits shed,
      sessions unaudited, or the fleet ran in degraded mode)
4     SLO breach — nothing flagged, but a ``--slo`` objective (or
      ``reproduce slo``) found a latency/coverage target missed
====  =========================================================
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from repro.analysis.experiment import (NfsTrafficModel, run_detector_matrix,
                                       matrix_as_table)
from repro.analysis.stats import spread_percent
from repro.apps import (build_kernel_program, build_nfs_program,
                        build_nfs_workload, compile_app, zero_array_source)
from repro.channels import all_channels
from repro.core.tdr import play, replay_naive, round_trip
from repro.determinism import SplitMix64
from repro.detectors import all_statistical_detectors
from repro.machine import MachineConfig
from repro.machine.config import RuntimeKind
from repro.machine.noise import scenario_config
from repro.obs import (MITIGATED_SOURCES, Observability,
                       format_attribution_table)
from repro.obs.metrics import MetricsRegistry, time_phase
from repro.obs.report import phase_lines

#: The exit-code contract (see the module docstring and DESIGN.md).
EXIT_CLEAN = 0
EXIT_FLAGGED = 1
EXIT_USAGE = 2
EXIT_DEGRADED = 3
EXIT_SLO_BREACH = 4

_EXIT_TABLE = """\
exit codes:
  0  clean     every audit verdicted, nothing flagged
  1  flagged   tamper, divergence, or covert timing deviation
  2  usage     bad arguments, unknown experiment, malformed chaos spec
  3  degraded  no flag, but coverage was partial (audits shed, sessions
               unaudited, or the fleet entered degraded mode)
  4  SLO breach  nothing flagged, but an --slo objective missed its
               latency or coverage target (flags take precedence)
with several experiments selected, the process exits with the strongest
status any of them returned: 1 > 2 > 4 > 3 > 0."""


def positive_int(text: str) -> int:
    """argparse type for a count: an integer of at least 1, so a bad
    count exits 2 at the boundary instead of failing mid-experiment."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


#: Exit statuses from weakest to strongest.  A flag outranks everything:
#: it is a verdict no other experiment's status can take back.  A usage
#: error outranks the statuses that say nothing was flagged, because the
#: experiment it stopped never ran.
_PRECEDENCE = (EXIT_CLEAN, EXIT_DEGRADED, EXIT_SLO_BREACH, EXIT_USAGE,
               EXIT_FLAGGED)


def overall_status(*statuses: int) -> int:
    """The status to exit with when several were reached: the strongest
    under the contract's precedence 1 > 2 > 4 > 3 > 0 (0 for none)."""
    return max(statuses, key=_PRECEDENCE.index, default=EXIT_CLEAN)


def non_negative_int(text: str) -> int:
    """argparse type for a count that may be 0, such as the fault
    severities of 'chaos' (0 runs only the transfer sweep)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}")
    return value


def output_path(text: str) -> str:
    """argparse type for a file to write: its directory must exist, so a
    mistyped path exits 2 before the experiment runs, not after."""
    parent = Path(text).parent
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"directory {str(parent)!r} does not exist")
    return text


def _store(args, required: bool = False):
    """The :class:`RunStore` selected by ``--store``; ``None`` without the
    flag unless ``required`` (the subcommands that read a store open the
    default root then)."""
    root = getattr(args, "store", None)
    if root is None and not required:
        return None
    from repro.obs.runstore import RunStore

    return RunStore(root or None)


def _print_phases(registry) -> None:
    """The per-phase wall-clock table, as ``runs show`` re-renders it."""
    lines = phase_lines(registry.snapshot())
    if lines:
        print()
        print("\n".join(lines))


def _compiled_regions_table(regions, top: int = 8) -> str:
    """The compiled-regions table printed by ``trace`` and ``profile``.

    Re-sorts busiest-first with a full (function, head) tiebreak, so the
    rendering is deterministic even for regions loaded back from a
    stored run (JSON round trips preserve order, but the table should
    not depend on the producer's ordering).
    """
    ranked = sorted(regions, key=lambda r: (-r["instructions"],
                                            r["function"], r["head_pc"]))
    lines = [f"    {'function':<16s} {'head':>5s} {'len':>4s} "
             f"{'entries':>9s} {'side-exits':>10s} "
             f"{'instructions':>13s} {'cycles':>13s}"]
    for region in ranked[:top]:
        lines.append(
            f"    {region['function']:<16s} {region['head_pc']:>5d} "
            f"{region['length']:>4d} {region['entries']:>9,} "
            f"{region['side_exits']:>10,} "
            f"{region['instructions']:>13,} {region['cycles']:>13,}")
    return "\n".join(lines)


def _banner(title: str) -> None:
    print()
    print("=" * 70)
    print(title)
    print("=" * 70)


def run_fig2(args) -> None:
    _banner("Figure 2 — time noise of zeroing an array")
    program = compile_app(zero_array_source(elements=8192))
    for scenario in ("user-noisy", "user-quiet", "kernel", "kernel-quiet"):
        config = scenario_config(scenario)
        times = [float(play(program, config, seed=s).total_cycles)
                 for s in range(args.runs)]
        print(f"  {scenario:14s} variance = {spread_percent(times):8.2f}%")


def run_fig3(args) -> None:
    _banner("Figure 3 — naive replay vs play")
    program = build_nfs_program()
    workload = build_nfs_workload(SplitMix64(33),
                                  num_requests=args.requests)
    outcome = round_trip(program, MachineConfig(), workload=workload)
    naive = replay_naive(program, outcome.play.log, MachineConfig(),
                         seed=7)
    print(f"  play:         {outcome.play.total_ns / 1e6:9.2f} ms")
    print(f"  TDR replay:   {outcome.replay.total_ns / 1e6:9.2f} ms "
          f"(error {outcome.audit.total_time_error * 100:.3f}%)")
    print(f"  naive replay: {naive.total_ns / 1e6:9.2f} ms "
          f"(wait-skipping + injection overhead)")


def run_table2(args) -> None:
    _banner("Table 2 — SciMark: Sanity / Oracle-INT / Oracle-JIT")
    clean = scenario_config("clean")
    print(f"  {'kernel':8s} {'Sanity':>9s} {'INT':>6s} {'JIT':>9s}")
    for name in ("sor", "smm", "mc", "fft", "lu"):
        program = build_kernel_program(name)
        sanity = play(program, scenario_config("sanity"),
                      seed=0).total_cycles
        oint = play(program, clean.with_overrides(name="i"),
                    seed=0).total_cycles
        ojit = play(program, clean.with_overrides(
            name="j", runtime=RuntimeKind.ORACLE_JIT), seed=0).total_cycles
        print(f"  {name.upper():8s} {sanity / oint:>9.4f} {'1.0':>6s} "
              f"{ojit / oint:>9.4f}")


def run_fig6(args) -> None:
    _banner("Figure 6 — SciMark timing stability")
    from repro.analysis.parallel import MachineSpec, run_fleet_observed
    from repro.obs.report import fig6_lines

    kernels = ("sor", "smm", "mc", "lu", "fft")
    scenarios = ("dirty", "clean", "sanity")
    specs = [MachineSpec(program=f"kernel:{name}",
                         config=scenario_config(scenario), seed=seed)
             for name in kernels for scenario in scenarios
             for seed in range(args.runs)]
    results, fleet = run_fleet_observed(
        specs, jobs=args.jobs if args.jobs else 1)

    cursor = iter(results)
    spreads: dict[str, dict[str, float]] = {}
    for name in kernels:
        spreads[name.upper()] = {
            scenario: spread_percent(
                [float(next(cursor).total_cycles)
                 for _ in range(args.runs)])
            for scenario in scenarios}
    fig6 = {"kernels": [name.upper() for name in kernels],
            "scenarios": list(scenarios), "spreads": spreads}
    for line in fig6_lines(fig6):
        print(line)

    store = _store(args)
    if store is not None:
        from repro.obs.runstore import RunRecord

        run_id = store.save(RunRecord(
            kind="fig6", label=f"{args.runs} runs per cell",
            config={"runs": args.runs, "jobs": args.jobs or 1},
            seeds=list(range(args.runs)),
            metrics=fleet.registry.snapshot(),
            ledgers={"merged": fleet.ledger_totals()},
            figures={"fig6": fig6}))
        print(f"  [stored {run_id} in {store.root}]")


def run_fig7(args) -> None:
    _banner("Figure 7 / §6.4 — TDR replay accuracy")
    program = build_nfs_program()
    worst = 0.0
    for trace in range(args.runs):
        workload = build_nfs_workload(SplitMix64(500 + trace),
                                      num_requests=args.requests)
        outcome = round_trip(program, MachineConfig(), workload=workload,
                             play_seed=trace, replay_seed=9000 + trace)
        worst = max(worst, outcome.audit.max_rel_ipd_diff)
        print(f"  trace {trace}: total err "
              f"{outcome.audit.total_time_error * 100:6.3f}%  "
              f"max IPD err {outcome.audit.max_rel_ipd_diff * 100:6.3f}%")
    print(f"  worst IPD difference: {worst * 100:.3f}% (paper: 1.85%)")


def run_sec65(args) -> None:
    _banner("§6.5 — log size")
    program = build_nfs_program()
    workload = build_nfs_workload(SplitMix64(800),
                                  num_requests=args.requests)
    result = play(program, MachineConfig(), workload=workload, seed=0)
    log = result.log
    breakdown = log.size_breakdown()
    print(f"  {len(log)} events, {log.size_bytes()} bytes "
          f"({log.size_bytes() / len(result.tx):.1f} B/request)")
    print(f"  packets {breakdown['packet']} B, times {breakdown['time']} B")


def run_fig8(args) -> None:
    _banner("Figure 8 — detector AUC matrix (statistical detectors, "
            "synthetic traffic)")
    cells = run_detector_matrix(all_channels(), all_statistical_detectors,
                                model=NfsTrafficModel(),
                                num_training=30, num_test=args.runs * 4,
                                packets_per_trace=120, seed=2014,
                                jobs=args.jobs if args.jobs else 1)
    print(matrix_as_table(cells))
    print("  (run `pytest benchmarks/test_fig8_roc.py` for the VM-based "
          "Sanity-detector column)")

    store = _store(args)
    if store is not None:
        from repro.analysis.experiment import matrix_to_figures
        from repro.obs.runstore import RunRecord

        figures = matrix_to_figures(cells)
        run_id = store.save(RunRecord(
            kind="fig8", label=f"{len(cells)} matrix cells",
            config={"num_test": args.runs * 4, "seed": 2014},
            figures=figures))
        print(f"  [stored {run_id} in {store.root}]")


def run_chaos(args) -> int:
    _banner("Chaos matrix — resilient audit under injected faults")
    from repro.core.attestation import attest_execution
    from repro.core.replay_cache import ReplayCache
    from repro.core.resilience import AuditClassification, audit_resilient
    from repro.faults import LogTransferChannel, standard_fault_kinds

    registry = MetricsRegistry()
    cache = ReplayCache(registry=registry)
    seed = args.chaos_seed
    program = build_nfs_program()
    workload = build_nfs_workload(SplitMix64(seed),
                                  num_requests=args.requests)
    with time_phase("chaos.baseline-play", registry):
        observed = play(program, MachineConfig(), workload=workload, seed=0)
    data = observed.log.to_bytes()
    key = b"chaos-machine-key"
    auth = attest_execution(observed.log, key)
    print(f"  baseline: {len(observed.tx)} tx, {len(observed.log)} log "
          f"entries, {len(data)} bytes (seed {seed})")
    print(f"  {'fault':20s} {'sev':>3s} {'classification':18s} "
          f"{'coverage':>8s} {'consistent':>10s}")
    outcomes = []
    with time_phase("chaos.fault-sweep", registry):
        for severity in range(1, args.severities + 1):
            for plan in standard_fault_kinds(severity):
                damaged = plan.apply(data,
                                     SplitMix64(seed).fork(
                                         f"{plan.name}:{severity}"))
                outcome = audit_resilient(program, observed, damaged,
                                          authenticator=auth,
                                          signing_key=key,
                                          replay_cache=cache)
                outcomes.append(outcome)
                verdict = ("-" if outcome.consistent is None
                           else str(outcome.consistent))
                print(f"  {plan.name:20s} {severity:>3d} "
                      f"{outcome.classification.value:18s} "
                      f"{outcome.coverage:>8.2f} {verdict:>10s}")
    with time_phase("chaos.transfer-sweep", registry):
        for drop in (0.1, 0.2, 0.6, 0.9):
            channel = LogTransferChannel(drop_rate=drop, mtu_bytes=512,
                                         max_retries=6)
            shipped = channel.transfer(data,
                                       SplitMix64(seed).fork(f"xfer:{drop}"))
            outcome = audit_resilient(program, observed, transfer=shipped,
                                      replay_cache=cache)
            outcomes.append(outcome)
            print(f"  transfer drop={drop:.1f}: "
                  f"{'delivered' if shipped.delivered else 'degraded':10s} "
                  f"{shipped.retransmissions:3d} retx -> "
                  f"{outcome.classification.value} "
                  f"(coverage {outcome.coverage:.2f})")
    print(f"\n  replay cache: {cache.hits} hits, {cache.misses} misses")
    flagged = [o for o in outcomes
               if o.classification in (AuditClassification.TAMPER_DETECTED,
                                       AuditClassification.REPLAY_DIVERGENT)
               or o.consistent is False]
    print(f"  {len(flagged)}/{len(outcomes)} audits raised a "
          f"tamper/divergence verdict"
          + (" -> non-zero exit" if flagged else ""))

    store = _store(args)
    if store is not None:
        from repro.obs.runstore import RunRecord

        verdicts: dict = {"audits": len(outcomes),
                          "cache_hits": cache.hits,
                          "cache_misses": cache.misses}
        for outcome in outcomes:
            slug = f"class_{outcome.classification.value}"
            verdicts[slug] = verdicts.get(slug, 0) + 1
        run_id = store.save(RunRecord(
            kind="chaos", label=f"seed {seed}",
            config={"seed": seed, "severities": args.severities,
                    "requests": args.requests},
            metrics=registry.snapshot(),
            verdicts=verdicts,
            flights=[o.flight.to_json_dict() for o in outcomes
                     if o.flight is not None]))
        print(f"  [stored {run_id} in {store.root}]")
    _print_phases(registry)
    return 1 if flagged else 0


def run_trace(args) -> None:
    _banner("Trace — cycle attribution, opcode profile, Chrome trace")
    obs = Observability(profile=getattr(args, "profile", False))
    program = build_nfs_program()
    noisy = scenario_config("dirty")
    with time_phase("trace.round-trip", obs.registry):
        outcome = round_trip(program, noisy,
                             workload=build_nfs_workload(
                                 SplitMix64(77),
                                 num_requests=args.requests),
                             obs=obs)
    print(format_attribution_table(
        outcome.play.ledger, outcome.play.total_cycles,
        title=f"play ({noisy.name}, {outcome.play.total_cycles:,} cycles)"))
    print()
    print(format_attribution_table(
        outcome.replay.ledger, outcome.replay.total_cycles,
        title=f"replay ({noisy.name}, "
              f"{outcome.replay.total_cycles:,} cycles)"))

    sanity = scenario_config("sanity")
    with time_phase("trace.clean-play", obs.registry):
        clean = play(program, sanity,
                     workload=build_nfs_workload(SplitMix64(77),
                                                 num_requests=args.requests),
                     seed=0, obs=obs)
    print()
    print(format_attribution_table(
        clean.ledger, clean.total_cycles,
        title=f"play ({sanity.name}, {clean.total_cycles:,} cycles)"))
    leaked = sum(clean.ledger.get(s, 0) for s in MITIGATED_SOURCES)
    print(f"  mitigated sources ({', '.join(MITIGATED_SOURCES)}): "
          f"{leaked:,} cycles"
          + ("  [Table 1: fully mitigated]" if leaked == 0 else ""))

    if outcome.play.opcodes:
        top = sorted(outcome.play.opcodes.items(),
                     key=lambda kv: (-kv[1], kv[0]))[:8]
        print()
        print("  sampled opcode profile (play, top 8):")
        for op, count in top:
            print(f"    {op:12s} {count:>8,} samples")

    jit = outcome.play.jit
    if jit is not None and jit["regions"]:
        covered = jit["jit_instructions"] / max(1,
                                                outcome.play.instructions)
        print()
        print(f"  trace-compiled regions (play): "
              f"{jit['compiled_regions']} compiled, "
              f"{jit['entries']:,} entries, {jit['side_exits']:,} side "
              f"exits, {covered:.1%} of instructions; busiest:")
        print(_compiled_regions_table(jit["regions"]))

    if outcome.play.profile is not None:
        from repro.obs.profiler import profile_lines

        print()
        for line in profile_lines(outcome.play.profile):
            print(line)

    trace_out = args.trace_out or "tdr-trace.json"
    obs.tracer.write_chrome_trace(trace_out)
    print(f"\n  wrote {len(obs.tracer)} trace events to {trace_out} "
          f"(load in chrome://tracing or https://ui.perfetto.dev)")

    store = _store(args)
    if store is not None:
        from repro.obs.runstore import RunRecord

        # The table specs carry the exact titles printed above, so
        # `reproduce report` reproduces this stdout verbatim.
        tables = [
            {"ledger": "play",
             "total_cycles": outcome.play.total_cycles,
             "title": f"play ({noisy.name}, "
                      f"{outcome.play.total_cycles:,} cycles)"},
            {"ledger": "replay",
             "total_cycles": outcome.replay.total_cycles,
             "title": f"replay ({noisy.name}, "
                      f"{outcome.replay.total_cycles:,} cycles)"},
            {"ledger": "clean",
             "total_cycles": clean.total_cycles,
             "title": f"play ({sanity.name}, "
                      f"{clean.total_cycles:,} cycles)"},
        ]
        figures: dict = {"table1": {"tables": tables}}
        # The tier-up region summary and (with --profile) the profiles
        # persist per side, so `reproduce profile --run REF` can
        # annotate compiled regions and diff stored runs.
        for side, result in (("play", outcome.play),
                             ("replay", outcome.replay),
                             ("clean", clean)):
            if result.jit is not None:
                figures.setdefault("jit", {})[side] = result.jit
            if result.profile is not None:
                figures.setdefault("profile", {})[side] = result.profile
        run_id = store.save(RunRecord(
            kind="trace", label=f"{args.requests} NFS requests",
            config={"scenario": noisy.name, "requests": args.requests},
            seeds=[0, 1],
            metrics=obs.registry.snapshot(),
            ledgers={"play": dict(outcome.play.ledger or {}),
                     "replay": dict(outcome.replay.ledger or {}),
                     "clean": dict(clean.ledger or {})},
            verdicts={"consistent": outcome.audit.is_consistent(),
                      "payloads_match": outcome.audit.payloads_match,
                      "mitigated_leak_cycles": leaked},
            figures=figures,
            flights=([outcome.audit.flight.to_json_dict()]
                     if outcome.audit.flight is not None else []),
            trace_ndjson=obs.tracer.to_ndjson()))
        print(f"  [stored {run_id} in {store.root}]")
    _print_phases(obs.registry)


def run_fleet_exp(args) -> None:
    _banner("Fleet — parallel experiment execution")
    from repro.analysis.parallel import (MachineSpec, default_jobs,
                                         run_fleet_observed)

    jobs = args.jobs if args.jobs is not None else default_jobs()
    config = MachineConfig()
    specs = [MachineSpec(program="nfs", config=config, seed=seed,
                         workload=f"nfs:{7000 + seed}:{args.requests}")
             for seed in range(args.runs)]

    started = time.time()
    serial, serial_obs = run_fleet_observed(specs, jobs=1)
    serial_s = time.time() - started
    started = time.time()
    parallel, fleet_obs = run_fleet_observed(specs, jobs=jobs)
    parallel_s = time.time() - started

    identical = ([r.fingerprint() for r in serial]
                 == [r.fingerprint() for r in parallel])
    ledger_identical = (serial_obs.ledger_totals()
                        == fleet_obs.ledger_totals())
    metrics_identical = (serial_obs.registry.snapshot()
                         == fleet_obs.registry.snapshot())
    print(f"  {len(specs)} NFS plays x {args.requests} requests")
    print(f"  serial (jobs=1):   {serial_s:7.2f}s")
    print(f"  fleet  (jobs={jobs}):  {parallel_s:7.2f}s  "
          f"speedup {serial_s / parallel_s:.2f}x on "
          f"{default_jobs()} CPUs")
    print(f"  results bit-identical: {identical}")
    print(f"  merged ledger identical: {ledger_identical}  "
          f"merged metrics identical: {metrics_identical}  "
          f"({fleet_obs.workers} worker snapshots)")
    for spec, result in zip(specs[:4], parallel[:4]):
        print(f"    seed {spec.seed}: {result.total_cycles:,} cycles, "
              f"{len(result.tx)} tx")

    store = _store(args)
    if store is not None:
        from repro.obs.runstore import RunRecord

        run_id = store.save(RunRecord(
            kind="fleet", label=f"{len(specs)} NFS plays, jobs={jobs}",
            config={"runs": args.runs, "requests": args.requests,
                    "jobs": jobs},
            seeds=[spec.seed for spec in specs],
            metrics=fleet_obs.registry.snapshot(),
            ledgers={"merged": fleet_obs.ledger_totals()},
            verdicts={"bit_identical": identical,
                      "ledger_identical": ledger_identical,
                      "metrics_identical": metrics_identical,
                      "workers": fleet_obs.workers}))
        print(f"  [stored {run_id} in {store.root}]")


def run_audit(args) -> int:
    _banner("Audit — one attested machine, end to end")
    from repro.analysis.experiment import vm_covert_schedule
    from repro.apps import build_kvstore_program, build_kvstore_workload
    from repro.channels import channel_by_name
    from repro.core.attestation import attest_execution
    from repro.core.log import EventKind, EventLog, LogEntry
    from repro.core.resilience import AuditClassification, audit_resilient

    config = MachineConfig()
    program = build_kvstore_program()
    workload = build_kvstore_workload(SplitMix64(args.chaos_seed),
                                      num_requests=args.requests)
    schedule = None
    if args.covert:
        rng = SplitMix64(args.chaos_seed).fork("audit-covert")
        channel = channel_by_name(args.covert)
        model = NfsTrafficModel()
        channel.fit(model.ipds(240, rng.fork("adversary")), rng.fork("fit"))
        schedule = vm_covert_schedule(
            channel, model.ipds(args.requests, rng.fork("natural")),
            [1, 0, 1, 1], rng.fork("encode"),
            frequency_hz=config.frequency_hz)
    observed = play(program, config, workload=workload, seed=0,
                    covert_schedule=schedule)
    key = b"reproduce-audit-key"
    auth = attest_execution(observed.log, key)
    if args.tamper:
        # Rewrite one committed packet after attesting — valid framing,
        # broken chain: exactly what the admission check must catch.
        entries = list(observed.log.entries)
        victim = next(i for i, e in enumerate(entries)
                      if e.kind == EventKind.PACKET and e.payload)
        original = entries[victim]
        entries[victim] = LogEntry(
            original.kind, original.instr_count,
            payload=bytes([original.payload[0] ^ 0x01])
            + original.payload[1:], value=original.value)
        shipped = EventLog()
        shipped.entries = entries
        data = shipped.to_bytes()
    else:
        data = observed.log.to_bytes()

    outcome = audit_resilient(program, observed, data, config=config,
                              authenticator=auth, signing_key=key,
                              runstore=_store(args),
                              run_label="reproduce audit")
    verdict = ("-" if outcome.consistent is None
               else str(outcome.consistent))
    print(f"  {len(observed.tx)} tx, {len(observed.log)} log entries"
          + (f", covert channel '{args.covert}' active" if args.covert
             else "") + (", log tampered in transit" if args.tamper
                         else ""))
    print(f"  classification: {outcome.classification.value}  "
          f"coverage {outcome.coverage:.2f}  timing-consistent {verdict}")
    print(f"  {outcome.detail}")
    if outcome.run_id:
        print(f"  [stored {outcome.run_id}]")
    flagged = (outcome.classification in
               (AuditClassification.TAMPER_DETECTED,
                AuditClassification.REPLAY_DIVERGENT)
               or outcome.consistent is False)
    if flagged:
        print("  verdict: FLAGGED -> non-zero exit")
        return EXIT_FLAGGED
    if (outcome.classification is not AuditClassification.CLEAN
            or outcome.coverage < 1.0):
        # No flag, but the audit did not cover the whole execution —
        # distinct from clean so CI can tell "verified" from "survived".
        print("  verdict: clean but degraded coverage -> exit 3")
        return EXIT_DEGRADED
    print("  verdict: clean")
    return EXIT_CLEAN


def run_fleet_audit(args, nodes: int | None = None) -> int:
    """``fleet-audit`` on ``--nodes`` verifier nodes; ``serve`` is the
    same run on ``nodes=1``."""
    name = "fleet-audit" if nodes is None else "serve"
    nodes = args.nodes if nodes is None else nodes
    _banner("Fleet audit — sharded verifier fleet under node chaos"
            if name == "fleet-audit" else
            "Serve — continuous-audit verifier, one node (virtual time)")
    from repro.errors import ObservabilityError
    from repro.faults.plans import FaultPlanError, NodeChaosPlan
    from repro.obs.dist import SLOSpec, evaluate_slo
    from repro.service import (FleetService, FleetTopology, default_tenants,
                               persist_fleet_report)

    chaos = None
    if args.chaos:
        try:
            chaos = NodeChaosPlan.parse(args.chaos)
        except FaultPlanError as exc:
            print(f"{name}: bad --chaos spec: {exc}", file=sys.stderr)
            return EXIT_USAGE
    slo_spec = None
    if args.slo:
        try:
            slo_spec = SLOSpec.parse(args.slo)
        except ObservabilityError as exc:
            print(f"{name}: bad --slo spec: {exc}", file=sys.stderr)
            return EXIT_USAGE
    registry = MetricsRegistry()
    tenants = default_tenants(args.tenants, covert_channel=args.covert
                              or "ipctc", requests=args.requests)
    service = FleetService(
        tenants, topology=FleetTopology(num_nodes=nodes,
                                        workers_per_node=args.workers),
        epochs=args.epochs, seed=args.serve_seed, chaos=chaos,
        registry=registry)
    with time_phase("fleet_audit.run", registry):
        report = service.run(jobs=args.jobs if args.jobs else 1)
    for line in report.render_lines():
        print(f"  {line}")

    slo_report = None
    if slo_spec is not None:
        slo_report = evaluate_slo(
            slo_spec, report.fleet_obs,
            sessions_total=report.sessions_total,
            unaudited=len(report.unaudited),
            horizon_ms=report.horizon_ms)
        # Ride the verdict into the stored figures and the dashboard.
        report.fleet_obs["slo"] = slo_report.to_json_dict()
        print()
        for line in slo_report.render_lines():
            print(f"  {line}")

    if args.trace_out:
        service.dist.write_chrome_trace(args.trace_out)
        print(f"  wrote {len(service.dist)} fleet trace events to "
              f"{args.trace_out} (load in chrome://tracing or "
              f"https://ui.perfetto.dev)")

    store = _store(args)
    if store is not None:
        run_id = persist_fleet_report(
            store, report,
            label=f"{nodes} nodes x {args.tenants} tenants, "
                  f"chaos={report.chaos_spec or 'none'}")
        print(f"  [stored {run_id} in {store.root}]")
    _print_phases(registry)
    breached = slo_report is not None and not slo_report.ok
    status = overall_status(report.exit_code,
                            EXIT_SLO_BREACH if breached else EXIT_CLEAN)
    if status == EXIT_FLAGGED:
        print("  flagged tenants -> non-zero exit")
    elif status == EXIT_SLO_BREACH:
        print(f"  SLO breach ({', '.join(slo_report.breached)}) -> exit 4")
    elif status == EXIT_DEGRADED:
        print("  degraded coverage (no flag) -> exit 3")
    return status


#: ``--covert`` aliases for ``exec``: channel name or scenario name both
#: select the scenario whose guest encodes that channel.
_EXEC_COVERT = {"sched": "sched", "schedtc": "sched",
                "mbox": "mbox", "mboxtc": "mbox"}


def run_exec(args) -> int:
    _banner("Exec — guest executive: multi-process TDR on one machine")
    from repro.errors import ObservabilityError
    from repro.exec import (EXEC_SCENARIOS, exec_fleet_task,
                            exec_round_trip, exec_scenario)
    from repro.obs.dist import SLOSpec, nearest_rank
    from repro.obs.ledger import format_process_table

    slo_spec = None
    if args.slo:
        try:
            slo_spec = SLOSpec.parse(args.slo)
        except ObservabilityError as exc:
            print(f"exec: bad --slo spec: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if args.scenario != "all" and args.scenario not in EXEC_SCENARIOS:
        print(f"exec: unknown scenario '{args.scenario}' (choose from "
              f"{', '.join(EXEC_SCENARIOS)}, all)", file=sys.stderr)
        return EXIT_USAGE
    covert_of = None
    if args.covert:
        covert_of = _EXEC_COVERT.get(args.covert)
        if covert_of is None:
            print(f"exec: --covert must be one of "
                  f"{', '.join(sorted(_EXEC_COVERT))} (got "
                  f"'{args.covert}')", file=sys.stderr)
            return EXIT_USAGE

    names = (list(EXEC_SCENARIOS) if args.scenario == "all"
             else [args.scenario])
    status = EXIT_CLEAN
    verdict_ms: list[float] = []
    unaudited = 0
    figures: dict = {"scenarios": {}}
    ledgers: dict = {}
    verdicts: dict = {}

    def one(name: str, covert: bool) -> None:
        nonlocal status, unaudited
        scenario = exec_scenario(name)
        obs = Observability()
        tdr = exec_round_trip(scenario, play_seed=0, replay_seed=1,
                              covert=covert, obs=obs)
        play_r, replay_r, audit = tdr.play, tdr.replay, tdr.audit
        # Verdict latency in *virtual* milliseconds: the replay is the
        # audit, so its virtual duration is the deterministic stand-in
        # for "how long until the verdict" (wall-clock would make the
        # SLO verdict — and the CI byte-diff — machine-dependent).
        verdict_ms.append(replay_r.total_ns / 1e6)
        consistent = audit.is_consistent()
        deviation = audit.deviation_score()
        label = name + (" [covert]" if covert else "")
        print(f"  {label}: {play_r.stats['exec_processes']} processes, "
              f"{play_r.stats['exec_switches']} switches, "
              f"{play_r.stats['exec_messages']} messages, "
              f"{play_r.instructions:,} instructions")
        print(f"    play {play_r.total_cycles:,} cycles / replay "
              f"{replay_r.total_cycles:,}; deviation "
              f"{deviation:.4f} ms; payloads "
              f"{'match' if audit.payloads_match else 'DIFFER'}")
        if play_r.process_ledger:
            table = format_process_table(play_r.process_ledger,
                                         play_r.total_cycles)
            print("    " + table.replace("\n", "\n    "))
            ledgers[label] = {proc: dict(sources) for proc, sources
                              in play_r.process_ledger.items()}
        exited = play_r.stats["exec_exited"]
        total = play_r.stats["exec_processes"]
        if exited < total:
            print(f"    only {exited}/{total} processes exited -> "
                  f"degraded")
            unaudited += 1
            status = overall_status(status, EXIT_DEGRADED)
        if consistent:
            print("    verdict: consistent (no timing deviation)")
        else:
            print("    verdict: FLAGGED — timing deviation beyond "
                  "tolerance")
            status = overall_status(status, EXIT_FLAGGED)
        verdicts[label] = {"consistent": consistent,
                           "deviation_ms": deviation,
                           "payloads_match": audit.payloads_match}
        figures["scenarios"][label] = {
            "play_cycles": play_r.total_cycles,
            "replay_cycles": replay_r.total_cycles,
            "instructions": play_r.instructions,
            "switches": play_r.stats["exec_switches"],
            "messages": play_r.stats["exec_messages"],
            "deviation_ms": deviation,
        }

    for name in names:
        one(name, covert=False)
    if covert_of is not None:
        one(covert_of, covert=True)

    if args.jobs and args.jobs > 1:
        # The determinism contract: the same task set run through the
        # process pool at --jobs N must reproduce the serial fingerprints
        # and audit reports bit for bit.
        from repro.analysis.parallel import run_fleet

        tasks = [(name, covert, seed, seed + 100, None)
                 for name in names
                 for covert in ((False, True)
                                if exec_scenario(name).rounds else (False,))
                 for seed in (0, 1)]
        serial = run_fleet(tasks, jobs=1, worker=exec_fleet_task)
        fanned = run_fleet(tasks, jobs=args.jobs, worker=exec_fleet_task)
        identical = serial == fanned
        print(f"  fleet determinism: {len(tasks)} round trips, jobs=1 "
              f"vs jobs={args.jobs}: "
              f"{'bit-identical' if identical else 'DIVERGED'}")
        figures["fleet"] = {"tasks": len(tasks), "jobs": args.jobs,
                            "identical": identical}
        if not identical:
            status = overall_status(status, EXIT_FLAGGED)

    if slo_spec is not None:
        print("  slo:")
        breached = []
        for key, target in slo_spec.objectives():
            if key == "max_unaudited":
                value = unaudited / max(1, len(verdict_ms) + unaudited)
            elif key == "p99_queue_ms":
                value = 0.0  # audits run inline; nothing queues
            else:
                q = {"p50_verdict_ms": 0.50, "p95_verdict_ms": 0.95,
                     "p99_verdict_ms": 0.99}[key]
                value = nearest_rank(verdict_ms, q)
            ok = value <= target
            if not ok:
                breached.append(key)
            print(f"    {key:<16s} {value:>10.2f} <= {target:<10g} "
                  f"{'ok' if ok else 'BREACH'}")
        figures["slo"] = {"breached": breached}
        if breached:
            status = overall_status(status, EXIT_SLO_BREACH)
            if status == EXIT_SLO_BREACH:
                print(f"  SLO breach ({', '.join(breached)}) -> exit 4")

    store = _store(args)
    if store is not None:
        from repro.obs.runstore import RunRecord

        record = RunRecord(
            kind="exec",
            label=f"scenario={args.scenario}"
                  + (f", covert={covert_of}" if covert_of else ""),
            config={"scenario": args.scenario,
                    "covert": args.covert or "",
                    "jobs": args.jobs or 1},
            seeds=[0, 1],
            ledgers=ledgers,
            verdicts=verdicts,
            figures=figures)
        run_id = store.save(record)
        print(f"  [stored {run_id} in {store.root}]")
    if status == EXIT_FLAGGED:
        print("  flagged -> non-zero exit")
    return status


EXPERIMENTS = {
    "fig2": run_fig2,
    "fig3": run_fig3,
    "table2": run_table2,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "sec65": run_sec65,
    "fig8": run_fig8,
    "chaos": run_chaos,
    "trace": run_trace,
    "fleet": run_fleet_exp,
    "audit": run_audit,
    "serve": functools.partial(run_fleet_audit, nodes=1),
    "fleet-audit": run_fleet_audit,
    "exec": run_exec,
}


def cmd_runs(argv: list[str]) -> int:
    """``reproduce runs [list|show|prune]`` — browse the run store."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.reproduce runs",
        description="List, inspect, and prune stored experiment runs.")
    parser.add_argument("action", nargs="?", default="list",
                        choices=("list", "show", "prune"))
    parser.add_argument("ref", nargs="?",
                        help="run id or unique prefix (for 'show')")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="run store root (default: REPRO_RUNSTORE "
                             "or .repro-runs)")
    parser.add_argument("--keep", type=int, default=10,
                        help="runs kept by 'prune' (default 10)")
    args = parser.parse_args(argv)
    from repro.errors import ObservabilityError

    store = _store(args, required=True)
    try:
        if args.action == "list":
            runs = store.list_runs()
            if not runs:
                print(f"no runs in {store.root}")
                return 0
            print(f"{'run id':24s} {'kind':10s} {'created':19s} label")
            for manifest in runs:
                created = time.strftime(
                    "%Y-%m-%d %H:%M:%S",
                    time.localtime(manifest.get("created_at", 0)))
                print(f"{manifest['run_id']:24s} "
                      f"{manifest['kind']:10s} {created:19s} "
                      f"{manifest.get('label', '')}")
            return 0
        if args.action == "show":
            if not args.ref:
                print("runs show needs a run id", file=sys.stderr)
                return 2
            from repro.obs.report import render_text

            run_id = store.resolve(args.ref)
            print(render_text(store.load(run_id), run_id))
            return 0
        removed = store.prune(args.keep)
        print(f"pruned {len(removed)} run(s), kept {len(store)}")
        for run_id in removed:
            print(f"  removed {run_id}")
        return 0
    except ObservabilityError as exc:
        print(f"runs: {exc}", file=sys.stderr)
        return 2


def cmd_report(argv: list[str]) -> int:
    """``reproduce report`` — re-render stored runs as text + HTML."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.reproduce report",
        description="Render stored runs as a self-contained HTML report "
                    "(and re-print their run-time numbers).")
    parser.add_argument("refs", nargs="*",
                        help="run ids or unique prefixes")
    parser.add_argument("--latest", type=non_negative_int, default=0,
                        metavar="N",
                        help="also render the N most recent runs")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="run store root (default: REPRO_RUNSTORE "
                             "or .repro-runs)")
    parser.add_argument("--out", type=output_path,
                        default="tdr-report.html",
                        help="HTML output path (default tdr-report.html)")
    parser.add_argument("--title", default="TDR experiment report")
    args = parser.parse_args(argv)
    from repro.errors import ObservabilityError
    from repro.obs.report import render_html, render_text

    store = _store(args, required=True)
    try:
        refs = list(args.refs)
        if args.latest:
            refs.extend(m["run_id"]
                        for m in store.list_runs()[-args.latest:])
        if not refs:
            print("report needs run ids or --latest N", file=sys.stderr)
            return 2
        pairs = []
        seen: set[str] = set()
        for ref in refs:
            run_id = store.resolve(ref)
            if run_id not in seen:
                seen.add(run_id)
                pairs.append((run_id, store.load(run_id)))
    except ObservabilityError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    for run_id, record in pairs:
        print(render_text(record, run_id))
        print()
    document = render_html(pairs, title=args.title)
    Path(args.out).write_text(document, encoding="utf-8")
    print(f"wrote {args.out} ({len(document):,} bytes, "
          f"{len(pairs)} run(s))")
    return 0


def cmd_slo(argv: list[str]) -> int:
    """``reproduce slo SPEC`` — evaluate SLOs against a stored fleet run.

    Exit codes: 0 every objective met, 4 breach, 2 usage (bad spec, no
    stored fleet-audit run, or a run without fleet observability).
    """
    parser = argparse.ArgumentParser(
        prog="repro.tools.reproduce slo",
        description="Evaluate a latency/coverage SLO spec against a "
                    "stored fleet-audit run (latest by default).")
    parser.add_argument("spec",
                        help="inline SLO spec, e.g. "
                             "'p99_verdict_ms=400,max_unaudited=0.1' "
                             "(keys: p50/p95/p99_verdict_ms, "
                             "p99_queue_ms, max_unaudited)")
    parser.add_argument("--run", default=None, metavar="REF",
                        help="run id or unique prefix (default: the "
                             "most recent fleet-audit run)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="run store root (default: REPRO_RUNSTORE "
                             "or .repro-runs)")
    parser.add_argument("--windows", type=positive_int, default=4,
                        help="burn-rate windows over the virtual "
                             "horizon (default 4)")
    args = parser.parse_args(argv)
    from repro.errors import ObservabilityError
    from repro.obs.dist import SLOSpec, evaluate_slo

    try:
        spec = SLOSpec.parse(args.spec)
    except ObservabilityError as exc:
        print(f"slo: bad spec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    store = _store(args, required=True)
    try:
        if args.run:
            run_id = store.resolve(args.run)
        else:
            fleet_runs = store.list_runs(kind="fleet-audit")
            if not fleet_runs:
                print(f"slo: no fleet-audit runs in {store.root} "
                      f"(run `reproduce fleet-audit --store` first)",
                      file=sys.stderr)
                return EXIT_USAGE
            run_id = fleet_runs[-1]["run_id"]
        record = store.load(run_id)
    except ObservabilityError as exc:
        print(f"slo: {exc}", file=sys.stderr)
        return EXIT_USAGE
    fleet_obs = record.figures.get("fleet_obs") or {}
    if not fleet_obs:
        print(f"slo: run {run_id} has no fleet observability payload "
              f"(kind '{record.kind}'; re-run fleet-audit with this "
              f"build)", file=sys.stderr)
        return EXIT_USAGE
    verdicts = record.verdicts or {}
    report = evaluate_slo(
        spec, fleet_obs,
        sessions_total=int(verdicts.get("sessions_total", 0)),
        unaudited=len(verdicts.get("unaudited", [])),
        horizon_ms=float(fleet_obs.get("horizon_ms")
                         or verdicts.get("horizon_ms", 0.0)),
        windows=args.windows)
    print(f"run {run_id} ({record.label or record.kind})")
    for line in report.render_lines():
        print(line)
    return EXIT_CLEAN if report.ok else EXIT_SLO_BREACH


def cmd_profile(argv: list[str]) -> int:
    """``reproduce profile`` — cycle-exact flame graphs and forensics.

    Without ``--run`` it plays a fresh covert round trip with the
    profiler on and profiles both sides; with ``--run REF`` it re-renders
    the profiles persisted with a stored run (annotating compiled
    regions from the stored tier-up summary).  ``--diff`` walks play vs
    replay to the first divergent (function, pc, source) frame;
    ``--flame``/``--folded`` write a standalone SVG flame graph (the
    differential view under ``--diff``) and flamegraph.pl-compatible
    folded stacks.
    """
    parser = argparse.ArgumentParser(
        prog="repro.tools.reproduce profile",
        description="Profile guest cycles exactly: flame graphs, folded "
                    "stacks, and play-vs-replay divergence forensics.")
    parser.add_argument("--run", default=None, metavar="REF",
                        help="render a stored run's profiles instead of "
                             "playing a fresh round trip ('latest' = "
                             "most recent run that has one)")
    parser.add_argument("--diff", action="store_true",
                        help="diff play vs replay and name the first "
                             "divergent (function, pc, source) frame")
    parser.add_argument("--flame", type=output_path, default=None,
                        metavar="OUT.svg",
                        help="write a standalone SVG flame graph (the "
                             "side-by-side differential view with "
                             "--diff)")
    parser.add_argument("--folded", type=output_path, default=None,
                        metavar="OUT.txt",
                        help="write flamegraph.pl-compatible folded "
                             "stacks (play side)")
    parser.add_argument("--store", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="run store root; with a fresh run, also "
                             "persist its profiles")
    parser.add_argument("--requests", type=positive_int, default=6,
                        help="NFS requests for a fresh run (default 6)")
    args = parser.parse_args(argv)
    from repro.errors import ObservabilityError
    from repro.obs.forensics import diff_lines, diff_profiles, \
        render_flame_diff_svg
    from repro.obs.profiler import (folded_lines, profile_lines,
                                    write_flame_svg)

    profiles: dict = {}
    jit_figures: dict = {}
    if args.run:
        store = _store(args, required=True)
        try:
            if args.run == "latest":
                with_profile = [m for m in store.list_runs()
                                if "profile" in m.get("figures", {})]
                if not with_profile:
                    print(f"profile: no stored runs with a profile in "
                          f"{store.root} (run `reproduce profile "
                          f"--store` or `trace --profile --store`)",
                          file=sys.stderr)
                    return EXIT_USAGE
                run_id = with_profile[-1]["run_id"]
            else:
                run_id = store.resolve(args.run)
            record = store.load(run_id)
        except ObservabilityError as exc:
            print(f"profile: {exc}", file=sys.stderr)
            return EXIT_USAGE
        profiles = record.figures.get("profile") or {}
        jit_figures = record.figures.get("jit") or {}
        if not profiles:
            print(f"profile: run {run_id} has no stored profile "
                  f"(kind '{record.kind}'; re-run the experiment with "
                  f"--profile)", file=sys.stderr)
            return EXIT_USAGE
        print(f"run {run_id} ({record.label or record.kind})")
    else:
        _banner("Profile — cycle-exact guest flame graphs")
        obs = Observability(profile=True)
        program = build_nfs_program()
        outcome = round_trip(
            program, MachineConfig(),
            workload=build_nfs_workload(SplitMix64(77),
                                        num_requests=args.requests),
            play_seed=0, replay_seed=0,
            covert_schedule=[1_500, 4_000, 2_500, 6_000], obs=obs)
        profiles = {"play": outcome.play.profile,
                    "replay": outcome.replay.profile}
        for side in ("play", "replay"):
            result = getattr(outcome, side)
            if result.jit is not None:
                jit_figures[side] = result.jit
        store = _store(args)
        if store is not None:
            from repro.core.tdr import persist_round_trip

            run_id = persist_round_trip(store, outcome, obs=obs,
                                        label=f"{args.requests} NFS "
                                              f"requests, covert",
                                        kind="profile")
            print(f"  [stored {run_id} in {store.root}]")

    for side in sorted(profiles):
        print()
        print(f"  {side} profile:")
        for line in profile_lines(profiles[side]):
            print(line)
    jit = jit_figures.get("play")
    if jit and jit.get("regions"):
        print()
        print(f"  compiled regions (play): {jit['compiled_regions']} "
              f"compiled, {jit['entries']:,} entries, "
              f"{jit['side_exits']:,} side exits:")
        print(_compiled_regions_table(jit["regions"]))

    if args.diff:
        if "play" not in profiles or "replay" not in profiles:
            print("profile: --diff needs both play and replay profiles",
                  file=sys.stderr)
            return EXIT_USAGE
        print()
        for line in diff_lines(diff_profiles(profiles["play"],
                                             profiles["replay"])):
            print(line)

    primary = profiles.get("play") or profiles[sorted(profiles)[0]]
    if args.folded:
        lines = folded_lines(primary)
        Path(args.folded).write_text("\n".join(lines) + "\n",
                                     encoding="utf-8")
        print(f"  wrote {len(lines)} folded stacks to {args.folded}")
    if args.flame:
        if args.diff and "replay" in profiles:
            svg = render_flame_diff_svg(profiles["play"],
                                        profiles["replay"])
            Path(args.flame).write_text(
                '<?xml version="1.0" encoding="UTF-8"?>\n' + svg + "\n",
                encoding="utf-8")
        else:
            write_flame_svg(args.flame, primary)
        print(f"  wrote flame graph to {args.flame}")
    return EXIT_CLEAN


SUBCOMMANDS = {
    "runs": cmd_runs,
    "report": cmd_report,
    "slo": cmd_slo,
    "profile": cmd_profile,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.tools.reproduce",
        description="Regenerate the paper's tables and figures.",
        epilog=_EXIT_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (or 'all'), or a "
                             "subcommand: " + ", ".join(SUBCOMMANDS))
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--runs", type=positive_int, default=6,
                        help="repetitions per configuration (default 6)")
    parser.add_argument("--jobs", type=positive_int, default=None,
                        help="worker processes for fleet-aware "
                             "experiments (default: REPRO_JOBS or the "
                             "CPU count for 'fleet', serial elsewhere)")
    parser.add_argument("--requests", type=positive_int, default=25,
                        help="NFS requests per trace (default 25)")
    parser.add_argument("--chaos-seed", type=int, default=2014,
                        help="seed for the chaos fault sweep "
                             "(default 2014)")
    parser.add_argument("--severities", type=non_negative_int, default=3,
                        help="fault severities swept by 'chaos' "
                             "(default 3)")
    parser.add_argument("--trace-out", type=output_path, default=None,
                        metavar="FILE",
                        help="Chrome trace file written by 'trace' "
                             "(default tdr-trace.json) and, when given "
                             "explicitly, the merged fleet trace of "
                             "'serve' and 'fleet-audit'")
    parser.add_argument("--tenants", type=positive_int, default=4,
                        help="tenants simulated by 'serve' and "
                             "'fleet-audit' (default 4)")
    parser.add_argument("--epochs", type=positive_int, default=2,
                        help="epochs simulated by 'serve' and "
                             "'fleet-audit' (default 2)")
    parser.add_argument("--workers", type=positive_int, default=2,
                        help="virtual audit workers per verifier node "
                             "for 'serve' and 'fleet-audit' (default 2)")
    parser.add_argument("--serve-seed", type=int, default=2014,
                        help="service seed for 'serve' and "
                             "'fleet-audit' (default 2014)")
    parser.add_argument("--nodes", type=positive_int, default=4,
                        help="verifier nodes simulated by 'fleet-audit' "
                             "(default 4; 'serve' runs one)")
    parser.add_argument("--chaos", default=None, metavar="PLAN",
                        help="node-fault plan for 'serve' and "
                             "'fleet-audit', e.g. "
                             "'crash:1@180,stall:2@90+500,slow:0@10x4' "
                             "(crash:NODE@MS, stall:NODE@MS+DUR, "
                             "slow:NODE@MSxFACTOR; default none)")
    parser.add_argument("--slo", default=None, metavar="SPEC",
                        help="SLO spec 'serve' and 'fleet-audit' "
                             "evaluate at end of run, e.g. "
                             "'p99_verdict_ms=400,max_unaudited=0.1'; a "
                             "breach exits 4 (flags still exit 1)")
    parser.add_argument("--covert", default=None, metavar="CHANNEL",
                        help="covert channel for 'audit' (and the "
                             "covert tenant of 'serve' and "
                             "'fleet-audit'; default ipctc there, none "
                             "for 'audit'); for 'exec', "
                             "sched/schedtc or mbox/mboxtc adds the "
                             "covert variant of that scenario")
    parser.add_argument("--scenario", default="all",
                        metavar="NAME",
                        help="'exec' scenario to run: pipeline, sched, "
                             "mbox, or all (default all)")
    parser.add_argument("--tamper", action="store_true",
                        help="'audit' only: rewrite a committed log "
                             "entry after attestation")
    parser.add_argument("--store", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="persist run artifacts to a run store at "
                             "DIR (default: REPRO_RUNSTORE or "
                             ".repro-runs)")
    parser.add_argument("--profile", action="store_true",
                        help="'trace' only: also run the cycle-exact "
                             "stack profiler (pure observer — the "
                             "Chrome trace and every verdict stay "
                             "byte-identical)")
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("available experiments:", ", ".join(EXPERIMENTS), "| all")
        return 0
    selected = list(EXPERIMENTS) if args.experiments == ["all"] \
        else args.experiments
    unknown = [e for e in selected if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print("available:", ", ".join(EXPERIMENTS), file=sys.stderr)
        return 2
    if args.covert and {"audit", "serve", "fleet-audit"} & set(selected):
        from repro.channels import channel_by_name
        from repro.errors import ChannelError

        try:
            channel_by_name(args.covert)
        except ChannelError as exc:
            print(f"--covert: {exc}", file=sys.stderr)
            return EXIT_USAGE
    status = 0
    for name in selected:
        started = time.time()
        result = EXPERIMENTS[name](args)
        print(f"  [{name}: {time.time() - started:.1f}s]")
        status = overall_status(status, int(result or 0))
    return status


if __name__ == "__main__":
    sys.exit(main())
