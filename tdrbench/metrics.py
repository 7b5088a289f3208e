"""Per-layer metrics of a traced round.

``*_frac`` metrics are shares of the round's profiled host time (self
time unless named ``incl``).  Counts are taken from cProfile call counts
and from the machine results, so they repeat exactly run to run:
:func:`exact_counters` is what the traced run compares between its two
rounds.  ``*_s`` metrics are profiled seconds and include cProfile's
overhead.
"""

from __future__ import annotations

from tdrbench.layers import LAYERS, Fold

WAIT = "repro.machine.platform:_native_wait_packet"
TRY_RECV = "repro.machine.platform:_try_recv"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def exact_counters(fold: Fold, tally) -> dict[str, float]:
    """Every counter that must repeat bit for bit for one seed."""
    instr = tally.instructions
    kinstr = instr / 1000.0
    return {
        "vm.interp.dispatch_calls_per_kinstr":
            _ratio(fold.calls["vm.interp"], kinstr),
        "vm.jit.coverage": _ratio(tally.jit_instr, tally.jit_base_instr),
        "vm.jit.side_exits_per_kentry":
            _ratio(tally.jit_side_exits, tally.jit_entries / 1000.0),
        "machine.charging.calls_per_instr":
            _ratio(fold.calls["machine.charging"], instr),
        "hw.clock.advances_per_kinstr":
            _ratio(fold.ncalls("repro.hw.clock:advance"), kinstr),
        "machine.idle.polls_per_request":
            _ratio(fold.edge_calls(TRY_RECV, WAIT), tally.tx),
        "hw.calls_per_instr": _ratio(fold.calls["hw"], instr),
        "determinism.draws_per_kinstr":
            _ratio(fold.ncalls("repro.determinism:next_u64"), kinstr),
        "core.session.calls_per_instr":
            _ratio(fold.calls["core.session"], instr),
        "core.log.bytes_per_request": _ratio(tally.log_bytes, tally.play_tx),
        "core.replay_cache.hit_ratio":
            _ratio(tally.cache_hits, tally.cache_hits + tally.cache_misses),
        "core.segments.replays_per_verdict":
            _ratio(tally.replays, tally.verdicts),
        "service.killed_in_flight": tally.killed_in_flight,
        "service.requeued": tally.requeued,
        "service.steals": tally.steals,
        "sim.gcycles": tally.cycles / 1e9,
        "sim.minstr": instr / 1e6,
        "sim.log_bytes": tally.log_bytes,
    }


#: Metric name -> unit, in report order (must match BENCHMARK.json).
PER_LAYER_UNITS = {f"{layer}.self_frac": "ratio" for layer in LAYERS}
PER_LAYER_UNITS.update({
    "trace.self_sum_frac": "ratio",
    "trace.overhead": "x",
    "vm.interp.dispatch_calls_per_kinstr": "calls/kinstr",
    "vm.jit.coverage": "ratio",
    "vm.jit.side_exits_per_kentry": "exits/kentry",
    "vm.jit.compile_s": "s",
    "machine.charging.calls_per_instr": "calls/instr",
    "hw.clock.advances_per_kinstr": "calls/kinstr",
    "machine.idle.incl_frac": "ratio",
    "machine.idle.polls_per_request": "polls/request",
    "hw.calls_per_instr": "calls/instr",
    "determinism.draws_per_kinstr": "draws/kinstr",
    "core.session.calls_per_instr": "calls/instr",
    "core.log.encode_s": "s",
    "core.log.decode_s": "s",
    "core.log.bytes_per_request": "bytes/request",
    "core.audit.compare_s": "s",
    "core.replay_cache.hit_ratio": "ratio",
    "core.segments.replays_per_verdict": "replays/verdict",
    "service.killed_in_flight": "count",
    "service.requeued": "count",
    "service.steals": "count",
    "analysis.parallel.wait_frac": "ratio",
    "lang.compile_s": "s",
    "sim.gcycles": "Gcycles",
    "sim.minstr": "Minstr",
    "sim.log_bytes": "bytes",
})


def layer_metrics(fold: Fold, tally, setup: Fold, pool_wait_frac: float,
                  overhead: float) -> dict[str, tuple[float, str]]:
    values = {f"{layer}.self_frac": fold.frac(layer) for layer in LAYERS}
    values["trace.self_sum_frac"] = sum(values.values())
    values.update(exact_counters(fold, tally))
    values.update({
        "trace.overhead": overhead,
        "vm.jit.compile_s": setup.cum_s("repro.vm.tracejit:_build_region"),
        "machine.idle.incl_frac": _ratio(fold.cum_s(WAIT), fold.total_s),
        "core.log.encode_s": fold.cum_s("repro.core.log:to_bytes"),
        "core.log.decode_s": fold.cum_s("repro.core.log:parse_prefix"),
        "core.audit.compare_s":
            fold.cum_s("repro.core.audit:compare_traces")
            + fold.cum_s("repro.core.audit:compare_trace_prefix"),
        "analysis.parallel.wait_frac": pool_wait_frac,
        "lang.compile_s": setup.cum_s("repro.lang.compiler:compile_minij"),
    })
    return {name: (values[name], unit)
            for name, unit in PER_LAYER_UNITS.items()}
