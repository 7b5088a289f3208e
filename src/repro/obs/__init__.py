"""Observability for the TDR pipeline: metrics, ledger, tracing, profiling.

The package turns the simulator's one opaque cycle counter into an
inspectable accounting system:

* :mod:`repro.obs.metrics` — zero-dependency Counter/Gauge/Histogram
  registry with a process-global default and a null no-op implementation;
* :mod:`repro.obs.ledger` — the **cycle-attribution ledger**: every
  ``VirtualClock.advance`` is tagged with the hardware source that caused
  it, and per-source totals always sum to the clock (a programmatic
  Table 1);
* :mod:`repro.obs.tracer` — span tracing in the virtual cycle domain with
  NDJSON and Chrome trace-event export;
* :mod:`repro.obs.sampling` — sampled opcode histograms from the
  interpreter hot loop;
* :mod:`repro.obs.profiler` — the cycle-exact stack profiler: guest call
  stacks captured at platform polls and at trace-JIT block boundaries,
  ledger-delta attribution (per-source frame totals sum exactly to the
  ledger), folded-stack + SVG flame-graph export;
* :mod:`repro.obs.forensics` — play-vs-replay profile diffing: first
  divergent (function, pc, source) frame and a differential flame view;
* :mod:`repro.obs.flight` — the divergence flight recorder: last-N events
  and per-source cycle deltas when play and replay disagree;
* :mod:`repro.obs.snapshot` — picklable :class:`ObsSnapshot` images of a
  worker's observability and their order-deterministic fleet merge;
* :mod:`repro.obs.runstore` — the persistent, content-addressed run
  store (one directory of JSON artifacts per experiment run);
* :mod:`repro.obs.report` — text and zero-dependency HTML/SVG rendering
  of stored runs.

Everything here observes and never perturbs: enabling any collector
leaves cycle counts bit-identical to an uninstrumented run, and with
observability disabled (the default) the added overhead is a handful of
``is None`` checks.

Usage::

    from repro import round_trip
    from repro.obs import Observability, format_attribution_table

    obs = Observability()      # ledger + opcode sampling + tracer
    outcome = round_trip(program, config, workload=workload, obs=obs)
    print(format_attribution_table(outcome.play.ledger,
                                   outcome.play.total_cycles))
    obs.tracer.write_chrome_trace("tdr-trace.json")
"""

from __future__ import annotations

from repro.obs.dist import (DistTracer, SLOReport, SLOSpec, SpanRecord,
                            derive_trace_id, evaluate_slo)
from repro.obs.flight import (DivergenceRecord, capture_divergence,
                              flights_from_ndjson, flights_to_ndjson)
from repro.obs.ledger import (KNOWN_SOURCES, MITIGATED_SOURCES, CycleLedger,
                              Source, format_attribution_table,
                              format_process_table)
from repro.obs.metrics import (NULL_REGISTRY, Counter, Gauge, Histogram,
                               MetricsRegistry, NullRegistry, enable_metrics,
                               get_registry, labeled, set_registry)
from repro.obs.forensics import (diff_lines, diff_profiles,
                                 first_divergence, render_flame_diff_svg)
from repro.obs.profiler import (RUNTIME_FRAME, CycleProfiler, folded_lines,
                                profile_lines, render_flame_svg,
                                write_flame_svg)
from repro.obs.sampling import OpcodeSampler
from repro.obs.snapshot import (EMPTY_OBS_SNAPSHOT, FleetObservations,
                                ObsSnapshot, TraceSummary, summarize_tracer)
from repro.obs.runstore import RunRecord, RunStore, SCHEMA_VERSION
from repro.obs.tracer import SpanTracer

__all__ = [
    "Counter", "CycleLedger", "CycleProfiler", "DistTracer",
    "DivergenceRecord", "EMPTY_OBS_SNAPSHOT", "FleetObservations",
    "Gauge", "Histogram", "KNOWN_SOURCES", "MITIGATED_SOURCES",
    "MetricsRegistry", "NULL_REGISTRY", "NullRegistry", "ObsSnapshot",
    "Observability", "OpcodeSampler", "RUNTIME_FRAME", "RunRecord",
    "RunStore", "SCHEMA_VERSION", "SLOReport", "SLOSpec", "Source",
    "SpanRecord", "SpanTracer", "TraceSummary", "capture_divergence",
    "default_observability", "derive_trace_id", "diff_lines",
    "diff_profiles", "enable_metrics", "evaluate_slo",
    "first_divergence", "flights_from_ndjson", "flights_to_ndjson",
    "folded_lines", "format_attribution_table", "format_process_table",
    "get_registry",
    "labeled", "profile_lines", "render_flame_diff_svg",
    "render_flame_svg", "set_registry", "summarize_tracer",
    "write_flame_svg",
]


class Observability:
    """Bundle of observability settings handed to machines and pipelines.

    Pass one instance through :func:`repro.core.tdr.round_trip` (or any
    ``play``/``replay``/audit entry point) to observe a whole pipeline:
    each machine run gets its own :class:`CycleLedger` and
    :class:`OpcodeSampler` (snapshotted onto its ``ExecutionResult``),
    while the :class:`SpanTracer` and metrics registry are shared so the
    runs land on one timeline and one instrument set.

    ``Observability()`` enables the ledger, the sampler, a tracer, and a
    recording registry.  Disable pieces with the keyword flags; machines
    built with ``obs=None`` (the default everywhere) skip all of it.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 tracer: SpanTracer | None = None, *,
                 ledger: bool = True, sample_opcodes: bool = True,
                 trace: bool = True, flight_n: int = 16,
                 profile: bool = False, profile_stride: int = 4,
                 profile_jit_stride: int = 16) -> None:
        from repro.errors import ObservabilityError

        if profile and not ledger:
            raise ObservabilityError(
                "the cycle profiler attributes ledger deltas; "
                "profile=True requires ledger=True")
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.tracer = tracer if tracer is not None \
            else (SpanTracer() if trace else None)
        self.ledger_enabled = ledger
        self.sample_opcodes = sample_opcodes
        #: Transmissions kept per side by the divergence flight recorder.
        self.flight_n = flight_n
        #: Cycle-exact stack profiler (off by default: stack capture is
        #: the one collector with real per-poll cost).
        self.profile_enabled = profile
        self.profile_stride = profile_stride
        self.profile_jit_stride = profile_jit_stride


def default_observability() -> Observability:
    """A fully enabled bundle wired to the process-global registry."""
    return Observability(registry=enable_metrics())
