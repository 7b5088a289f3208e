"""Deterministic distributed tracing and latency SLOs for the fleet.

The single-VM observability layer answers "where did virtual time go
inside one machine run"; this module answers the same question for the
*verifier fleet*: where did a session's virtual time go between landing
at the ingest tier and ending in a verdict, across queues, nodes,
steals, crashes, and rebalances.

Three layers, all derived purely from virtual time and content:

* **Spans** — every (tenant, epoch) session gets a content-derived
  ``trace_id`` (a hash of seed/tenant/epoch, so identical runs produce
  identical ids) and a causally-linked span tree recorded by the
  :class:`DistTracer`: the ``session`` root on the fleet track, then per
  job a ``queue-wait`` span and an ``audit:{kind}`` span on the owning
  node's track.  A node crash closes the orphaned audit span with
  status ``killed``; when the rebalance redelivers the job, its next
  queue-wait span is *re-parented onto the killed span* (attribute
  ``reparented_from``), so the whole at-least-once story is one
  connected tree ending in a verdict.
* **Latency observations** — queue wait, audit service time, and
  time-to-verdict (completion minus the session's first segment
  arrival), attributed per tenant *and* per node, in virtual ms.
* **SLOs** — a declarative :class:`SLOSpec` (``p99_verdict_ms=400,
  max_unaudited=0.1``) evaluated against the recorded series with
  per-window error-budget burn rates — all in virtual time, so an SLO
  verdict is as deterministic as the audit verdicts themselves.

Export paths: a merged Chrome-trace (one track per node, chaos instants
as markers, complete-``X`` span events so overlapping worker spans never
unbalance), a structured NDJSON event log, and a :meth:`summary` figure
payload the run store and the fleet dashboard page render.

Everything here observes and never perturbs: the tracer reads virtual
timestamps handed to it by the fleet event loop and touches no clock,
RNG, or simulated state, so nothing it records feeds back into a
verdict, and the exports are bit-identical across reruns and ``--jobs``
settings because every record is made from the deterministic
coordinator loop.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from repro.errors import ObservabilityError

__all__ = ["DistTracer", "SLOReport", "SLOSpec", "SpanRecord",
           "derive_trace_id", "evaluate_slo", "nearest_rank"]

#: The fleet coordination track (ingest, session roots, fleet instants).
FLEET_TRACK = "fleet"

#: Span statuses a span can close with.
STATUS_OK = "ok"
STATUS_KILLED = "killed"
STATUS_DUPLICATE = "duplicate"
STATUS_UNAUDITED = "unaudited"


def derive_trace_id(seed: int, tenant_id: str, epoch: int) -> str:
    """Content-derived trace id: identical runs name sessions identically."""
    payload = f"tdr-trace:{seed}:{tenant_id}:{epoch}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty list."""
    if not values:
        raise ObservabilityError("percentile of an empty series")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class SpanRecord:
    """One closed (or still-open) span in the fleet trace."""

    span_id: int
    parent_id: int | None
    trace_id: str
    name: str
    category: str
    track: str                    #: node id, or ``FLEET_TRACK``
    tenant_id: str
    epoch: int
    start_ms: float
    end_ms: float | None = None
    status: str = "open"
    attrs: dict = field(default_factory=dict)
    seq: int = 0                  #: record-order tiebreak for export sorts

    def to_json_dict(self) -> dict:
        return {"kind": "span", "span_id": self.span_id,
                "parent_id": self.parent_id, "trace_id": self.trace_id,
                "name": self.name, "category": self.category,
                "track": self.track, "tenant_id": self.tenant_id,
                "epoch": self.epoch, "start_ms": round(self.start_ms, 3),
                "end_ms": (round(self.end_ms, 3)
                           if self.end_ms is not None else None),
                "status": self.status, "attrs": dict(self.attrs)}


class DistTracer:
    """Deterministic span/latency recorder for one fleet run.

    The fleet event loop is the only writer, and it runs in one process
    in virtual-event order regardless of ``--jobs`` — so span ids,
    record order, and therefore every export are pure functions of
    (seed, roster, topology, chaos plan).
    """

    #: Latency metrics recorded per audit event.
    METRICS = ("queue_wait_ms", "service_ms", "verdict_ms")

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.spans: list[SpanRecord] = []
        self.instants: list[dict] = []
        self._tracks: dict[str, int] = {FLEET_TRACK: 1}
        self._next_span = 1
        self._seq = 0
        #: (tenant, epoch) -> session bookkeeping.
        self._sessions: dict[tuple, dict] = {}
        #: job session_key -> open audit SpanRecord.
        self._open_audit: dict[tuple, SpanRecord] = {}
        #: job session_key -> last closed audit span id (escalation links).
        self._last_span: dict[tuple, int] = {}
        #: job session_key -> killed span id awaiting re-parent on redeliver.
        self._reparent: dict[tuple, SpanRecord] = {}
        #: (metric, tenant, node) -> [(ts_ms, value_ms), ...]
        self._obs: dict[tuple, list[tuple[float, float]]] = {}
        #: track -> [(ts_ms, depth), ...]
        self._queue_depth: dict[str, list[tuple[float, int]]] = {}
        self.killed_spans = 0
        self.reparented = 0

    # -- tracks and sessions ----------------------------------------------

    def register_track(self, track: str) -> int:
        """Assign the next tid to ``track`` (idempotent, order-stable)."""
        if track not in self._tracks:
            self._tracks[track] = len(self._tracks) + 1
        return self._tracks[track]

    def session_start(self, tenant_id: str, epoch: int,
                      ts_ms: float) -> dict:
        """Open the session root span at its first segment arrival."""
        key = (tenant_id, epoch)
        session = self._sessions.get(key)
        if session is None:
            trace_id = derive_trace_id(self.seed, tenant_id, epoch)
            root = self._open(
                f"session:{tenant_id}@e{epoch}", FLEET_TRACK, ts_ms,
                trace_id=trace_id, parent_id=None, tenant_id=tenant_id,
                epoch=epoch, category="session")
            session = {"trace_id": trace_id, "root": root,
                       "start_ms": ts_ms}
            self._sessions[key] = session
        return session

    def session_close(self, tenant_id: str, epoch: int, end_ms: float,
                      status: str) -> None:
        """Close a session root (idempotent — the report may retry)."""
        session = self._sessions.get((tenant_id, epoch))
        if session is None or session["root"].end_ms is not None:
            return
        self._close(session["root"], end_ms, status)

    # -- span plumbing -----------------------------------------------------

    def _open(self, name: str, track: str, start_ms: float, *,
              trace_id: str, parent_id: int | None, tenant_id: str,
              epoch: int, category: str, **attrs) -> SpanRecord:
        self.register_track(track)
        span = SpanRecord(
            span_id=self._next_span, parent_id=parent_id,
            trace_id=trace_id, name=name, category=category, track=track,
            tenant_id=tenant_id, epoch=epoch, start_ms=start_ms,
            attrs=dict(attrs), seq=self._seq)
        self._next_span += 1
        self._seq += 1
        self.spans.append(span)
        return span

    def _close(self, span: SpanRecord, end_ms: float, status: str,
               **attrs) -> None:
        if span.end_ms is not None:
            raise ObservabilityError(
                f"span {span.span_id} ({span.name}) closed twice")
        span.end_ms = max(end_ms, span.start_ms)
        span.status = status
        if attrs:
            span.attrs.update(attrs)

    def instant(self, name: str, track: str, ts_ms: float,
                category: str = "event", **attrs) -> None:
        self.register_track(track)
        self.instants.append({"name": name, "track": track,
                              "ts_ms": ts_ms, "category": category,
                              "attrs": dict(attrs), "seq": self._seq})
        self._seq += 1

    # -- the fleet job lifecycle -------------------------------------------

    def job_dispatched(self, job, node_id: str) -> None:
        """Record the queue-wait span and open the audit span for a job.

        Causal parent rules:

        * a redelivered job (its identity was killed with a node)
          re-parents onto the *killed* audit span, with
          ``reparented_from`` naming the dead node;
        * an escalation (``cause="spot-anomaly:X"``) parents onto the
          spot-check span that raised the anomaly;
        * everything else parents onto the session root.
        """
        key = job.session_key
        session = self.session_start(job.tenant_id, job.epoch,
                                     job.ready_ms)
        parent_id = session["root"].span_id
        reparent_attrs: dict = {}
        killed = self._reparent.pop(key, None)
        if killed is not None:
            parent_id = killed.span_id
            reparent_attrs["reparented_from"] = killed.track
            self.reparented += 1
        elif job.cause.startswith("spot-anomaly:"):
            spot_key = (job.tenant_id, job.epoch, "spot",
                        job.cause[len("spot-anomaly:"):])
            parent_id = self._last_span.get(spot_key, parent_id)

        wait = self._open(
            "queue-wait", node_id, job.ready_ms,
            trace_id=session["trace_id"], parent_id=parent_id,
            tenant_id=job.tenant_id, epoch=job.epoch, category="queue",
            kind=job.kind, cause=job.cause, **reparent_attrs)
        self._close(wait, job.start_ms, STATUS_OK)
        audit = self._open(
            f"audit:{job.kind}", node_id, job.start_ms,
            trace_id=session["trace_id"], parent_id=wait.span_id,
            tenant_id=job.tenant_id, epoch=job.epoch, category="audit",
            kind=job.kind, cause=job.cause, worker=job.worker,
            **reparent_attrs)
        self._open_audit[key] = audit

    def job_killed(self, job, node_id: str, at_ms: float) -> None:
        """Close the in-flight audit span of a job that died with its node
        and arm the re-parent for its redelivery."""
        span = self._open_audit.pop(job.session_key, None)
        if span is None:
            return
        self._close(span, at_ms, STATUS_KILLED, killed_on=node_id)
        self._last_span[job.session_key] = span.span_id
        self._reparent[job.session_key] = span
        self.killed_spans += 1

    def job_completed(self, job, node_id: str, event) -> None:
        """Close the audit span with its verdict and record latencies."""
        key = job.session_key
        span = self._open_audit.pop(key, None)
        session = self._sessions.get((job.tenant_id, job.epoch))
        if span is not None:
            self._close(span, job.completion_ms, STATUS_OK,
                        classification=event.classification.value,
                        tenant_status=event.tenant_status)
            self._last_span[key] = span.span_id
        self.instant(f"verdict:{event.classification.value}", node_id,
                     job.completion_ms, category="verdict",
                     tenant=job.tenant_id, epoch=job.epoch, kind=job.kind)
        verdict_ms = job.completion_ms - (session["start_ms"] if session
                                          else job.ready_ms)
        self.observe("queue_wait_ms", job.queue_latency_ms,
                     job.start_ms, tenant=job.tenant_id, node=node_id)
        self.observe("service_ms", job.service_ms, job.completion_ms,
                     tenant=job.tenant_id, node=node_id)
        self.observe("verdict_ms", verdict_ms, job.completion_ms,
                     tenant=job.tenant_id, node=node_id)

    def job_deduped(self, job, node_id: str) -> None:
        """Close a redelivered job's span whose verdict already landed."""
        span = self._open_audit.pop(job.session_key, None)
        if span is not None:
            self._close(span, job.completion_ms, STATUS_DUPLICATE)
        self.instant("dedup", node_id, job.completion_ms,
                     category="verdict", tenant=job.tenant_id,
                     epoch=job.epoch)

    def steal_hop(self, job, victim: str, thief: str,
                  ts_ms: float) -> None:
        self.instant(f"steal:{victim}->{thief}", thief, ts_ms,
                     category="steal", tenant=job.tenant_id,
                     epoch=job.epoch, kind=job.kind)

    # -- latency + queue depth ---------------------------------------------

    def observe(self, metric: str, value_ms: float, ts_ms: float,
                tenant: str = "", node: str = "") -> None:
        self._obs.setdefault((metric, tenant, node), []).append(
            (ts_ms, value_ms))

    def sample_queue_depth(self, track: str, ts_ms: float,
                           depth: int) -> None:
        samples = self._queue_depth.setdefault(track, [])
        if samples and samples[-1][0] == ts_ms:
            samples[-1] = (ts_ms, depth)
        elif not samples or samples[-1][1] != depth:
            samples.append((ts_ms, depth))

    def series(self, metric: str, tenant: str | None = None,
               node: str | None = None) -> list[tuple[float, float]]:
        """Timestamped observations matching the tenant/node filters."""
        out = []
        for (name, obs_tenant, obs_node), values in self._obs.items():
            if name != metric:
                continue
            if tenant is not None and obs_tenant != tenant:
                continue
            if node is not None and obs_node != node:
                continue
            out.extend(values)
        out.sort()
        return out

    # -- summaries ---------------------------------------------------------

    @staticmethod
    def _stats(values: list[float]) -> dict:
        return {"count": len(values),
                "mean": round(sum(values) / len(values), 3),
                "p50": round(nearest_rank(values, 0.50), 3),
                "p95": round(nearest_rank(values, 0.95), 3),
                "p99": round(nearest_rank(values, 0.99), 3),
                "max": round(max(values), 3)}

    def summary(self) -> dict:
        """The JSON figure payload for the run store and dashboard."""
        tenants = sorted({t for _, t, _ in self._obs if t})
        nodes = sorted({n for _, _, n in self._obs if n})
        latency: dict = {}
        for metric in self.METRICS:
            values = [v for _, v in self.series(metric)]
            if not values:
                continue
            entry = {"all": self._stats(values), "by_tenant": {},
                     "by_node": {}}
            for tenant in tenants:
                sub = [v for _, v in self.series(metric, tenant=tenant)]
                if sub:
                    entry["by_tenant"][tenant] = self._stats(sub)
            for node in nodes:
                sub = [v for _, v in self.series(metric, node=node)]
                if sub:
                    entry["by_node"][node] = self._stats(sub)
            latency[metric] = entry
        cells = []
        for tenant in tenants:
            for node in nodes:
                values = [v for _, v in self.series(
                    "verdict_ms", tenant=tenant, node=node)]
                if values:
                    cells.append([tenant, node, len(values),
                                  round(sum(values) / len(values), 3),
                                  round(max(values), 3)])
        markers: dict[str, list] = {}
        for instant in self.instants:
            if instant["category"] in ("chaos", "detector", "steal",
                                       "fleet"):
                markers.setdefault(instant["track"], []).append(
                    [round(instant["ts_ms"], 3), instant["name"]])
        sessions_closed: dict[str, int] = {}
        for session in self._sessions.values():
            sessions_closed[session["root"].status] = \
                sessions_closed.get(session["root"].status, 0) + 1
        return {
            "tracks": sorted(self._tracks, key=self._tracks.get),
            "sessions": {"total": len(self._sessions),
                         "by_status": sessions_closed},
            "spans": {"total": len(self.spans),
                      "killed": self.killed_spans,
                      "reparented": self.reparented},
            "latency": latency,
            "heatmap": {"metric": "verdict_ms", "tenants": tenants,
                        "nodes": nodes, "cells": cells},
            "verdict_series": [[round(ts, 3), round(v, 3)]
                               for ts, v in self.series("verdict_ms")],
            "queue_series": [[round(ts, 3), round(v, 3)]
                             for ts, v in self.series("queue_wait_ms")],
            "queue_depth": {track: [[round(ts, 3), depth]
                                    for ts, depth in samples]
                            for track, samples
                            in sorted(self._queue_depth.items())},
            "markers": {track: rows
                        for track, rows in sorted(markers.items())},
        }

    # -- exports -----------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """Merged Chrome trace: one track per node, chaos as instants."""
        events: list[tuple[float, int, dict]] = []
        for track, tid in sorted(self._tracks.items(),
                                 key=lambda kv: kv[1]):
            events.append((-1.0, tid, {
                "ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                "ts": 0.0, "args": {"name": track}}))
        for span in self.spans:
            end = span.end_ms if span.end_ms is not None else span.start_ms
            args = {"trace_id": span.trace_id, "span_id": span.span_id,
                    "parent_id": span.parent_id, "status": span.status,
                    "tenant": span.tenant_id, "epoch": span.epoch}
            args.update(span.attrs)
            events.append((span.start_ms, span.seq, {
                "ph": "X", "name": span.name, "cat": span.category,
                "pid": 1, "tid": self._tracks[span.track],
                "ts": round(span.start_ms * 1e3, 3),
                "dur": round((end - span.start_ms) * 1e3, 3),
                "args": args}))
        for instant in self.instants:
            args = {"tenant": instant["attrs"].get("tenant", "")}
            args.update(instant["attrs"])
            events.append((instant["ts_ms"], instant["seq"], {
                "ph": "i", "name": instant["name"],
                "cat": instant["category"], "pid": 1,
                "tid": self._tracks[instant["track"]],
                "ts": round(instant["ts_ms"] * 1e3, 3), "s": "t",
                "args": args}))
        for track, samples in sorted(self._queue_depth.items()):
            tid = self._tracks[track]
            for ts, depth in samples:
                events.append((ts, self._seq + tid, {
                    "ph": "C", "name": f"queue:{track}", "pid": 1,
                    "tid": tid, "ts": round(ts * 1e3, 3),
                    "args": {"depth": depth}}))
        events.sort(key=lambda item: (item[0], item[1]))
        return {"traceEvents": [event for _, _, event in events],
                "displayTimeUnit": "ms",
                "otherData": {"domain": "virtual-ms",
                              "producer": "repro.obs.dist",
                              "seed": self.seed}}

    def write_chrome_trace(self, path: str) -> None:
        """Byte-deterministic Chrome trace file (sorted keys, no stamp)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh, sort_keys=True)

    def to_ndjson(self) -> str:
        """The structured event log: spans then instants, record order."""
        records = [span.to_json_dict() for span in self.spans]
        records += [{"kind": "instant", "name": i["name"],
                     "track": i["track"], "ts_ms": round(i["ts_ms"], 3),
                     "category": i["category"], "attrs": i["attrs"]}
                    for i in self.instants]
        return "\n".join(json.dumps(record, sort_keys=True)
                         for record in records) + ("\n" if records else "")

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)


# --------------------------------------------------------------------------
# SLOs.
# --------------------------------------------------------------------------

#: SLO spec keys -> (metric series, percentile) for latency objectives.
_LATENCY_OBJECTIVES = {
    "p50_verdict_ms": ("verdict_series", 0.50),
    "p95_verdict_ms": ("verdict_series", 0.95),
    "p99_verdict_ms": ("verdict_series", 0.99),
    "p99_queue_ms": ("queue_series", 0.99),
}


@dataclass(frozen=True)
class SLOSpec:
    """A declarative latency/coverage objective set, in virtual time.

    Parsed from the inline grammar ``key=value,key=value`` — e.g.
    ``p99_verdict_ms=400,max_unaudited=0.1``.  Latency keys bound a
    nearest-rank percentile of a virtual-time series; ``max_unaudited``
    bounds the fraction of ingested sessions that ended without a
    verdict.
    """

    p50_verdict_ms: float | None = None
    p95_verdict_ms: float | None = None
    p99_verdict_ms: float | None = None
    p99_queue_ms: float | None = None
    max_unaudited: float | None = None

    _KEYS = ("p50_verdict_ms", "p95_verdict_ms", "p99_verdict_ms",
             "p99_queue_ms", "max_unaudited")

    @classmethod
    def parse(cls, text: str) -> "SLOSpec":
        values: dict[str, float] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep:
                raise ObservabilityError(
                    f"SLO clause '{part}' is not key=value")
            if key not in cls._KEYS:
                raise ObservabilityError(
                    f"unknown SLO key '{key}' (known: "
                    f"{', '.join(cls._KEYS)})")
            try:
                value = float(raw)
            except ValueError:
                raise ObservabilityError(
                    f"SLO value for '{key}' is not a number: '{raw}'")
            if value < 0:
                raise ObservabilityError(
                    f"SLO value for '{key}' must be >= 0, got {value}")
            values[key] = value
        if not values:
            raise ObservabilityError(f"empty SLO spec '{text}'")
        return cls(**values)

    def objectives(self) -> list[tuple[str, float]]:
        return [(key, getattr(self, key)) for key in self._KEYS
                if getattr(self, key) is not None]

    @property
    def spec(self) -> str:
        return ",".join(f"{key}={value:g}"
                        for key, value in self.objectives())


@dataclass
class SLOReport:
    """The outcome of evaluating one :class:`SLOSpec` against a run."""

    spec: str
    horizon_ms: float
    windows: int
    objectives: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(objective["ok"] for objective in self.objectives)

    @property
    def breached(self) -> list[str]:
        return [o["name"] for o in self.objectives if not o["ok"]]

    def to_json_dict(self) -> dict:
        return {"spec": self.spec, "ok": self.ok,
                "horizon_ms": round(self.horizon_ms, 3),
                "windows": self.windows,
                "objectives": [dict(o) for o in self.objectives]}

    def render_lines(self) -> list[str]:
        lines = [f"SLO {self.spec} over {self.horizon_ms:.1f} virtual ms "
                 f"({self.windows} burn windows): "
                 + ("OK" if self.ok else "BREACH")]
        for objective in self.objectives:
            burn = objective.get("burn_rates")
            burn_text = ("" if not burn else "  burn "
                         + "/".join(f"{b:.1f}" for b in burn))
            lines.append(
                f"  {objective['name']:16s} target {objective['target']:g}"
                f"  actual {objective['actual']:g}  "
                f"{'ok' if objective['ok'] else 'BREACH'}{burn_text}")
        return lines


def _burn_rates(series: list[list[float]], target: float,
                allowed: float, horizon_ms: float,
                windows: int) -> list[float]:
    """Error-budget burn rate per virtual-time window.

    Burn = (fraction of events in the window breaching the target) /
    (fraction the objective allows); 1.0 burns the budget exactly at
    the objective's rate, >1 exhausts it early.
    """
    if horizon_ms <= 0 or not series:
        return [0.0] * windows
    width = horizon_ms / windows
    rates = []
    for window in range(windows):
        lo, hi = window * width, (window + 1) * width
        inside = [value for ts, value in series
                  if lo <= ts < hi or (window == windows - 1 and ts == hi)]
        if not inside:
            rates.append(0.0)
            continue
        breaching = sum(1 for value in inside if value > target)
        rates.append(round(breaching / len(inside) / allowed, 2))
    return rates


def evaluate_slo(spec: SLOSpec, fleet_obs: dict, *,
                 sessions_total: int, unaudited: int,
                 horizon_ms: float, windows: int = 4) -> SLOReport:
    """Evaluate ``spec`` against a fleet run's observability summary.

    ``fleet_obs`` is the :meth:`DistTracer.summary` payload (live or
    loaded back from a stored run's figures).  Latency objectives use
    nearest-rank percentiles over the full virtual horizon, plus
    per-window burn rates; ``max_unaudited`` compares the unaudited
    session fraction.  Deterministic: same run, same verdict.
    """
    report = SLOReport(spec=spec.spec, horizon_ms=horizon_ms,
                       windows=windows)
    for name, target in spec.objectives():
        if name == "max_unaudited":
            actual = (unaudited / sessions_total if sessions_total
                      else 0.0)
            report.objectives.append({
                "name": name, "target": target,
                "actual": round(actual, 4), "ok": actual <= target,
                "detail": f"{unaudited}/{sessions_total} sessions "
                          f"unaudited"})
            continue
        series_key, quantile = _LATENCY_OBJECTIVES[name]
        series = fleet_obs.get(series_key, [])
        values = [value for _, value in series]
        if not values:
            report.objectives.append({
                "name": name, "target": target, "actual": 0.0,
                "ok": True, "detail": "no observations"})
            continue
        actual = nearest_rank(values, quantile)
        allowed = max(1.0 - quantile, 1e-9)
        report.objectives.append({
            "name": name, "target": target, "actual": round(actual, 3),
            "ok": actual <= target,
            "burn_rates": _burn_rates(series, target, allowed,
                                      horizon_ms, windows),
            "detail": f"{len(values)} observations"})
    return report
