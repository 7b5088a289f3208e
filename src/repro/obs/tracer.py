"""Span tracing in the virtual cycle domain.

A :class:`SpanTracer` records begin/end spans and instant events whose
timestamps come from the *virtual* clock of whichever machine is bound to
it — the trace shows where virtual time went, not where host time went.
Two export formats:

* **NDJSON** — one JSON object per line, for ad-hoc ``jq`` analysis;
* **Chrome trace-event JSON** — loadable in ``chrome://tracing`` /
  Perfetto.  Each bound machine run gets its own named track (``tid``),
  so a play/replay round trip renders as two aligned timelines whose
  divergence is visible at a glance.

The tracer is an observer: it reads the clock but never advances it, so
tracing on/off leaves cycle counts bit-identical.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Callable

from repro.errors import ObservabilityError

#: Timestamp source: current virtual time in nanoseconds.
TimeFn = Callable[[], float]


def _zero_time() -> float:
    return 0.0


class SpanTracer:
    """Collects trace events against a rebindable virtual-time source."""

    def __init__(self, time_fn: TimeFn | None = None) -> None:
        self._time_fn: TimeFn = time_fn or _zero_time
        self.events: list[dict] = []
        self._tracks: dict[str, int] = {}
        self._current_tid = 1
        self._open_spans: list[str] = []

    # -- time & track binding ------------------------------------------------

    def bind(self, time_fn: TimeFn, track: str = "main") -> None:
        """Use ``time_fn`` as the clock and ``track`` as the event lane.

        Machines call this once at construction; a round trip binds the
        tracer twice (play, then replay), producing two tracks on one
        timeline.
        """
        self._time_fn = time_fn
        if track not in self._tracks:
            tid = len(self._tracks) + 1
            self._tracks[track] = tid
            self.events.append({"ph": "M", "name": "thread_name", "pid": 1,
                                "tid": tid, "ts": self._time_fn() / 1e3,
                                "args": {"name": track}})
        self._current_tid = self._tracks[track]

    def now_us(self) -> float:
        """Current virtual time in microseconds (Chrome's ``ts`` unit)."""
        return self._time_fn() / 1e3

    # -- event recording -------------------------------------------------------

    def begin(self, name: str, category: str = "phase", **args) -> None:
        self._open_spans.append(name)
        event = {"ph": "B", "name": name, "cat": category, "pid": 1,
                 "tid": self._current_tid, "ts": self.now_us()}
        if args:
            event["args"] = args
        self.events.append(event)

    def end(self, name: str, **args) -> None:
        if not self._open_spans or self._open_spans[-1] != name:
            raise ObservabilityError(
                f"span end '{name}' does not match open span "
                f"{self._open_spans[-1] if self._open_spans else None!r}")
        self._open_spans.pop()
        event = {"ph": "E", "name": name, "pid": 1,
                 "tid": self._current_tid, "ts": self.now_us()}
        if args:
            event["args"] = args
        self.events.append(event)

    def instant(self, name: str, category: str = "event", **args) -> None:
        event = {"ph": "i", "name": name, "cat": category, "pid": 1,
                 "tid": self._current_tid, "ts": self.now_us(), "s": "t"}
        if args:
            event["args"] = args
        self.events.append(event)

    @contextmanager
    def span(self, name: str, category: str = "phase", **args):
        """``with tracer.span("vm.execute"): ...`` — balanced begin/end."""
        self.begin(name, category, **args)
        try:
            yield self
        finally:
            self.end(name)

    # -- export -----------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """The ``chrome://tracing`` / Perfetto JSON object."""
        return {"traceEvents": list(self.events),
                "displayTimeUnit": "ms",
                "otherData": {"domain": "virtual-cycles",
                              "producer": "repro.obs"}}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh)

    def to_ndjson(self) -> str:
        return "\n".join(json.dumps(event, sort_keys=True)
                         for event in self.events) + ("\n" if self.events
                                                      else "")

    @classmethod
    def from_ndjson(cls, text: str) -> "SpanTracer":
        """Rebuild a tracer from its NDJSON export.

        The round trip is lossless for reporting purposes:
        ``SpanTracer.from_ndjson(t.to_ndjson()).to_ndjson()`` is
        byte-identical to ``t.to_ndjson()`` (events are re-serialized
        with the same sorted-key encoder).  The rebuilt tracer is a
        *record*, not a live collector — its clock is unbound and its
        track map is reconstructed from the metadata events.
        """
        tracer = cls()
        tracer.events = [json.loads(line)
                         for line in text.splitlines() if line.strip()]
        for event in tracer.events:
            if event.get("ph") == "M" and event.get("name") == "thread_name":
                tracer._tracks[event["args"]["name"]] = event["tid"]
        if tracer._tracks:
            tracer._current_tid = max(tracer._tracks.values())
        return tracer

    def __len__(self) -> int:
        return len(self.events)
