"""Zero-dependency metrics: counters, gauges, histograms, registries.

The simulator is grown toward a service that runs many audits per second,
so its instrumentation follows the shape of a production metrics stack —
a :class:`MetricsRegistry` of named :class:`Counter` / :class:`Gauge` /
:class:`Histogram` instruments with a Prometheus-style text exposition —
without taking any dependency.

Two properties matter more than features:

* **Disabled overhead is ~zero.**  The process-global default registry is
  a :class:`NullRegistry` whose instruments are shared no-op singletons,
  so ``get_registry().counter("x").inc()`` on an un-instrumented process
  is two attribute lookups and an empty method call.  Call
  :func:`enable_metrics` (or :func:`set_registry`) to start collecting.
* **Observation never perturbs the observed.**  No instrument touches the
  virtual clock, any RNG, or any simulated state; enabling metrics must
  leave cycle counts bit-identical (asserted by the determinism guard
  tests).
"""

from __future__ import annotations

import re
import threading
import time
from bisect import bisect_left

from repro.errors import ObservabilityError

#: Default histogram buckets — wide enough for cycle counts and small
#: enough for ratios; callers with specific ranges pass their own.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ObservabilityError(
                f"counter '{self.name}' cannot decrease (inc {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram (Prometheus ``le`` semantics).

    Internally each bucket holds only its *own* tally (one increment per
    observe, found by bisection); the cumulative ``le`` view is summed at
    read time.  The snapshot wire format stays cumulative, so stored runs
    from before this representation load unchanged.
    """

    __slots__ = ("name", "help", "buckets", "_bucket_counts", "_count",
                 "_sum", "_min", "_max")

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] | None = None) -> None:
        self.name = name
        self.help = help
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise ObservabilityError(
                f"histogram '{name}' buckets must be sorted and non-empty")
        self.buckets = bounds
        #: Per-bucket (non-cumulative) tallies; values above the last
        #: bound land only in count/sum (the ``+Inf`` bucket).
        self._bucket_counts = [0] * len(bounds)
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        idx = bisect_left(self.buckets, value)
        if idx < len(self.buckets):
            self._bucket_counts[idx] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float | None:
        return self._min

    @property
    def max(self) -> float | None:
        return self._max

    def bucket_counts(self) -> dict[float, int]:
        """Cumulative count per upper bound (``le`` buckets)."""
        out, running = {}, 0
        for bound, count in zip(self.buckets, self._bucket_counts):
            running += count
            out[bound] = running
        return out

    def cumulative_counts(self) -> list[int]:
        """Cumulative tallies in bucket order (the snapshot wire format)."""
        running, out = 0, []
        for count in self._bucket_counts:
            running += count
            out.append(running)
        return out

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another histogram's :meth:`MetricsRegistry.snapshot` entry
        into this one (bucket layouts must match).  Snapshots carry
        cumulative counts; they are de-accumulated into the per-bucket
        internal representation here."""
        if tuple(snap["buckets"]) != self.buckets:
            raise ObservabilityError(
                f"histogram '{self.name}' bucket mismatch on merge: "
                f"{self.buckets} vs {tuple(snap['buckets'])}")
        previous = 0
        for i, cumulative in enumerate(snap["bucket_counts"]):
            self._bucket_counts[i] += cumulative - previous
            previous = cumulative
        self._count += snap["count"]
        self._sum += snap["sum"]
        if snap["min"] is not None:
            self._min = snap["min"] if self._min is None \
                else min(self._min, snap["min"])
        if snap["max"] is not None:
            self._max = snap["max"] if self._max is None \
                else max(self._max, snap["max"])


class _NullInstrument:
    """Shared no-op instrument returned by the :class:`NullRegistry`.

    Implements the union of the Counter/Gauge/Histogram write interfaces
    so call sites never need to check whether metrics are enabled.
    """

    __slots__ = ()
    name = "<null>"
    help = ""
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0
    min = None
    max = None

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def bucket_counts(self) -> dict[float, int]:
        return {}


NULL_INSTRUMENT = _NullInstrument()

#: Shared empty snapshot handed out by :class:`NullRegistry` — a module
#: singleton so the disabled fast path allocates nothing per call.
EMPTY_SNAPSHOT: dict = {}


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Thread-safe on the create path (the simulator itself is single
    threaded, but audits may be served from a thread pool); instrument
    writes are plain attribute updates, safe under the GIL for the
    increment-only usage here.
    """

    #: Whether instruments returned by this registry actually record.
    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ObservabilityError(
                        f"metric '{name}' already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}")
                return existing
            instrument = kind(name, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help=help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        return self._get_or_create(name, Histogram, help=help,
                                   buckets=buckets)

    def collect(self) -> dict[str, float]:
        """Flat snapshot: counter/gauge values, histogram count+sum."""
        out: dict[str, float] = {}
        for name, inst in sorted(self._instruments.items()):
            if isinstance(inst, Histogram):
                out[f"{name}_count"] = float(inst.count)
                out[f"{name}_sum"] = inst.sum
            else:
                out[name] = inst.value
        return out

    def snapshot(self) -> dict[str, dict]:
        """Full picklable/JSON-able state of every instrument.

        Unlike :meth:`collect` (a flat numeric view) this preserves
        instrument kind, help text, and histogram bucket layout, so a
        registry rebuilt via :meth:`merge_snapshot` renders the same
        exposition.  The order is the sorted instrument-name order, which
        makes snapshots directly comparable across processes.
        """
        out: dict[str, dict] = {}
        for name, inst in sorted(self._instruments.items()):
            if isinstance(inst, Counter):
                out[name] = {"kind": "counter", "help": inst.help,
                             "value": inst.value}
            elif isinstance(inst, Gauge):
                out[name] = {"kind": "gauge", "help": inst.help,
                             "value": inst.value}
            else:
                out[name] = {"kind": "histogram", "help": inst.help,
                             "buckets": list(inst.buckets),
                             "bucket_counts": inst.cumulative_counts(),
                             "count": inst.count, "sum": inst.sum,
                             "min": inst.min, "max": inst.max}
        return out

    def merge_snapshot(self, snapshot: dict[str, dict]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histogram tallies *add*; gauges take the snapshot's
        value (last-merge-wins).  Merging worker snapshots in submission
        order therefore reproduces exactly what a serial run accumulating
        into one registry would hold — counter increments and the cycle
        histograms are integer-valued, so even the float sums are
        bit-identical regardless of how work was split across processes.
        """
        for name, snap in snapshot.items():
            kind = snap["kind"]
            if kind == "counter":
                self.counter(name, help=snap["help"]).inc(snap["value"])
            elif kind == "gauge":
                self.gauge(name, help=snap["help"]).set(snap["value"])
            elif kind == "histogram":
                self.histogram(
                    name, help=snap["help"],
                    buckets=tuple(snap["buckets"])).merge_snapshot(snap)
            else:
                raise ObservabilityError(
                    f"unknown instrument kind '{kind}' for '{name}'")

    def render(self) -> str:
        """Prometheus-style text exposition of every instrument.

        Labelled series (instruments named via :func:`labeled`) render
        with their labels merged into each sample's label set —
        histogram suffixes go on the *base* name, so a
        ``labeled("x", node="n")`` histogram exposes
        ``x_bucket{le="...",node="n"}``, never the invalid
        ``x{node="n"}_bucket{...}``.  HELP/TYPE headers are emitted once
        per metric family, not once per labelled series.
        """
        lines: list[str] = []
        described: set[str] = set()

        def _sample(base: str, suffix: str, inner: str,
                    extra: str = "") -> str:
            label_set = ",".join(part for part in (inner, extra) if part)
            return (f"{base}{suffix}{{{label_set}}}" if label_set
                    else f"{base}{suffix}")

        for name, inst in sorted(self._instruments.items()):
            base, inner = split_series(name)
            if base not in described:
                described.add(base)
                if inst.help:
                    lines.append(f"# HELP {base} {inst.help}")
                kind = ("counter" if isinstance(inst, Counter) else
                        "gauge" if isinstance(inst, Gauge) else "histogram")
                lines.append(f"# TYPE {base} {kind}")
            if isinstance(inst, (Counter, Gauge)):
                lines.append(f"{_sample(base, '', inner)} {inst.value:g}")
            else:
                for bound, count in inst.bucket_counts().items():
                    le = f'le="{bound:g}"'
                    lines.append(
                        f"{_sample(base, '_bucket', inner, le)} {count}")
                inf = 'le="+Inf"'
                lines.append(
                    f"{_sample(base, '_bucket', inner, inf)} {inst.count}")
                lines.append(f"{_sample(base, '_sum', inner)} {inst.sum:g}")
                lines.append(f"{_sample(base, '_count', inner)} "
                             f"{inst.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self._instruments)


class NullRegistry(MetricsRegistry):
    """A registry whose instruments drop everything (the default)."""

    enabled = False

    def __init__(self) -> None:  # no lock, no dict — nothing is stored
        pass

    def counter(self, name: str, help: str = "") -> Counter:
        return NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        return NULL_INSTRUMENT  # type: ignore[return-value]

    def collect(self) -> dict[str, float]:
        return {}

    def snapshot(self) -> dict[str, dict]:
        # The shared singleton keeps the disabled path allocation-free.
        return EMPTY_SNAPSHOT

    def merge_snapshot(self, snapshot: dict[str, dict]) -> None:
        pass

    def render(self) -> str:
        return ""

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()

_default_registry: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-global default registry (null until enabled)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process default; returns the previous."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def enable_metrics() -> MetricsRegistry:
    """Replace a null default with a recording registry (idempotent)."""
    if not _default_registry.enabled:
        set_registry(MetricsRegistry())
    return _default_registry


#: Prometheus label-name grammar ([a-zA-Z_][a-zA-Z0-9_]*).
_LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _escape_label_value(value: object) -> str:
    """Escape a label value per the Prometheus text format (backslash,
    double quote, and newline are the only characters that need it)."""
    return (str(value).replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def labeled(name: str, **labels: object) -> str:
    """Render a Prometheus-style series name with sorted label pairs.

    The registry keys instruments by their full name string, so labelled
    series are just distinct names — ``labeled("cache_hits_total",
    node="node-03")`` yields ``cache_hits_total{node="node-03"}``.
    Labels are sorted for a canonical spelling; values are rendered with
    ``str()`` and escaped per the exposition format (backslash, quote,
    newline), and label names must match the Prometheus grammar.
    """
    if not labels:
        return name
    for key in labels:
        if not _LABEL_NAME.match(key):
            raise ObservabilityError(
                f"invalid label name '{key}' for series '{name}'")
    inner = ",".join(f'{key}="{_escape_label_value(value)}"'
                     for key, value in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def split_series(name: str) -> tuple[str, str]:
    """Split a :func:`labeled` series name into ``(base, label_pairs)``.

    ``split_series('x{node="n"}')`` is ``("x", 'node="n"')``; an
    unlabelled name comes back as ``(name, "")``.
    """
    if name.endswith("}") and "{" in name:
        base, _, rest = name.partition("{")
        return base, rest[:-1]
    return name, ""


class time_phase:
    """Record the wall-clock duration of a named pipeline phase.

    ::

        with time_phase("chaos.baseline", registry) as span:
            baseline = play(...)
        print(span.seconds)

    The duration lands in a ``phase_<name>_seconds`` histogram on the
    given (or process-global) registry.  Host wall-clock only — the
    virtual clock and all simulated state stay untouched, so timing a
    phase can never perturb its results.
    """

    __slots__ = ("name", "registry", "seconds", "_t0")

    def __init__(self, name: str,
                 registry: MetricsRegistry | None = None) -> None:
        self.name = name
        self.registry = registry if registry is not None else get_registry()
        self.seconds = 0.0

    def __enter__(self) -> "time_phase":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._t0
        self.registry.histogram(
            f"phase_{self.name}_seconds",
            help=f"wall-clock seconds spent in the '{self.name}' phase",
        ).observe(self.seconds)
        return False
