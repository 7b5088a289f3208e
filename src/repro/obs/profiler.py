"""The cycle-exact guest profiler: flame graphs in the virtual domain.

A conventional sampling profiler is *statistical* in two ways: sample
points land at arbitrary wall-clock instants, and the cost between two
samples is estimated as ``interval x weight``.  This profiler is exact
in the dimension that matters here — virtual cycles:

* **Sample points are deterministic.**  Stacks are reconstructed only at
  platform polls (a fixed instruction count, in either tier) and
  at trace-JIT block boundaries / side exits — the same boundaries every
  other collector and the batched charging layer already key on.  The
  same program therefore samples at the same points in every run.
* **Attribution is a ledger delta, not an estimate.**  Every sample
  reads the :class:`~repro.obs.ledger.CycleLedger`'s per-source totals
  and attributes *everything charged since the previous sample* to the
  captured stack.  Whatever the stride, the per-source frame totals sum
  **exactly** to the ledger (and hence to the clock) — coarser strides
  only coarsen *where* cycles land, never *how many* there are.
  :meth:`CycleProfiler.finish` sweeps the residual tail (cycles charged
  after the last boundary sample) into a synthetic ``(runtime)`` frame,
  so the accounting closes without a remainder term.

Like every ``repro.obs`` collector, the profiler is a pure observer:
it reads the ledger and the guest stack but never touches the clock, so
cycles, ledger sums, transmissions, and audit verdicts are bit-identical
with profiling on or off (see DESIGN.md §4.4 for why the extra
accumulator flushes at JIT boundaries cannot change any observable).

Exports: a deterministic JSON-ready profile (:meth:`CycleProfiler.export`),
flamegraph.pl-compatible folded stacks (:func:`folded_lines`), and a
stdlib-only SVG flame graph (:func:`render_flame_svg`).
"""

from __future__ import annotations

import zlib

__all__ = ["CycleProfiler", "RUNTIME_FRAME", "folded_lines",
           "profile_lines", "render_flame_svg"]

#: Synthetic frame for cycles charged outside any sampled guest stack
#: (startup, the tail after the last boundary sample, teardown).
RUNTIME_FRAME = "(runtime)"


class CycleProfiler:
    """Per-run stack profiler over one :class:`CycleLedger`.

    ``Interpreter.poll`` calls :meth:`poll` at every platform poll (after
    ``on_quantum`` flushed the batched charges, so the ledger is current)
    and the interpreter calls :meth:`block_boundary` when a compiled
    block exits; both stride so the disabled-adjacent cost stays off the
    per-instruction path.
    ``flush`` is the platform's ``flush_charges`` (or ``None`` for
    platforms without batched charging): block boundaries are not flush
    points by themselves, so the profiler flushes before reading the
    ledger there — an additive-only operation that cannot change any
    observable (DESIGN.md §4.4).
    """

    __slots__ = ("ledger", "program", "stride", "jit_stride", "samples",
                 "_flush", "_tick", "_jit_tick", "_last", "_stacks")

    def __init__(self, ledger, program, flush=None, stride: int = 4,
                 jit_stride: int = 16) -> None:
        self.ledger = ledger
        self.program = program
        self._flush = flush
        #: Poll samples between stack captures (1 = every poll).
        self.stride = max(1, int(stride))
        #: Block-boundary events between JIT-tier stack captures.
        self.jit_stride = max(1, int(jit_stride))
        self.samples = 0
        self._tick = 0
        self._jit_tick = 0
        #: Per-source ledger totals at the previous sample.
        self._last: dict[str, int] = {}
        #: (thread_id, tier, ((fn_index, pc), ...)) -> {source: cycles}.
        self._stacks: dict[tuple, dict[str, int]] = {}

    # -- hot-path hooks (called from the interpreter run loop) ---------------

    def poll(self, thread) -> None:
        """One platform-poll boundary; samples every ``stride`` polls."""
        tick = self._tick + 1
        if tick < self.stride:
            self._tick = tick
            return
        self._tick = 0
        # frame.pc still holds the *current* instruction at poll time
        # (the interpreter writes it back after the poll, and a compiled
        # block sets it for the poll), so the leaf frame is exact;
        # caller frames hold the pc after their CALL.
        self._take((thread.thread_id, "interp",
                    tuple((f.function.index, f.pc) for f in thread.frames)))

    def block_boundary(self, thread, function, block) -> None:
        """One compiled-block exit (completion or side exit)."""
        tick = self._jit_tick + 1
        if tick < self.jit_stride:
            self._jit_tick = tick
            return
        self._jit_tick = 0
        if self._flush is not None:
            self._flush()
        frames = thread.frames
        stack = tuple((f.function.index, f.pc) for f in frames[:-1]) \
            + ((function.index, block.head),)
        self._take((thread.thread_id, "jit", stack))

    def _take(self, key: tuple) -> None:
        """Attribute every cycle charged since the last sample to ``key``."""
        self.samples += 1
        last = self._last
        bucket = None
        for source, cycles in self.ledger._totals.items():
            prev = last.get(source, 0)
            if cycles != prev:
                last[source] = cycles
                if bucket is None:
                    bucket = self._stacks.get(key)
                    if bucket is None:
                        bucket = self._stacks[key] = {}
                bucket[source] = bucket.get(source, 0) + cycles - prev

    def finish(self) -> None:
        """Close the accounting: sweep the residual into ``(runtime)``.

        Called once after the final ``flush_charges`` — cycles charged
        since the last boundary sample (plus anything before the first)
        land on the synthetic runtime frame, so per-source frame totals
        equal the ledger's exactly.  Idempotent: a second call finds no
        new delta.
        """
        self._take((-1, "interp", ()))

    # -- export --------------------------------------------------------------

    def export(self) -> dict:
        """Deterministic, JSON/pickle-ready profile snapshot.

        ``stacks`` entries carry resolved ``function:pc`` frame names, the
        tier (``interp`` or ``jit`` — JIT leaves name the compiled
        region's head pc), the owning thread, and exact per-source cycle
        totals; ``sources`` is the per-source roll-up, which matches the
        run's ledger exactly.
        """
        functions = self.program.functions
        stacks = []
        rollup: dict[str, int] = {}
        for (thread_id, tier, stack), sources in self._stacks.items():
            names = [f"{functions[idx].name}:{pc}" for idx, pc in stack] \
                or [RUNTIME_FRAME]
            total = 0
            for source, cycles in sources.items():
                rollup[source] = rollup.get(source, 0) + cycles
                total += cycles
            stacks.append({
                "thread": thread_id,
                "tier": tier,
                "stack": names,
                "cycles": total,
                "sources": dict(sorted(sources.items(),
                                       key=lambda kv: (-kv[1], kv[0]))),
            })
        stacks.sort(key=lambda s: (-s["cycles"], s["stack"], s["tier"],
                                   s["thread"]))
        return {
            "version": 1,
            "stride": self.stride,
            "jit_stride": self.jit_stride,
            "samples": self.samples,
            "total_cycles": sum(rollup.values()),
            "sources": dict(sorted(rollup.items(),
                                   key=lambda kv: (-kv[1], kv[0]))),
            "stacks": stacks,
        }


# --------------------------------------------------------------------------
# Folded-stack text (flamegraph.pl compatible).
# --------------------------------------------------------------------------

def folded_lines(profile: dict, with_sources: bool = True) -> list[str]:
    """One folded line per (stack, tier[, source]): ``a;b;c 123``.

    Compatible with Brendan Gregg's ``flamegraph.pl``: semicolon-joined
    frames, a space, and the sample weight (here: exact virtual cycles).
    JIT-tier leaves carry the ``_[j]`` annotation suffix the flamegraph
    tooling renders specially; with ``with_sources`` (the default) each
    hardware source becomes a synthetic ``[source]`` leaf, so the line
    weights sum exactly to the run's ledger total.

    Executive (multi-process) profiles tag each stack with the owning
    guest process (``pid``); those get a ``pid:N`` root frame so the
    flame graph splits per process.  Plain multi-threaded profiles fall
    back to a ``thread:N`` root as before.
    """
    stacks = profile.get("stacks", ())
    pids = {entry.get("pid") for entry in stacks} - {None}
    threads = {entry["thread"] for entry in stacks}
    multi_pid = len(pids) > 1
    multi = not multi_pid and len(threads - {-1}) > 1
    lines = []
    for entry in stacks:
        frames = list(entry["stack"])
        if entry["tier"] == "jit" and frames:
            frames[-1] += "_[j]"
        if multi_pid and entry.get("pid") is not None:
            frames.insert(0, f"pid:{entry['pid']}")
        elif multi and entry["thread"] >= 0:
            frames.insert(0, f"thread:{entry['thread']}")
        base = ";".join(frames)
        if with_sources:
            for source, cycles in entry["sources"].items():
                lines.append(f"{base};[{source}] {cycles}")
        else:
            lines.append(f"{base} {entry['cycles']}")
    return sorted(lines)


def profile_lines(profile: dict, top: int = 10) -> list[str]:
    """The profile summary block shared by the CLI and stored-run
    re-renders (same convention as ``fig6_lines`` / ``attribution_lines``:
    the report reproduces run-time stdout by construction)."""
    total = profile.get("total_cycles", 0)
    lines = [f"  profile: {profile.get('samples', 0):,} samples, "
             f"{total:,} cycles attributed exactly "
             f"(stride {profile.get('stride', '?')}, "
             f"jit stride {profile.get('jit_stride', '?')})"]
    # Re-sort rather than trusting dict order: a JSON round trip through
    # the run store re-sorts keys alphabetically.
    sources = dict(sorted(profile.get("sources", {}).items(),
                          key=lambda kv: (-kv[1], kv[0])))
    if sources:
        shown = list(sources.items())[:6]
        lines.append("  by source: " + ", ".join(
            f"{source} {cycles:,}" for source, cycles in shown)
            + (" …" if len(sources) > len(shown) else ""))
    lines.append(f"  {'hottest stacks':<46s} {'tier':>6s} "
                 f"{'cycles':>14s} {'share':>7s}")
    denominator = total or 1
    for entry in profile.get("stacks", [])[:top]:
        name = ";".join(entry["stack"])
        if len(name) > 46:
            name = "…" + name[-45:]
        lines.append(f"  {name:<46s} {entry['tier']:>6s} "
                     f"{entry['cycles']:>14,} "
                     f"{entry['cycles'] / denominator:>6.1%}")
    return lines


# --------------------------------------------------------------------------
# Stdlib SVG flame graph (icicle layout, deterministic colors).
# --------------------------------------------------------------------------

#: Warm ramp for guest frames, cool ramp for ``[source]`` leaves, a
#: distinct band for JIT-tier frames.  Flat literals (not CSS vars): the
#: SVG must stand alone as a file, outside the report's stylesheet.
_FRAME_COLORS = ("#e4593b", "#e8703a", "#ec8639", "#ef9a3d",
                 "#f2ad45", "#da5f50", "#d9764b", "#e06a33")
_SOURCE_COLORS = ("#2a78d6", "#3987e5", "#1c5cab", "#4a90d9",
                  "#5b7fc7", "#2f6cb8")
_JIT_COLORS = ("#1baf7a", "#199e70", "#23c289", "#2d9d6f")


def _frame_color(name: str) -> str:
    if name.startswith("[") and name.endswith("]"):
        palette = _SOURCE_COLORS
    elif name.endswith("_[j]") or name.endswith(" [jit]"):
        palette = _JIT_COLORS
    else:
        palette = _FRAME_COLORS
    return palette[zlib.crc32(name.encode("utf-8")) % len(palette)]


def _build_trie(profile: dict) -> dict:
    """Merge the profile's stacks into a prefix tree weighted in cycles."""
    root = {"name": "all", "value": 0, "children": {}}
    for entry in profile.get("stacks", ()):
        frames = list(entry["stack"])
        if entry["tier"] == "jit" and frames:
            frames[-1] += " [jit]"
        for source, cycles in entry["sources"].items():
            root["value"] += cycles
            node = root
            for name in frames + [f"[{source}]"]:
                child = node["children"].get(name)
                if child is None:
                    child = node["children"][name] = {
                        "name": name, "value": 0, "children": {}}
                node = child
                node["value"] += cycles
    return root


def _trie_depth(node: dict) -> int:
    if not node["children"]:
        return 1
    return 1 + max(_trie_depth(child) for child in node["children"].values())


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _render_frames(node: dict, x: float, width: float, depth: int,
                   row_h: int, total: int, parts: list[str],
                   highlight=None) -> None:
    cursor = x
    children = sorted(node["children"].values(),
                      key=lambda c: (-c["value"], c["name"]))
    for child in children:
        w = width * child["value"] / node["value"] if node["value"] else 0.0
        if w < 0.4:         # sub-half-pixel frames: skip render, keep layout
            cursor += w
            continue
        y = depth * row_h
        name = child["name"]
        stroke = ""
        if highlight is not None and highlight(name, depth):
            stroke = ' stroke="#e34948" stroke-width="1.5"'
        share = child["value"] / total if total else 0.0
        parts.append(
            f'<rect x="{cursor:.2f}" y="{y}" width="{w:.2f}" '
            f'height="{row_h - 1}" rx="1" fill="{_frame_color(name)}"'
            f'{stroke}><title>{_escape(name)}: {child["value"]:,} cycles '
            f'({share:.2%})</title></rect>')
        if w > 34:
            label = name if len(name) * 6.2 < w else \
                name[:max(1, int(w / 6.2) - 1)] + "…"
            parts.append(
                f'<text x="{cursor + 3:.2f}" y="{y + row_h - 5}" '
                f'font-size="10" fill="#ffffff">{_escape(label)}</text>')
        _render_frames(child, cursor, w, depth + 1, row_h, total, parts,
                       highlight)
        cursor += w


def render_flame_svg(profile: dict, title: str = "Guest cycle flame graph",
                     width: int = 1000, highlight=None) -> str:
    """A self-contained SVG flame graph (icicle: root on top).

    Deterministic by construction — layout sorts children by
    ``(-cycles, name)`` and colors hash the frame name — so re-rendering
    the same profile is byte-identical.  ``highlight(name, depth)`` may
    mark frames (the forensics differential view strokes divergent ones).
    """
    trie = _build_trie(profile)
    row_h = 17
    depth = _trie_depth(trie)
    height = (depth + 1) * row_h + 24
    total = trie["value"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{_escape(title)}">',
        f'<text x="4" y="14" font-size="12" font-family="system-ui, '
        f'sans-serif" fill="#52514e">{_escape(title)} — '
        f'{total:,} cycles, exact</text>',
        '<g font-family="system-ui, sans-serif">',
        f'<rect x="0" y="{row_h + 4}" width="{width}" '
        f'height="{row_h - 1}" rx="1" fill="#898781">'
        f'<title>all: {total:,} cycles</title></rect>',
        f'<text x="3" y="{2 * row_h - 1}" font-size="10" '
        f'fill="#ffffff">all</text>',
    ]
    # Root row sits at depth 1 (after the title row); children below it.
    body: list[str] = []
    _render_frames(trie, 0.0, float(width), 2, row_h, total, body,
                   highlight)
    # Shift body down by the 4px title padding via a wrapping group.
    parts.append(f'<g transform="translate(0 4)">{"".join(body)}</g>')
    parts.append("</g></svg>")
    return "".join(parts)


def write_flame_svg(path, profile: dict, title: str = "Guest cycle "
                    "flame graph", highlight=None) -> None:
    """Write a standalone ``.svg`` file (XML prolog + flame graph)."""
    from pathlib import Path

    svg = render_flame_svg(profile, title=title, highlight=highlight)
    Path(path).write_text('<?xml version="1.0" encoding="UTF-8"?>\n'
                          + svg + "\n", encoding="utf-8")
