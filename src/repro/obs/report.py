"""Render persisted runs as text and as a zero-dependency HTML report.

Two renderers over :class:`~repro.obs.runstore.RunRecord`:

* :func:`render_text` — exactly the lines the experiment printed at run
  time.  The CLI experiments build their stdout *through* the formatters
  in this module (:func:`fig6_lines`, :func:`attribution_lines`, ...), so
  a re-render from the store reproduces the run-time numbers by
  construction, not by coincidence.
* :func:`render_html` — a single self-contained HTML document (inline
  SVG, inline CSS, no external assets or JS libraries) with the Figure 6
  stability bars, Figure 8 ROC curves, the Table-1 attribution waterfall,
  and the per-phase wall-clock table.  Every chart ships a data-table
  twin and native ``<title>`` hover tooltips, and the palette follows the
  validated reference tokens (single blue hue for magnitude, fixed-order
  categorical slots for detector identity, text in ink tokens, hairline
  grids, dark mode from the same ramps via ``prefers-color-scheme``).

Figure payload conventions (the ``figures`` dict of a run record):

* ``fig6``: ``{"kernels": [...], "scenarios": [...],
  "spreads": {kernel: {scenario: percent}}}``
* ``fig8``: ``{"curves": [{"detector": str, "auc": float,
  "points": [[fpr, tpr], ...]}]}``
* ``table1``: ``{"tables": [{"ledger": <key into record.ledgers>,
  "total_cycles": int, "title": str}]}``
"""

from __future__ import annotations

import html

from repro.obs.ledger import format_attribution_table

__all__ = ["attribution_lines", "fig6_lines", "phase_lines",
           "phase_rows", "render_html", "render_text"]


# --------------------------------------------------------------------------
# Text formatters — shared between run-time stdout and report re-renders.
# --------------------------------------------------------------------------

def fig6_lines(fig6: dict) -> list[str]:
    """The Figure 6 stdout block (header + one row per kernel)."""
    scenarios = fig6.get("scenarios", [])
    header = f"  {'kernel':8s}" + "".join(f" {s:>10s}" for s in scenarios)
    lines = [header]
    for kernel in fig6.get("kernels", []):
        row = f"  {kernel:8s}"
        for scenario in scenarios:
            row += f" {fig6['spreads'][kernel][scenario]:>9.3f}%"
        lines.append(row)
    return lines


def attribution_lines(record) -> list[str]:
    """Every Table-1 attribution table the run printed, blank-separated."""
    lines: list[str] = []
    for spec in record.figures.get("table1", {}).get("tables", []):
        if lines:
            lines.append("")
        lines.extend(format_attribution_table(
            record.ledgers.get(spec["ledger"], {}),
            spec.get("total_cycles"),
            title=spec.get("title", spec["ledger"])).splitlines())
    return lines


def phase_rows(metrics: dict) -> list[tuple[str, int, float]]:
    """``(phase, runs, total_seconds)`` from a metrics snapshot, live
    (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`) or persisted."""
    rows = []
    for name, inst in sorted(metrics.items()):
        if (name.startswith("phase_") and name.endswith("_seconds")
                and inst.get("kind") == "histogram"):
            rows.append((name[len("phase_"):-len("_seconds")],
                         int(inst["count"]), float(inst["sum"])))
    return rows


def phase_lines(metrics: dict) -> list[str]:
    rows = phase_rows(metrics)
    if not rows:
        return []
    lines = [f"  {'phase':24s} {'runs':>5s} {'wall-clock':>11s}"]
    for name, count, total in rows:
        lines.append(f"  {name:24s} {count:>5d} {total:>10.2f}s")
    return lines


def render_text(record, run_id: str = "") -> str:
    """Re-render one stored run's numbers exactly as printed at run time."""
    lines = [f"run {run_id or record.run_id()} ({record.kind})"
             + (f" — {record.label}" if record.label else "")]
    if record.config:
        config = ", ".join(f"{k}={v}"
                           for k, v in sorted(record.config.items()))
        lines.append(f"  config: {config}")
    if record.seeds:
        lines.append(f"  seeds: {record.seeds}")
    if "fig6" in record.figures:
        lines.append("")
        lines.extend(fig6_lines(record.figures["fig6"]))
    profiles = record.figures.get("profile", {})
    for side in sorted(profiles):
        from repro.obs.profiler import profile_lines

        lines.append("")
        lines.append(f"  {side} profile:")
        lines.extend(profile_lines(profiles[side]))
    if "play" in profiles and "replay" in profiles:
        from repro.obs.forensics import diff_lines, diff_profiles

        lines.append("")
        lines.extend(diff_lines(diff_profiles(profiles["play"],
                                              profiles["replay"])))
    table1 = attribution_lines(record)
    if table1:
        lines.append("")
        lines.extend(table1)
    fig8 = record.figures.get("fig8", {})
    if fig8.get("matrix"):
        from collections import namedtuple

        from repro.analysis.experiment import matrix_as_table

        cell = namedtuple("cell", "channel detector auc")
        lines.append("")
        lines.extend(matrix_as_table(
            [cell(m["channel"], m["detector"], m["auc"])
             for m in fig8["matrix"]]).splitlines())
    else:
        for curve in fig8.get("curves", []):
            lines.append(f"  {curve['detector']:24s} AUC {curve['auc']:.4f}")
    if record.verdicts:
        lines.append("")
        for name, value in sorted(record.verdicts.items()):
            lines.append(f"  {name}: {value}")
    phases = phase_lines(record.metrics)
    if phases:
        lines.append("")
        lines.extend(phases)
    if record.flights:
        lines.append(f"  {len(record.flights)} divergence flight "
                     f"record(s) on file")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# HTML / SVG.
# --------------------------------------------------------------------------

_CSS = """
:root {
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
  --seq: #2a78d6; --seq-deep: #1c5cab;
}
@media (prefers-color-scheme: dark) {
  :root {
    --page: #0d0d0d; --surface: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255, 255, 255, 0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
    --seq: #3987e5; --seq-deep: #6da7ec;
  }
}
body { background: var(--page); color: var(--ink); margin: 2rem auto;
  max-width: 780px; padding: 0 1rem;
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 1.35rem; } h2 { font-size: 1.05rem; margin: 2rem 0 0.5rem; }
figure { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; margin: 1rem 0; padding: 16px; }
figcaption { color: var(--ink-2); font-size: 0.85rem; margin-bottom: 10px; }
svg { display: block; max-width: 100%; }
svg text { font: 11px system-ui, sans-serif; fill: var(--ink-2); }
svg .muted { fill: var(--muted); font-size: 10px; }
table { border-collapse: collapse; font-size: 0.85rem; margin-top: 8px; }
th, td { border-bottom: 1px solid var(--grid); padding: 3px 10px;
  text-align: left; }
td.num, th.num { text-align: right;
  font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; }
details summary { color: var(--ink-2); cursor: pointer;
  font-size: 0.8rem; margin-top: 8px; }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin-bottom: 8px;
  font-size: 0.8rem; color: var(--ink-2); }
.legend .chip { border-radius: 2px; display: inline-block; height: 10px;
  margin-right: 5px; width: 10px; }
.meta { color: var(--muted); font-size: 0.8rem; }
code { color: var(--ink-2); }
"""


def _e(value) -> str:
    return html.escape(str(value), quote=True)


def _hbar(x: float, y: float, w: float, h: float, fill: str,
          tooltip: str, r: float = 4.0) -> str:
    """Horizontal bar: square at the baseline, rounded at the data end."""
    r = min(r, max(w, 0.0), h / 2)
    path = (f"M{x:.1f},{y:.1f} h{w - r:.1f} "
            f"a{r},{r} 0 0 1 {r},{r} v{h - 2 * r:.1f} "
            f"a{r},{r} 0 0 1 {-r},{r} h{-(w - r):.1f} z")
    return (f'<path d="{path}" fill="{fill}">'
            f"<title>{_e(tooltip)}</title></path>")


def _table(headers: list[str], rows: list[list], numeric_from: int = 1
           ) -> str:
    """Accessible data-table twin for a chart."""
    out = ["<table><tr>"]
    for i, header in enumerate(headers):
        cls = ' class="num"' if i >= numeric_from else ""
        out.append(f"<th{cls}>{_e(header)}</th>")
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        for i, cell in enumerate(row):
            cls = ' class="num"' if i >= numeric_from else ""
            out.append(f"<td{cls}>{_e(cell)}</td>")
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def _details_table(headers, rows, numeric_from: int = 1) -> str:
    return ("<details><summary>Data table</summary>"
            + _table(headers, rows, numeric_from) + "</details>")


def _fig6_svg(fig6: dict) -> str:
    """Small multiples (one panel per scenario), single-hue bars."""
    kernels = fig6.get("kernels", [])
    scenarios = fig6.get("scenarios", [])
    spreads = fig6.get("spreads", {})
    if not kernels or not scenarios:
        return ""
    xmax = max((spreads[k][s] for k in kernels for s in scenarios),
               default=0.0) * 1.05 or 1.0
    gutter, panel_w, panel_gap = 58, 176, 18
    bar_h, row_gap, top = 15, 9, 26
    panel_h = len(kernels) * (bar_h + row_gap)
    width = gutter + len(scenarios) * (panel_w + panel_gap)
    height = top + panel_h + 22
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="Figure 6 replay stability by kernel and '
             f'scenario">']
    for i, kernel in enumerate(kernels):
        y = top + i * (bar_h + row_gap)
        parts.append(f'<text x="{gutter - 8}" y="{y + bar_h - 4}" '
                     f'text-anchor="end">{_e(kernel)}</text>')
    for col, scenario in enumerate(scenarios):
        x0 = gutter + col * (panel_w + panel_gap)
        parts.append(f'<text x="{x0}" y="14">{_e(scenario)}</text>')
        for frac in (0.5, 1.0):
            gx = x0 + (panel_w - 40) * frac
            parts.append(f'<line x1="{gx:.1f}" y1="{top}" x2="{gx:.1f}" '
                         f'y2="{top + panel_h - row_gap + 4}" '
                         f'stroke="var(--grid)" stroke-width="1"/>')
            parts.append(f'<text class="muted" x="{gx:.1f}" '
                         f'y="{top + panel_h + 12}" text-anchor="middle">'
                         f"{xmax * frac:.2f}%</text>")
        parts.append(f'<line x1="{x0}" y1="{top}" x2="{x0}" '
                     f'y2="{top + panel_h - row_gap + 4}" '
                     f'stroke="var(--axis)" stroke-width="1"/>')
        largest = max(kernels, key=lambda k: spreads[k][scenario])
        for i, kernel in enumerate(kernels):
            value = spreads[kernel][scenario]
            y = top + i * (bar_h + row_gap)
            w = max((panel_w - 40) * value / xmax, 0.5)
            parts.append(_hbar(x0, y, w, bar_h, "var(--seq)",
                               f"{kernel} / {scenario}: {value:.3f}%"))
            if kernel == largest:
                parts.append(f'<text x="{x0 + w + 5:.1f}" '
                             f'y="{y + bar_h - 4}">{value:.3f}%</text>')
    parts.append("</svg>")
    return "".join(parts)


def _fig6_section(fig6: dict) -> str:
    rows = [[k] + [f"{fig6['spreads'][k][s]:.3f}%"
                   for s in fig6["scenarios"]]
            for k in fig6["kernels"]]
    return ("<h2>Figure 6 — replay timing stability</h2><figure>"
            "<figcaption>Spread of total virtual cycles across repeated "
            "runs (lower is more stable); one panel per noise scenario, "
            "one bar per SciMark kernel.</figcaption>"
            + _fig6_svg(fig6)
            + _details_table(["kernel"] + list(fig6["scenarios"]), rows)
            + "</figure>")


def _roc_svg(curves: list[dict]) -> str:
    size, margin_l, margin_b, margin_t = 280, 38, 32, 8
    width, height = margin_l + size + 12, margin_t + size + margin_b
    x0, y0 = margin_l, margin_t

    def px(fpr: float) -> float:
        return x0 + fpr * size

    def py(tpr: float) -> float:
        return y0 + (1.0 - tpr) * size

    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="Figure 8 ROC curves per detector">']
    for frac in (0.25, 0.5, 0.75):
        parts.append(f'<line x1="{px(frac):.1f}" y1="{y0}" '
                     f'x2="{px(frac):.1f}" y2="{y0 + size}" '
                     f'stroke="var(--grid)" stroke-width="1"/>')
        parts.append(f'<line x1="{x0}" y1="{py(frac):.1f}" '
                     f'x2="{x0 + size}" y2="{py(frac):.1f}" '
                     f'stroke="var(--grid)" stroke-width="1"/>')
    parts.append(f'<rect x="{x0}" y="{y0}" width="{size}" height="{size}" '
                 f'fill="none" stroke="var(--axis)" stroke-width="1"/>')
    parts.append(f'<line x1="{px(0):.1f}" y1="{py(0):.1f}" '
                 f'x2="{px(1):.1f}" y2="{py(1):.1f}" '
                 f'stroke="var(--axis)" stroke-width="1" '
                 f'stroke-dasharray="4 4"/>')
    for frac in (0.0, 0.5, 1.0):
        parts.append(f'<text class="muted" x="{px(frac):.1f}" '
                     f'y="{y0 + size + 14}" text-anchor="middle">'
                     f"{frac:.1f}</text>")
        parts.append(f'<text class="muted" x="{x0 - 6}" '
                     f'y="{py(frac) + 4:.1f}" text-anchor="end">'
                     f"{frac:.1f}</text>")
    parts.append(f'<text x="{x0 + size / 2:.0f}" y="{height - 4}" '
                 f'text-anchor="middle">false-positive rate</text>')
    for i, curve in enumerate(curves[:8]):
        color = f"var(--s{i + 1})"
        points = " ".join(f"{px(fpr):.1f},{py(tpr):.1f}"
                          for fpr, tpr in curve["points"])
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="2" '
                     f'stroke-linejoin="round">'
                     f'<title>{_e(curve["detector"])} '
                     f'(AUC {curve["auc"]:.3f})</title></polyline>')
        if len(curves) <= 4 and curve["points"]:
            fpr, tpr = max(curve["points"], key=lambda p: p[1] - p[0])
            # Stagger labels and keep them inside the plot's top edge.
            label_y = max(py(tpr) - 5 - 12 * i, y0 + 12)
            parts.append(f'<text x="{px(fpr) + 6:.1f}" '
                         f'y="{label_y:.1f}">'
                         f'{_e(curve["detector"])}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _roc_section(fig8: dict) -> str:
    curves = fig8.get("curves", [])
    if not curves:
        return ""
    legend = ['<div class="legend">']
    for i, curve in enumerate(curves[:8]):
        legend.append(f'<span><span class="chip" '
                      f'style="background:var(--s{i + 1})"></span>'
                      f'{_e(curve["detector"])} '
                      f"(AUC {curve['auc']:.3f})</span>")
    legend.append("</div>")
    if fig8.get("matrix"):
        rows = [[f"{m['channel']} / {m['detector']}", f"{m['auc']:.4f}"]
                for m in fig8["matrix"]]
        twin = _details_table(["channel / detector", "AUC"], rows)
    else:
        rows = [[c["detector"], f"{c['auc']:.4f}", len(c["points"])]
                for c in curves]
        twin = _details_table(["detector", "AUC", "points"], rows)
    channel = fig8.get("channel")
    caption = ("True-positive vs false-positive rate per detector"
               + (f" on the <em>{_e(channel)}</em> channel"
                  if channel else "")
               + "; the dashed diagonal is chance.")
    return ("<h2>Figure 8 — detector ROC curves</h2><figure>"
            f"<figcaption>{caption}</figcaption>"
            + "".join(legend) + _roc_svg(curves)
            + twin
            + "</figure>")


def _waterfall_svg(totals: dict, total_cycles: int, title: str) -> str:
    """Table-1 attribution as a cumulative waterfall: each source's bar
    starts where the previous one ended; the final bar is the total."""
    entries = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    grand = sum(totals.values()) or 1
    gutter, plot_w = 128, 470
    bar_h, row_gap, top = 16, 8, 8
    height = top + (len(entries) + 1) * (bar_h + row_gap) + 20
    width = gutter + plot_w + 60
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="{_e(title)} cycle attribution waterfall">']
    for frac in (0.25, 0.5, 0.75, 1.0):
        gx = gutter + plot_w * frac
        parts.append(f'<line x1="{gx:.1f}" y1="{top}" x2="{gx:.1f}" '
                     f'y2="{height - 20}" stroke="var(--grid)" '
                     f'stroke-width="1"/>')
        parts.append(f'<text class="muted" x="{gx:.1f}" '
                     f'y="{height - 6}" text-anchor="middle">'
                     f"{frac:.0%}</text>")
    cumulative = 0
    for i, (source, cycles) in enumerate(entries):
        y = top + i * (bar_h + row_gap)
        x = gutter + plot_w * cumulative / grand
        w = max(plot_w * cycles / grand, 0.5)
        share = cycles / grand
        parts.append(f'<text x="{gutter - 8}" y="{y + bar_h - 4}" '
                     f'text-anchor="end">{_e(source)}</text>')
        parts.append(_hbar(x, y, w, bar_h, "var(--seq)",
                           f"{source}: {cycles:,} cycles ({share:.2%})"))
        if share >= 0.01:
            parts.append(f'<text x="{x + w + 5:.1f}" '
                         f'y="{y + bar_h - 4}">{share:.1%}</text>')
        cumulative += cycles
    y = top + len(entries) * (bar_h + row_gap)
    parts.append(f'<text x="{gutter - 8}" y="{y + bar_h - 4}" '
                 f'text-anchor="end">total</text>')
    exact = (total_cycles is None) or (cumulative == total_cycles)
    parts.append(_hbar(gutter, y, plot_w, bar_h, "var(--seq-deep)",
                       f"total: {cumulative:,} cycles (accounting "
                       + ("exact" if exact else "MISMATCH") + ")"))
    parts.append(f'<text x="{gutter + plot_w + 5}" '
                 f'y="{y + bar_h - 4}">{cumulative:,}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _table1_section(record) -> str:
    specs = record.figures.get("table1", {}).get("tables", [])
    if not specs:
        return ""
    parts = ["<h2>Table 1 — cycle attribution</h2>"]
    for spec in specs:
        totals = record.ledgers.get(spec["ledger"], {})
        if not totals:
            continue
        total_cycles = spec.get("total_cycles")
        grand = sum(totals.values())
        exact = (total_cycles is None) or (grand == total_cycles)
        rows = [[source, f"{cycles:,}", f"{cycles / (grand or 1):.2%}"]
                for source, cycles
                in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))]
        rows.append(["total", f"{grand:,}",
                     "exact" if exact else
                     f"MISMATCH vs clock {total_cycles:,}"])
        parts.append(
            "<figure><figcaption>"
            + _e(spec.get("title", spec["ledger"]))
            + " — every virtual cycle attributed to a named source; "
              "bars accumulate left to right to the run's clock total."
              "</figcaption>"
            + _waterfall_svg(totals, total_cycles,
                             spec.get("title", spec["ledger"]))
            + _details_table(["source", "cycles", "share"], rows)
            + "</figure>")
    return "".join(parts)


def _phases_section(metrics: dict) -> str:
    rows = phase_rows(metrics)
    if not rows:
        return ""
    return ("<h2>Per-phase wall-clock</h2><figure>"
            "<figcaption>Host-time cost of each instrumented pipeline "
            "phase.</figcaption>"
            + _table(["phase", "runs", "total"],
                     [[name, count, f"{total:.2f}s"]
                      for name, count, total in rows])
            + "</figure>")


def _verdicts_section(verdicts: dict) -> str:
    if not verdicts:
        return ""
    return ("<h2>Verdicts</h2><figure>"
            + _table(["check", "value"],
                     [[k, v] for k, v in sorted(verdicts.items())])
            + "</figure>")


# --------------------------------------------------------------------------
# Fleet telemetry page (figures["fleet_obs"] of a fleet-audit run).
# --------------------------------------------------------------------------

#: Marker-name prefix -> categorical slot (fixed order = fixed identity).
_MARKER_COLORS = (("crash", "var(--s8)"), ("stall", "var(--s4)"),
                  ("slow", "var(--s2)"), ("steal", "var(--s1)"),
                  ("suspect", "var(--s5)"), ("resume", "var(--s3)"),
                  ("rebalance", "var(--s7)"), ("degraded", "var(--s6)"))


def _marker_color(name: str) -> str:
    for prefix, color in _MARKER_COLORS:
        if name.startswith(prefix):
            return color
    return "var(--axis)"


def _fleet_heatmap_svg(heatmap: dict) -> str:
    """Tenant x node latency heatmap: opacity ramp on the single hue."""
    tenants = heatmap.get("tenants", [])
    nodes = heatmap.get("nodes", [])
    cells = {(t, n): (count, mean, worst)
             for t, n, count, mean, worst in heatmap.get("cells", [])}
    if not tenants or not nodes:
        return ""
    peak = max((mean for _, mean, _ in cells.values()), default=0.0) or 1.0
    gutter, top, cw, ch, gap = 96, 22, 74, 24, 3
    width = gutter + len(nodes) * (cw + gap) + 8
    height = top + len(tenants) * (ch + gap) + 6
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="Time-to-verdict heatmap per tenant and node">']
    for col, node in enumerate(nodes):
        x = gutter + col * (cw + gap)
        parts.append(f'<text x="{x + cw / 2:.1f}" y="14" '
                     f'text-anchor="middle">{_e(node)}</text>')
    for row, tenant in enumerate(tenants):
        y = top + row * (ch + gap)
        parts.append(f'<text x="{gutter - 8}" y="{y + ch - 7}" '
                     f'text-anchor="end">{_e(tenant)}</text>')
        for col, node in enumerate(nodes):
            x = gutter + col * (cw + gap)
            cell = cells.get((tenant, node))
            if cell is None:
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{cw}" height="{ch}" '
                    f'rx="3" fill="none" stroke="var(--grid)" '
                    f'stroke-width="1"><title>'
                    f"{_e(tenant)} on {_e(node)}: no audits"
                    f"</title></rect>")
                continue
            count, mean, worst = cell
            opacity = 0.15 + 0.85 * (mean / peak)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cw}" height="{ch}" '
                f'rx="3" fill="var(--seq)" '
                f'fill-opacity="{opacity:.3f}"><title>'
                f"{_e(tenant)} on {_e(node)}: {count} verdicts, "
                f"mean {mean:.1f} ms, worst {worst:.1f} ms"
                f"</title></rect>")
            parts.append(f'<text x="{x + cw / 2:.1f}" y="{y + ch - 7}" '
                         f'text-anchor="middle">{mean:.0f}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _fleet_timeline_svg(obs: dict) -> str:
    """One lane per track: queue-depth sparkline + chaos/steal markers."""
    tracks = obs.get("tracks", [])
    horizon = float(obs.get("horizon_ms", 0.0)) or 1.0
    markers = obs.get("markers", {})
    depths = obs.get("queue_depth", {})
    if not tracks:
        return ""
    gutter, plot_w, lane_h, lane_gap, top = 86, 520, 26, 8, 10
    height = top + len(tracks) * (lane_h + lane_gap) + 22
    width = gutter + plot_w + 14
    peak_depth = max((depth for samples in depths.values()
                      for _, depth in samples), default=0) or 1

    def px(ts: float) -> float:
        return gutter + plot_w * min(ts / horizon, 1.0)

    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="Fleet node timeline with chaos markers and '
             f'queue-depth sparklines">']
    for frac in (0.25, 0.5, 0.75, 1.0):
        gx = gutter + plot_w * frac
        parts.append(f'<line x1="{gx:.1f}" y1="{top}" x2="{gx:.1f}" '
                     f'y2="{height - 22}" stroke="var(--grid)" '
                     f'stroke-width="1"/>')
        parts.append(f'<text class="muted" x="{gx:.1f}" '
                     f'y="{height - 8}" text-anchor="middle">'
                     f"{horizon * frac:.0f} ms</text>")
    for row, track in enumerate(tracks):
        y0 = top + row * (lane_h + lane_gap)
        base = y0 + lane_h - 4
        parts.append(f'<text x="{gutter - 8}" y="{base}" '
                     f'text-anchor="end">{_e(track)}</text>')
        parts.append(f'<line x1="{gutter}" y1="{base}" '
                     f'x2="{gutter + plot_w}" y2="{base}" '
                     f'stroke="var(--axis)" stroke-width="1"/>')
        samples = depths.get(track, [])
        if samples:
            # Step-after sparkline: depth holds until the next sample.
            points, last_y = [], base
            for ts, depth in samples:
                x = px(ts)
                sy = base - (lane_h - 10) * depth / peak_depth
                points.append(f"{x:.1f},{last_y:.1f}")
                points.append(f"{x:.1f},{sy:.1f}")
                last_y = sy
            points.append(f"{gutter + plot_w},{last_y:.1f}")
            peak_here = max(depth for _, depth in samples)
            parts.append(f'<polyline points="{" ".join(points)}" '
                         f'fill="none" stroke="var(--seq)" '
                         f'stroke-width="1.5"><title>'
                         f"{_e(track)} queue depth (peak {peak_here})"
                         f"</title></polyline>")
        for ts, name in markers.get(track, []):
            x = px(ts)
            parts.append(f'<line x1="{x:.1f}" y1="{y0 + 2}" '
                         f'x2="{x:.1f}" y2="{base}" '
                         f'stroke="{_marker_color(name)}" '
                         f'stroke-width="2"><title>'
                         f"{_e(name)} @ {ts:.1f} ms</title></line>")
    parts.append("</svg>")
    return "".join(parts)


def _fleet_slo_table(slo: dict) -> str:
    rows = []
    for objective in slo.get("objectives", []):
        burn = objective.get("burn_rates") or []
        rows.append([objective["name"], f"{objective['target']:g}",
                     f"{objective['actual']:g}",
                     "ok" if objective["ok"] else "BREACH",
                     " / ".join(f"{b:.1f}" for b in burn) or "—"])
    verdict = "met" if slo.get("ok") else "BREACHED"
    return ("<figure><figcaption>SLO <code>"
            + _e(slo.get("spec", "")) + "</code> — " + verdict
            + f" over {slo.get('horizon_ms', 0.0):.1f} virtual ms "
            f"({slo.get('windows', 0)} burn windows; burn 1.0 spends "
            "the error budget exactly at the objective's rate)."
            "</figcaption>"
            + _table(["objective", "target", "actual", "verdict",
                      "burn per window"], rows)
            + "</figure>")


def _fleet_section(obs: dict) -> str:
    if not obs:
        return ""
    parts = ["<h2>Fleet telemetry</h2>"]
    sessions = obs.get("sessions", {})
    spans = obs.get("spans", {})
    summary_bits = [
        f"{sessions.get('total', 0)} sessions "
        f"({', '.join(f'{n} {s}' for s, n in sorted(sessions.get('by_status', {}).items()))})",
        f"{spans.get('total', 0)} spans",
    ]
    if spans.get("killed"):
        summary_bits.append(f"{spans['killed']} killed with their node, "
                            f"{spans.get('reparented', 0)} re-parented "
                            f"onto a new owner")
    parts.append(f'<p class="meta">{_e("; ".join(summary_bits))}</p>')

    latency = obs.get("latency", {})
    if latency:
        rows = []
        for metric, entry in sorted(latency.items()):
            stats = entry.get("all", {})
            rows.append([metric, stats.get("count", 0),
                         f"{stats.get('mean', 0.0):.1f}",
                         f"{stats.get('p50', 0.0):.1f}",
                         f"{stats.get('p95', 0.0):.1f}",
                         f"{stats.get('p99', 0.0):.1f}",
                         f"{stats.get('max', 0.0):.1f}"])
        parts.append(
            "<figure><figcaption>Virtual-time latency distributions "
            "across the whole fleet (ms): queue wait, audit service "
            "time, and time from a session's first segment to its "
            "verdict.</figcaption>"
            + _table(["metric", "n", "mean", "p50", "p95", "p99", "max"],
                     rows)
            + "</figure>")

    heatmap = obs.get("heatmap", {})
    if heatmap.get("cells"):
        twin_rows = [[f"{t} on {n}", count, f"{mean:.1f}", f"{worst:.1f}"]
                     for t, n, count, mean, worst in heatmap["cells"]]
        parts.append(
            "<figure><figcaption>Mean time-to-verdict (ms) per tenant "
            "and judging node; darker is slower, empty outline means "
            "that node never judged that tenant.</figcaption>"
            + _fleet_heatmap_svg(heatmap)
            + _details_table(["tenant / node", "verdicts", "mean ms",
                              "worst ms"], twin_rows)
            + "</figure>")

    if obs.get("tracks"):
        legend = ['<div class="legend">']
        for prefix, color in _MARKER_COLORS:
            legend.append(f'<span><span class="chip" '
                          f'style="background:{color}"></span>'
                          f"{_e(prefix)}</span>")
        legend.append("</div>")
        marker_rows = [[track, f"{ts:.1f}", name]
                       for track, rows in sorted(
                           obs.get("markers", {}).items())
                       for ts, name in rows]
        parts.append(
            "<figure><figcaption>Per-node timeline over the virtual "
            "horizon: queue-depth sparklines (single hue) with chaos, "
            "detector, and steal instants as colored ticks."
            "</figcaption>"
            + "".join(legend) + _fleet_timeline_svg(obs)
            + (_details_table(["track", "ms", "event"], marker_rows, 1)
               if marker_rows else "")
            + "</figure>")

    if obs.get("slo"):
        parts.append(_fleet_slo_table(obs["slo"]))
    return "".join(parts)


def _profile_section(record) -> str:
    """Cycle-exact flame graphs (and the differential view when both
    sides of a round trip carry a profile and disagree)."""
    from repro.obs.forensics import diff_lines, diff_profiles, \
        render_flame_diff_svg
    from repro.obs.profiler import render_flame_svg

    profiles = record.figures.get("profile", {})
    if not profiles:
        return ""
    parts = ["<h2>Cycle-exact profile</h2>"]
    for side in sorted(profiles):
        profile = profiles[side]
        twin_rows = [[";".join(e["stack"]), e["tier"],
                      f"{e['cycles']:,}"]
                     for e in profile.get("stacks", [])[:12]]
        parts.append(
            "<figure><figcaption>"
            f"{_e(side)}: {profile.get('samples', 0):,} samples, "
            f"{profile.get('total_cycles', 0):,} cycles attributed "
            "exactly — per-source frame totals sum to the ledger "
            "(stride "
            f"{profile.get('stride', '?')}/"
            f"{profile.get('jit_stride', '?')}).</figcaption>"
            + render_flame_svg(profile,
                               title=f"{side} guest cycles")
            + _details_table(["stack", "tier", "cycles"], twin_rows, 2)
            + "</figure>")
    if "play" in profiles and "replay" in profiles:
        diff = diff_profiles(profiles["play"], profiles["replay"])
        if diff["entries"]:
            diff_rows = [[";".join(e["stack"]), e["source"],
                          f"{e['play']:,}", f"{e['replay']:,}",
                          f"{e['delta']:+,}"]
                         for e in diff["entries"][:12]]
            parts.append(
                "<figure><figcaption>Divergence forensics: "
                + _e(diff_lines(diff, top=0)[1].strip())
                + "</figcaption>"
                + render_flame_diff_svg(profiles["play"],
                                        profiles["replay"])
                + _details_table(["divergent frame", "source", "play",
                                  "replay", "delta"], diff_rows, 2)
                + "</figure>")
        else:
            parts.append('<p class="meta">play and replay profiles '
                         "agree cycle-exactly.</p>")
    return "".join(parts)


def _run_section(run_id: str, record) -> str:
    parts = [f"<h1>{_e(record.kind)} — <code>{_e(run_id)}</code></h1>"]
    meta = []
    if record.label:
        meta.append(_e(record.label))
    if record.config:
        meta.append(", ".join(f"{k}={v}" for k, v
                              in sorted(record.config.items())))
    if record.seeds:
        meta.append(f"seeds {record.seeds}")
    if record.flights:
        meta.append(f"{len(record.flights)} divergence flight record(s)")
    if meta:
        parts.append(f'<p class="meta">{" · ".join(meta)}</p>')
    if "fig6" in record.figures:
        parts.append(_fig6_section(record.figures["fig6"]))
    if "fig8" in record.figures:
        parts.append(_roc_section(record.figures["fig8"]))
    if "fleet_obs" in record.figures:
        parts.append(_fleet_section(record.figures["fleet_obs"]))
    if "profile" in record.figures:
        parts.append(_profile_section(record))
    parts.append(_table1_section(record))
    parts.append(_verdicts_section(record.verdicts))
    parts.append(_phases_section(record.metrics))
    return "".join(parts)


def render_html(runs: "list[tuple[str, object]]",
                title: str = "TDR experiment report") -> str:
    """One self-contained HTML document for ``(run_id, record)`` pairs."""
    body = "".join(_run_section(run_id, record)
                   for run_id, record in runs)
    return ("<!DOCTYPE html><html lang=\"en\"><head>"
            "<meta charset=\"utf-8\">"
            "<meta name=\"viewport\" "
            "content=\"width=device-width, initial-scale=1\">"
            f"<title>{_e(title)}</title>"
            f"<style>{_CSS}</style></head><body>"
            f"{body}"
            "<p class=\"meta\">Generated by repro.obs.report — "
            "stdlib only, no external assets.</p>"
            "</body></html>")
