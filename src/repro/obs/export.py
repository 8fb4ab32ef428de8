"""Journal exporters: span trees, Chrome traces, stats, Prometheus text.

All exporters work on the plain event list produced by
:func:`repro.obs.journal.read_journal`; none of them need the tracer to
be live.  Metrics events from different processes (pool workers) are
merged here — counters sum, gauges keep the latest value, histograms
fold bucket counts together.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .metrics import Histogram


# ----------------------------------------------------------------------
# Span tree
# ----------------------------------------------------------------------

class SpanNode:
    """One span (or point) with its children, for tree rendering."""

    __slots__ = ("event", "children")

    def __init__(self, event: Dict):
        self.event = event
        self.children: List["SpanNode"] = []

    @property
    def name(self) -> str:
        return self.event.get("name", "?")

    @property
    def duration(self) -> float:
        return self.event.get("dur", 0.0)


def build_span_tree(events: List[Dict]) -> List[SpanNode]:
    """Root spans (and orphan points) with children ordered by start time.

    Spans whose parent is missing from the journal (e.g. a worker
    fragment) become roots, so partial journals still render.
    """
    nodes: Dict[str, SpanNode] = {}
    ordered: List[Tuple[float, Dict]] = []
    for event in events:
        if event.get("ev") not in ("span", "point"):
            continue
        node = SpanNode(event)
        sid = event.get("sid")
        if sid:
            nodes[sid] = node
        ordered.append((event.get("ts", 0.0), event))
    roots: List[SpanNode] = []
    for _ts, event in ordered:
        sid = event.get("sid")
        node = nodes[sid] if sid else SpanNode(event)
        parent = event.get("parent")
        if parent and parent in nodes and parent != sid:
            nodes[parent].children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: child.event.get("ts", 0.0))
    roots.sort(key=lambda root: root.event.get("ts", 0.0))
    return roots


def _format_attrs(attrs: Dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))


def format_span_tree(
    events: List[Dict], max_depth: Optional[int] = None
) -> str:
    """Human-readable indented span tree with durations and attributes."""
    pids = sorted({e.get("pid") for e in events if "pid" in e})
    n_spans = sum(1 for e in events if e.get("ev") == "span")
    n_points = sum(1 for e in events if e.get("ev") == "point")
    lines = [
        f"{len(events)} events ({n_spans} spans, {n_points} points) "
        f"from {len(pids)} process(es): {pids}"
    ]

    def render(node: SpanNode, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        indent = "  " * depth
        attrs = node.event.get("attrs") or {}
        if node.event.get("ev") == "span":
            head = f"{indent}{node.name:<{max(1, 28 - 2 * depth)}s}"
            lines.append(
                f"{head} {node.duration * 1000.0:10.2f} ms"
                + (f"  {_format_attrs(attrs)}" if attrs else "")
            )
        else:
            lines.append(
                f"{indent}* {node.name}"
                + (f"  {_format_attrs(attrs)}" if attrs else "")
            )
        for child in node.children:
            render(child, depth + 1)

    for root in build_span_tree(events):
        render(root, 0)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Chrome trace-event JSON (chrome://tracing, Perfetto)
# ----------------------------------------------------------------------

def chrome_trace(events: List[Dict]) -> Dict:
    """The journal as a Chrome trace-event document.

    Spans become complete ("X") events, points become instants ("i");
    every process gets a metadata name.  Timestamps are microseconds
    relative to the earliest event, so multi-process journals line up on
    one timeline.
    """
    timestamps = [e["ts"] for e in events if "ts" in e]
    t0 = min(timestamps) if timestamps else 0.0
    trace_events: List[Dict] = []
    for pid in sorted({e.get("pid", 0) for e in events}):
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"repro pid {pid}"},
        })
    for event in events:
        kind = event.get("ev")
        base = {
            "name": event.get("name", kind),
            "pid": event.get("pid", 0),
            "tid": 0,
            "ts": (event.get("ts", t0) - t0) * 1e6,
            "args": event.get("attrs") or {},
        }
        if kind == "span":
            trace_events.append({
                **base, "ph": "X", "cat": "flow",
                "dur": event.get("dur", 0.0) * 1e6,
            })
        elif kind == "point":
            trace_events.append({**base, "ph": "i", "cat": "flow", "s": "t"})
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Scheduler Gantt (stage-graph runs)
# ----------------------------------------------------------------------

def format_gantt(events: List[Dict], width: int = 64) -> str:
    """ASCII Gantt chart of stage-graph scheduler tasks, one lane per worker.

    Uses the ``flow.<stage>`` spans tagged ``sched="stage"`` that every
    stage-DAG task records (:mod:`repro.flow.scheduler`); each bar is
    one (cell, stage) task positioned on the merged matrix timeline, so
    pipeline overlap — cell B's synthesis under cell A's physical stage —
    is directly visible.  Journals without such spans get a short hint
    instead.
    """
    spans = [
        e for e in events
        if e.get("ev") == "span"
        and str(e.get("name", "")).startswith("flow.")
        and (e.get("attrs") or {}).get("sched") == "stage"
    ]
    if not spans:
        return (
            "no scheduler task spans in this journal — record one with "
            "`repro tables --jobs N --trace`"
        )
    t0 = min(e.get("ts", 0.0) for e in spans)
    t1 = max(e.get("ts", 0.0) + e.get("dur", 0.0) for e in spans)
    total = max(t1 - t0, 1e-9)
    lanes = sorted({e.get("pid", 0) for e in spans})
    lines = [
        f"scheduler Gantt: {len(spans)} stage tasks over {total:.3f} s "
        f"on {len(lanes)} worker(s)"
    ]
    for pid in lanes:
        lines.append(f"worker {pid}:")
        lane = sorted(
            (e for e in spans if e.get("pid") == pid),
            key=lambda e: e.get("ts", 0.0),
        )
        for e in lane:
            attrs = e.get("attrs") or {}
            label = (
                f"{attrs.get('design', '?')}/{attrs.get('arch', '?')}"
                f":{attrs.get('stage', '?')}"
            )
            if attrs.get("cached"):
                label += " (cached)"
            start = int((e.get("ts", t0) - t0) / total * width)
            start = min(start, width - 1)
            length = max(1, round(e.get("dur", 0.0) / total * width))
            bar = " " * start + "#" * min(length, width - start)
            lines.append(
                f"  {label:30s} |{bar:<{width}s}| "
                f"{e.get('dur', 0.0) * 1000.0:9.2f} ms"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Metrics merging + summaries
# ----------------------------------------------------------------------

def merge_counters(events: List[Dict]) -> Dict[str, int]:
    """Counter totals summed across all processes in the journal."""
    totals: Dict[str, int] = {}
    for event in events:
        if event.get("ev") == "counter":
            name = event["name"]
            totals[name] = totals.get(name, 0) + event.get("value", 0)
    return totals


def merge_gauges(events: List[Dict]) -> Dict[str, float]:
    """Gauge values, latest snapshot wins per name."""
    latest: Dict[str, Tuple[float, float]] = {}
    for event in events:
        if event.get("ev") == "gauge":
            ts = event.get("ts", 0.0)
            name = event["name"]
            if name not in latest or ts >= latest[name][0]:
                latest[name] = (ts, event.get("value", 0.0))
    return {name: value for name, (_ts, value) in latest.items()}


def merge_histograms(events: List[Dict]) -> Dict[str, Histogram]:
    """Histograms folded together across all processes in the journal."""
    merged: Dict[str, Histogram] = {}
    for event in events:
        if event.get("ev") != "hist":
            continue
        h = Histogram.from_event(event)
        if h.name in merged:
            merged[h.name].merge(h)
        else:
            merged[h.name] = h
    return merged


def format_stats(events: List[Dict]) -> str:
    """Counters, gauges, and histogram percentiles as a text report."""
    counters = merge_counters(events)
    gauges = merge_gauges(events)
    histograms = merge_histograms(events)
    lines: List[str] = []
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:32s} {counters[name]:>12d}")
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:32s} {gauges[name]:>12.4f}")
    if histograms:
        lines.append("histograms:")
        lines.append(
            f"  {'name':32s} {'count':>7s} {'mean':>10s} {'p50':>10s} "
            f"{'p90':>10s} {'p95':>10s} {'p99':>10s} {'max':>10s}"
        )
        for name in sorted(histograms):
            h = histograms[name]
            lines.append(
                f"  {name:32s} {h.count:>7d} {h.mean:>10.4f} "
                f"{h.percentile(50):>10.4f} {h.percentile(90):>10.4f} "
                f"{h.percentile(95):>10.4f} {h.percentile(99):>10.4f} "
                f"{(h.max if h.count else 0.0):>10.4f}"
            )
    if not lines:
        lines.append("no metrics recorded in this journal")
    return "\n".join(lines)


_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def prometheus_text(events: List[Dict]) -> str:
    """The journal's metrics in Prometheus exposition format."""
    lines: List[str] = []
    for name, value in sorted(merge_counters(events).items()):
        prom = _prom_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name, value in sorted(merge_gauges(events).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {value}")
    for name, h in sorted(merge_histograms(events).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, count in zip(h.bounds, h.counts):
            cumulative += count
            lines.append(f'{prom}_bucket{{le="{bound}"}} {cumulative}')
        cumulative += h.counts[-1]
        lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{prom}_sum {h.sum}")
        lines.append(f"{prom}_count {h.count}")
    return "\n".join(lines)
