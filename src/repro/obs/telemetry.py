"""Service-level telemetry: distributed tracing and metrics exposition.

Three primitives unify the operational story of the whole stack:

* **Spans** (:class:`Span`, :class:`Tracer`) — lightweight distributed
  tracing.  A span is one timed operation; spans share a ``trace_id``
  and link through ``parent_id``, so one submitted job's journey —
  submission, queue wait, every supervised attempt with its retries and
  backoff, checkpoint saves and the restore point — renders as a single
  tree.  Context propagates on ``ContextVar``\\ s (:func:`use_tracer`,
  :func:`current_span`) inside a process and as plain
  ``(trace_id, parent_id)`` pairs across process and HTTP boundaries
  (the ``X-Trace-Id`` header, worker payloads).

* **TelemetryHub** — the aggregation point one process exposes: a
  :class:`~repro.obs.metrics.MetricRegistry` of counters/gauges/latency
  histograms plus scrape-time sources, rendered as Prometheus text
  exposition (:meth:`TelemetryHub.render_prometheus`) with
  p50/p95/p99 quantile summaries, and a bounded buffer of finished
  spans (local ends and ingested worker exports).

* **Exports** — spans serialize to the same artifact formats the
  observability sinks already speak: JSONL (one span per line,
  :func:`load_spans` round-trips it) and the Chrome trace-event format
  (:func:`spans_to_chrome`), so Perfetto renders a job timeline next to
  the simulator's own flit traces.  :func:`render_span_trees` is the
  terminal view (``repro trace``) with critical-path annotation.

The contract inherited from PR 3 holds: telemetry is observation only.
Nothing here enters a job's cache key, and with no tracer installed
every hook (:func:`add_event`, :func:`span`) is a ContextVar read —
telemetry-off runs are byte-identical.
"""

from __future__ import annotations

import json
import re
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs.metrics import MetricRegistry, WindowedHistogram

#: HTTP header carrying the trace id from client to server.
TRACE_HEADER = "X-Trace-Id"

#: Characters allowed in an externally supplied trace id.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Default bucket bounds (seconds) for service latency histograms:
#: sub-millisecond cache hits through multi-minute simulations.
LATENCY_BOUNDS_S = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Quantiles exported in Prometheus summaries and span statistics.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-char span id."""
    return uuid.uuid4().hex[:16]


def valid_trace_id(trace_id: str) -> bool:
    """True when an externally supplied trace id is safe to adopt."""
    return bool(_TRACE_ID_RE.match(trace_id))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed operation inside a trace.

    Wall-clock ``start_unix`` anchors the span for display and
    cross-process alignment; the duration is measured with
    ``time.monotonic`` so clock steps cannot produce negative spans.
    ``events`` are point-in-time annotations (retry, backoff,
    checkpoint save/restore) with offsets from the span start.
    """

    name: str
    trace_id: str
    span_id: str = field(default_factory=new_span_id)
    parent_id: Optional[str] = None
    start_unix: float = 0.0
    duration_s: Optional[float] = None
    status: str = "ok"
    attrs: Dict[str, Any] = field(default_factory=dict)
    events: List[dict] = field(default_factory=list)
    _start_mono: float = field(default=0.0, repr=False)
    _on_end: Optional[Callable[["Span"], None]] = field(
        default=None, repr=False
    )

    @property
    def ended(self) -> bool:
        return self.duration_s is not None

    @property
    def end_unix(self) -> float:
        return self.start_unix + (self.duration_s or 0.0)

    def event(self, name: str, **attrs: Any) -> dict:
        """Attach a point-in-time event at the current offset."""
        evt = {
            "name": name,
            "t_offset_s": round(
                max(0.0, time.monotonic() - self._start_mono), 6
            ),
        }
        if attrs:
            evt.update(attrs)
        self.events.append(evt)
        return evt

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def end(self, status: Optional[str] = None) -> "Span":
        """Close the span (idempotent) and export it to the tracer."""
        if self.ended:
            return self
        self.duration_s = round(
            max(0.0, time.monotonic() - self._start_mono), 9
        )
        if status is not None:
            self.status = status
        if self._on_end is not None:
            self._on_end(self)
        return self

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        doc: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": round(self.start_unix, 6),
            "duration_s": self.duration_s,
            "status": self.status,
        }
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        if self.events:
            doc["events"] = list(self.events)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "Span":
        return cls(
            name=doc["name"],
            trace_id=doc["trace_id"],
            span_id=doc.get("span_id") or new_span_id(),
            parent_id=doc.get("parent_id"),
            start_unix=float(doc.get("start_unix", 0.0)),
            duration_s=doc.get("duration_s"),
            status=doc.get("status", "ok"),
            attrs=dict(doc.get("attrs", {})),
            events=list(doc.get("events", [])),
        )


class Tracer:
    """Creates spans and hands finished ones to an export callback.

    Thread-safe by construction: span creation touches no shared state
    and ``on_end`` receivers (the hub, a worker's frame queue) do their
    own locking.
    """

    def __init__(self, on_end: Optional[Callable[[Span], None]] = None):
        self.on_end = on_end
        self.spans_started = 0

    def start_span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> Span:
        """A new live span; defaults parentage to the current span."""
        parent = current_span()
        if trace_id is None:
            trace_id = parent.trace_id if parent else new_trace_id()
        if parent_id is None and parent is not None:
            parent_id = parent.span_id
        self.spans_started += 1
        return Span(
            name=name,
            trace_id=trace_id,
            parent_id=parent_id,
            start_unix=time.time(),
            attrs=dict(attrs) if attrs else {},
            _start_mono=time.monotonic(),
            _on_end=self.on_end,
        )

    @contextmanager
    def span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        attrs: Optional[Mapping[str, Any]] = None,
    ):
        """Context-managed span, installed as the current span."""
        s = self.start_span(
            name, trace_id=trace_id, parent_id=parent_id, attrs=attrs
        )
        token = _SPAN.set(s)
        try:
            yield s
        except BaseException as exc:
            s.end(status=f"error:{type(exc).__name__}")
            raise
        else:
            s.end()
        finally:
            _SPAN.reset(token)


# ----------------------------------------------------------------------
# Context propagation
# ----------------------------------------------------------------------
_TRACER: ContextVar[Optional[Tracer]] = ContextVar(
    "repro_obs_tracer", default=None
)
_SPAN: ContextVar[Optional[Span]] = ContextVar(
    "repro_obs_span", default=None
)


def current_tracer() -> Optional[Tracer]:
    """The tracer installed for this context, if any."""
    return _TRACER.get()


def current_span() -> Optional[Span]:
    """The innermost live span of this context, if any."""
    return _SPAN.get()


@contextmanager
def use_tracer(tracer: Optional[Tracer]):
    """Install ``tracer`` as the context's tracer."""
    token = _TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _TRACER.reset(token)


@contextmanager
def activate_span(span: Optional[Span], tracer: Optional[Tracer] = None):
    """Make an externally managed span the context's current span.

    The server uses this around admission/queueing so library hooks
    (:func:`add_event` in :mod:`repro.serve.session`) land on the job's
    root span without the span's lifetime being tied to the context.
    """
    span_token = _SPAN.set(span)
    tracer_token = _TRACER.set(tracer) if tracer is not None else None
    try:
        yield span
    finally:
        _SPAN.reset(span_token)
        if tracer_token is not None:
            _TRACER.reset(tracer_token)


@contextmanager
def span(name: str, **attrs: Any):
    """A child span of the current context — or a free no-op.

    This is the hook production code embeds: with no tracer installed
    the cost is one ContextVar read and results are untouched.
    """
    tracer = _TRACER.get()
    if tracer is None:
        yield None
        return
    with tracer.span(name, attrs=attrs or None) as s:
        yield s


def add_event(name: str, **attrs: Any) -> bool:
    """Annotate the current span; False (and free) when none is live.

    The no-op path is the telemetry-off contract: a bare ContextVar
    read, no allocation, no behavioural difference.
    """
    s = _SPAN.get()
    if s is None or s.ended:
        return False
    s.event(name, **attrs)
    return True


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
#: Content type of the exposition format we emit.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")
_METRIC_LINE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(?:\{([^{}]*)\})?"                     # optional labels
    r"\s+"
    r"([+-]?(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|Inf|NaN))"                            # value
    r"(?:\s+[+-]?\d+)?\s*$"                  # optional timestamp
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_VALID_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")


def sanitize_metric_name(name: str) -> str:
    """Map an internal dotted metric name onto the Prometheus charset."""
    name = _NAME_SANITIZE_RE.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def parse_prometheus_text(text: str) -> dict:
    """Parse (and syntax-validate) Prometheus text exposition.

    Returns ``{"types": {name: type}, "help": {name: text},
    "samples": [(name, labels_dict, value), ...]}``.  Raises
    :class:`ValueError` naming the offending line on any syntax error —
    which is exactly what the CI smoke test wants from a scrape.
    """
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                mtype = parts[3] if len(parts) > 3 else ""
                if mtype not in _VALID_TYPES:
                    raise ValueError(
                        f"line {lineno}: invalid metric type {mtype!r}"
                    )
                types[parts[2]] = mtype
            elif len(parts) >= 3 and parts[1] == "HELP":
                helps[parts[2]] = parts[3] if len(parts) > 3 else ""
            # other comments are legal and ignored
            continue
        m = _METRIC_LINE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name, label_blob, value = m.group(1), m.group(2), m.group(3)
        labels: Dict[str, str] = {}
        if label_blob:
            matched = _LABEL_RE.findall(label_blob)
            stripped = _LABEL_RE.sub("", label_blob)
            if stripped.strip(", \t"):
                raise ValueError(
                    f"line {lineno}: malformed labels {label_blob!r}"
                )
            for key, val in matched:
                labels[key] = (
                    val.replace(r"\"", '"')
                    .replace(r"\n", "\n")
                    .replace("\\\\", "\\")
                )
        samples.append((name, labels, float(value)))
    return {"types": types, "help": helps, "samples": samples}


# ----------------------------------------------------------------------
# The hub
# ----------------------------------------------------------------------
class TelemetryHub:
    """One process's aggregation point for metrics and finished spans.

    * ``registry`` — a :class:`MetricRegistry` the host increments
      directly (histograms here are *cumulative*: the hub never resets
      them, so :meth:`render_prometheus` can state lifetime quantiles);
    * counter/gauge **sources** — callables polled at scrape time that
      surface state living elsewhere (the server's queue depth, the
      cache's hit counters) without mirroring writes;
    * attached registries — other components' own
      :class:`MetricRegistry` instances (e.g. a
      :class:`~repro.obs.probe.MetricsProbe`'s), folded into the same
      exposition;
    * a bounded deque of finished spans, fed by the hub's own tracer
      and by :meth:`ingest_span` for spans exported from workers.
    """

    def __init__(
        self,
        registry: Optional[MetricRegistry] = None,
        span_buffer: int = 20_000,
    ):
        if span_buffer < 1:
            raise ValueError("span buffer needs room for at least one span")
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = Tracer(on_end=self.record_span)
        self._spans: "deque[dict]" = deque(maxlen=span_buffer)
        self.spans_dropped = 0
        self.spans_recorded = 0
        self._span_buffer = span_buffer
        self._lock = threading.Lock()
        self._counter_sources: List[Callable[[], Mapping[str, float]]] = []
        self._gauge_sources: List[Callable[[], Mapping[str, float]]] = []
        self._registries: List[Tuple[str, MetricRegistry]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def record_span(self, span: Union[Span, Mapping[str, Any]]) -> None:
        doc = span.to_dict() if isinstance(span, Span) else dict(span)
        with self._lock:
            if len(self._spans) >= self._span_buffer:
                self.spans_dropped += 1
            self._spans.append(doc)
            self.spans_recorded += 1

    def ingest_span(self, doc: Mapping[str, Any]) -> None:
        """Record a span exported by another process (a worker)."""
        self.record_span(doc)

    def spans(self, trace_id: Optional[str] = None) -> List[dict]:
        """Finished spans (optionally one trace), oldest first."""
        with self._lock:
            spans = list(self._spans)
        if trace_id is not None:
            spans = [s for s in spans if s.get("trace_id") == trace_id]
        return spans

    def trace_ids(self) -> List[str]:
        with self._lock:
            seen: Dict[str, None] = {}
            for s in self._spans:
                seen.setdefault(s.get("trace_id", ""), None)
        return [t for t in seen if t]

    def export_spans(
        self, path: Union[str, Path], trace_id: Optional[str] = None
    ) -> int:
        """Write spans as JSONL (the :func:`load_spans` format)."""
        spans = self.spans(trace_id)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for doc in spans:
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
        return len(spans)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def latency_histogram(self, name: str) -> WindowedHistogram:
        """A cumulative latency histogram with the service bounds."""
        return self.registry.histogram(name, LATENCY_BOUNDS_S)

    def add_counter_source(
        self, fn: Callable[[], Mapping[str, float]]
    ) -> None:
        """Poll ``fn`` at scrape time for ``{name: monotonic_total}``."""
        self._counter_sources.append(fn)

    def add_gauge_source(
        self, fn: Callable[[], Mapping[str, float]]
    ) -> None:
        """Poll ``fn`` at scrape time for ``{name: point_in_time}``."""
        self._gauge_sources.append(fn)

    def attach_registry(
        self, registry: MetricRegistry, prefix: str = ""
    ) -> None:
        """Fold another component's registry into the exposition."""
        self._registries.append((prefix, registry))

    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The hub's whole state in Prometheus text exposition format."""
        lines: List[str] = []
        emitted: Dict[str, str] = {}

        def head(name: str, mtype: str) -> str:
            prom = sanitize_metric_name(name)
            prev = emitted.get(prom)
            if prev is None:
                lines.append(f"# TYPE {prom} {mtype}")
                emitted[prom] = mtype
            return prom

        def emit_registry(prefix: str, registry: MetricRegistry) -> None:
            for cname in sorted(registry._counters):
                prom = head(prefix + cname, "counter")
                value = registry._counters[cname].value
                lines.append(f"{prom} {_format_value(value)}")
            for gname in sorted(registry._gauges):
                prom = head(prefix + gname, "gauge")
                value = registry._gauges[gname].value
                lines.append(f"{prom} {_format_value(value)}")
            for hname in sorted(registry._histograms):
                hist = registry._histograms[hname]
                prom = head(prefix + hname, "summary")
                for q in SUMMARY_QUANTILES:
                    lines.append(
                        f'{prom}{{quantile="{q:g}"}} '
                        f"{_format_value(hist.quantile(q))}"
                    )
                lines.append(f"{prom}_sum {_format_value(hist.total)}")
                lines.append(f"{prom}_count {_format_value(hist.count)}")

        emit_registry("", self.registry)
        for prefix, registry in self._registries:
            emit_registry(prefix, registry)
        for source in self._counter_sources:
            for name, value in sorted(source().items()):
                prom = head(name, "counter")
                lines.append(f"{prom} {_format_value(float(value))}")
        for source in self._gauge_sources:
            for name, value in sorted(source().items()):
                prom = head(name, "gauge")
                lines.append(f"{prom} {_format_value(float(value))}")
        prom = head("repro_telemetry_spans_recorded", "counter")
        lines.append(f"{prom} {self.spans_recorded}")
        prom = head("repro_telemetry_spans_dropped", "counter")
        lines.append(f"{prom} {self.spans_dropped}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Span trees: loading, rendering, critical path, Chrome export
# ----------------------------------------------------------------------
def load_spans(path: Union[str, Path]) -> List[dict]:
    """Read spans from JSONL: raw span dicts *or* captured NDJSON
    stream frames (``{"type": "span", "span": {...}}``) — both formats
    the stack emits."""
    spans: List[dict] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if not isinstance(doc, dict):
                continue
            if doc.get("type") == "span" and isinstance(
                doc.get("span"), dict
            ):
                doc = doc["span"]
            if "trace_id" in doc and "name" in doc and "span_id" in doc:
                spans.append(doc)
    return spans


def _children_index(spans: Sequence[Mapping]) -> Dict[Optional[str], List]:
    by_parent: Dict[Optional[str], List] = {}
    ids = {s["span_id"] for s in spans}
    for s in spans:
        parent = s.get("parent_id")
        if parent not in ids:
            parent = None  # orphan (parent span lost, e.g. killed worker)
        by_parent.setdefault(parent, []).append(s)
    for kids in by_parent.values():
        kids.sort(key=lambda s: (s.get("start_unix", 0.0), s["span_id"]))
    return by_parent


def critical_path(spans: Sequence[Mapping]) -> List[str]:
    """Span ids on the critical path: from each root, repeatedly the
    child whose *end* time is latest — the chain that gated the trace's
    completion."""
    if not spans:
        return []
    by_parent = _children_index(spans)

    def end_of(s: Mapping) -> float:
        return s.get("start_unix", 0.0) + (s.get("duration_s") or 0.0)

    roots = by_parent.get(None, [])
    if not roots:
        return []
    path: List[str] = []
    node = max(roots, key=end_of)
    while node is not None:
        path.append(node["span_id"])
        kids = by_parent.get(node["span_id"], [])
        node = max(kids, key=end_of) if kids else None
    return path


def render_span_trees(
    spans: Sequence[Mapping],
    trace_id: Optional[str] = None,
    critical: bool = True,
) -> str:
    """ASCII span trees, one per trace, with critical-path markers."""
    if trace_id is not None:
        spans = [s for s in spans if s.get("trace_id") == trace_id]
    by_trace: Dict[str, List[dict]] = {}
    for s in spans:
        by_trace.setdefault(s.get("trace_id", "?"), []).append(dict(s))

    out: List[str] = []
    for tid in by_trace:
        group = by_trace[tid]
        crit = set(critical_path(group)) if critical else set()
        by_parent = _children_index(group)
        starts = [s.get("start_unix", 0.0) for s in group]
        ends = [
            s.get("start_unix", 0.0) + (s.get("duration_s") or 0.0)
            for s in group
        ]
        total = max(ends) - min(starts) if group else 0.0
        out.append(
            f"trace {tid}  ({len(group)} spans, {total:.3f}s"
            + (", * = critical path" if crit else "")
            + ")"
        )

        def walk(parent: Optional[str], prefix: str) -> None:
            kids = by_parent.get(parent, [])
            for i, s in enumerate(kids):
                last = i == len(kids) - 1
                branch = "└─ " if last else "├─ "
                cont = "   " if last else "│  "
                dur = s.get("duration_s")
                dur_s = f"{dur:.3f}s" if dur is not None else "(live)"
                status = s.get("status", "ok")
                badge = "" if status == "ok" else f"  !{status}"
                mark = "  *" if s["span_id"] in crit else ""
                attrs = s.get("attrs") or {}
                attr_s = ""
                if attrs:
                    keys = sorted(attrs)[:4]
                    attr_s = (
                        "  ["
                        + " ".join(f"{k}={attrs[k]}" for k in keys)
                        + "]"
                    )
                out.append(
                    f"{prefix}{branch}{s['name']}  {dur_s}"
                    f"{badge}{mark}{attr_s}"
                )
                for evt in s.get("events", []):
                    extra = " ".join(
                        f"{k}={v}"
                        for k, v in sorted(evt.items())
                        if k not in ("name", "t_offset_s")
                    )
                    out.append(
                        f"{prefix}{cont}  • +{evt.get('t_offset_s', 0):.3f}s "
                        f"{evt['name']}" + (f"  {extra}" if extra else "")
                    )
                walk(s["span_id"], prefix + cont)

        walk(None, "")
        out.append("")
    return "\n".join(out).rstrip("\n") + ("\n" if out else "")


def spans_to_chrome(spans: Sequence[Mapping]) -> dict:
    """Spans as a Chrome trace-event document (Perfetto-loadable).

    Spans become complete events (``"ph": "X"``) with microsecond
    timestamps relative to the earliest span; events become instants on
    the same track.  One thread track per trace.
    """
    doc: Dict[str, Any] = {"displayTimeUnit": "ms", "traceEvents": []}
    if not spans:
        return doc
    t0 = min(s.get("start_unix", 0.0) for s in spans)
    tids: Dict[str, int] = {}
    events: List[dict] = doc["traceEvents"]
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro-telemetry"},
        }
    )
    for s in spans:
        tid = tids.get(s.get("trace_id", "?"))
        if tid is None:
            tid = len(tids) + 1
            tids[s.get("trace_id", "?")] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": f"trace {s.get('trace_id', '?')}"},
                }
            )
        start_us = (s.get("start_unix", 0.0) - t0) * 1e6
        dur_us = (s.get("duration_s") or 0.0) * 1e6
        events.append(
            {
                "name": s.get("name", "?"),
                "cat": "span",
                "ph": "X",
                "ts": round(start_us, 3),
                "dur": round(dur_us, 3),
                "pid": 0,
                "tid": tid,
                "args": {
                    "span_id": s.get("span_id"),
                    "parent_id": s.get("parent_id"),
                    "status": s.get("status", "ok"),
                    **(s.get("attrs") or {}),
                },
            }
        )
        for evt in s.get("events", []):
            events.append(
                {
                    "name": evt.get("name", "event"),
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": round(
                        start_us + evt.get("t_offset_s", 0.0) * 1e6, 3
                    ),
                    "pid": 0,
                    "tid": tid,
                    "args": {
                        k: v
                        for k, v in evt.items()
                        if k not in ("name", "t_offset_s")
                    },
                }
            )
    return doc
