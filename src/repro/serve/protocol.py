"""Wire protocol of the simulation service: job specs, frames, errors.

The service speaks plain JSON over hand-rolled HTTP/1.1 (see
:mod:`repro.serve.server`); this module is the dependency-free layer
both sides share — the server validates submissions with it and the
client builds them with it.

A **submission** is the body of ``POST /jobs``::

    {
      "kind": "load_point",            # any registered repro.lab kind
      "params": {...},                 # plain-JSON runner parameters
      "seed": 7,                       # optional, default 0
      "tags": ["serve"],               # optional, free-form labels
      "stream": {                      # optional, observation-only
        "metrics_interval": 100,       #   live metric windows
        "trace": false                 #   per-flit trace frames
      }
    }

``kind``/``params``/``seed`` are exactly a :class:`repro.lab.Job` —
the submission hashes to the same content key as the equivalent
``repro batch`` job, which is what makes the server's cache-first
answer correct.  The ``stream`` block never enters the job (or its
key): it only configures a :class:`repro.lab.JobObserver`.

A **frame** is one NDJSON line of ``GET /jobs/{id}/stream``.  Every
frame has a ``type``: ``state`` (lifecycle transition), ``metrics`` /
``trace`` (live observation, produced by
:class:`repro.obs.QueueSink`), and a terminal ``result`` / ``error`` /
``cancelled`` frame.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.lab.jobs import Job, registered_kinds

PROTOCOL_VERSION = 1

#: Upper bound on an accepted request body (a job spec, not a dataset).
MAX_BODY_BYTES = 1 << 20

#: Job lifecycle states, in the order a computed job walks them.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")


class ProtocolError(Exception):
    """A malformed or unacceptable request, with its HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class StreamOptions:
    """Observation-only streaming configuration of one submission."""

    metrics_interval: Optional[int] = None
    trace: bool = False

    @property
    def wants_observer(self) -> bool:
        return bool(self.metrics_interval) or self.trace

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {}
        if self.metrics_interval:
            out["metrics_interval"] = self.metrics_interval
        if self.trace:
            out["trace"] = True
        return out


@dataclass(frozen=True)
class JobSubmission:
    """A validated ``POST /jobs`` body: the job plus stream options."""

    job: Job
    stream: StreamOptions = field(default_factory=StreamOptions)

    def to_dict(self) -> dict:
        body: Dict[str, Any] = {
            "kind": self.job.kind,
            "params": dict(self.job.params),
            "seed": self.job.seed,
        }
        if self.job.tags:
            body["tags"] = list(self.job.tags)
        stream = self.stream.to_dict()
        if stream:
            body["stream"] = stream
        return body


def _finite(text: str) -> float:
    """JSON number hook: ``NaN``, ``Infinity`` and overflowing literals
    have no canonical form, so the job could not be keyed."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def parse_submission(body: bytes) -> JobSubmission:
    """Validate a ``POST /jobs`` body into a :class:`JobSubmission`.

    Raises :class:`ProtocolError` (400) on anything malformed, so the
    server can reject without touching the worker pool.  An accepted
    submission can be keyed and charged: its params are finite JSON
    data, and its ``cycles`` parameter, if any, is a number.
    """
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError(413, "request body too large")
    try:
        doc = json.loads(
            body.decode("utf-8"), parse_float=_finite, parse_constant=_finite
        )
    except (UnicodeDecodeError, ValueError):
        raise ProtocolError(400, "request body is not valid JSON") from None
    except RecursionError:
        raise ProtocolError(400, "request body is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ProtocolError(400, "job submission must be a JSON object")

    unknown = set(doc) - {"kind", "params", "seed", "tags", "stream"}
    if unknown:
        raise ProtocolError(
            400, f"unknown submission fields: {sorted(unknown)}"
        )

    kind = doc.get("kind")
    if kind not in registered_kinds():
        raise ProtocolError(
            400,
            f"unknown job kind {kind!r}; "
            f"registered kinds: {list(registered_kinds())}",
        )
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(400, "params must be a JSON object")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ProtocolError(400, "seed must be an integer")
    tags = doc.get("tags", [])
    if not isinstance(tags, list) or not all(
        isinstance(t, str) for t in tags
    ):
        raise ProtocolError(400, "tags must be a list of strings")

    stream = _parse_stream(doc.get("stream"))
    try:
        job = Job(kind=kind, params=params, seed=seed, tags=tuple(tags))
    except RecursionError:
        raise ProtocolError(400, "params are nested too deeply") from None
    try:
        job_cycles(job)
    except (TypeError, ValueError, OverflowError):
        raise ProtocolError(400, "params.cycles must be a number") from None
    return JobSubmission(job=job, stream=stream)


def _parse_stream(doc: Any) -> StreamOptions:
    if doc is None:
        return StreamOptions()
    if not isinstance(doc, dict):
        raise ProtocolError(400, "stream must be a JSON object")
    unknown = set(doc) - {"metrics_interval", "trace"}
    if unknown:
        raise ProtocolError(400, f"unknown stream fields: {sorted(unknown)}")
    interval = doc.get("metrics_interval")
    if interval is not None and (
        not isinstance(interval, int)
        or isinstance(interval, bool)
        or interval < 1
    ):
        raise ProtocolError(400, "metrics_interval must be a positive int")
    trace = doc.get("trace", False)
    if not isinstance(trace, bool):
        raise ProtocolError(400, "trace must be a boolean")
    return StreamOptions(metrics_interval=interval, trace=trace)


# ----------------------------------------------------------------------
# Frames and encoding
# ----------------------------------------------------------------------
def state_frame(record: Mapping[str, Any]) -> dict:
    """The lifecycle frame a stream opens with (and emits on change)."""
    return {"type": "state", **record}


def encode_json(doc: Any) -> bytes:
    """Canonical one-line JSON encoding for bodies and NDJSON frames."""
    return json.dumps(doc, separators=(",", ":"), sort_keys=False).encode(
        "utf-8"
    )


def ndjson_line(frame: Mapping[str, Any]) -> bytes:
    return encode_json(frame) + b"\n"


def job_cycles(job: Job) -> int:
    """The cycle budget a job will consume, for quota admission.

    Mirrors each runner's own default so a spec that omits ``cycles``
    is charged what it will actually run.
    """
    defaults = {"fault_campaign": 4000}
    cycles = job.params.get("cycles", defaults.get(job.kind, 1500))
    runs = 1
    if job.kind == "saturation":
        # Bisection executes many points; charge a conservative factor.
        runs = 12
    return int(cycles) * runs
