"""Correlated structured logging for the serve/resilience stack.

One JSON object per line on stderr (or any stream/file), every line
stamped with whatever correlation context is live: the current trace
id and span from :mod:`repro.obs.telemetry`, plus any explicit fields
bound with :func:`bind_log_context` (job id, session, attempt).  Lines
from the server, a supervisor, and a worker that served the same job
therefore all grep together by ``trace_id`` — the logging half of the
"one job, one story" contract the span tree tells.

Built on stdlib ``logging`` so library code keeps using module loggers
(``logging.getLogger("repro.serve")``) and hosts opt in by calling
:func:`configure_logging`; with no call, repro loggers stay silent
(a ``NullHandler`` on the ``repro`` root) exactly as before.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Mapping, Optional

from repro.obs.telemetry import current_span

#: Fields every JSON log line carries, in this order.
_BASE_FIELDS = ("ts", "level", "logger", "message")

#: LogRecord attributes that are plumbing, not user data.
_RECORD_INTERNAL = frozenset(
    (
        "args", "asctime", "created", "exc_info", "exc_text", "filename",
        "funcName", "levelname", "levelno", "lineno", "module", "msecs",
        "msg", "message", "name", "pathname", "process", "processName",
        "relativeCreated", "stack_info", "taskName", "thread",
        "threadName",
    )
)

_CONTEXT: ContextVar[Optional[Dict[str, Any]]] = ContextVar(
    "repro_obs_log_context", default=None
)


@contextmanager
def bind_log_context(**fields: Any):
    """Stamp ``fields`` (job_id, session, ...) on every log line inside.

    Nests: inner bindings extend outer ones and win on key collisions.
    """
    current = _CONTEXT.get() or {}
    token = _CONTEXT.set({**current, **fields})
    try:
        yield
    finally:
        _CONTEXT.reset(token)


class JsonLogFormatter(logging.Formatter):
    """Render each record as one JSON object with correlation stamps.

    Order is stable (base fields, then trace context, then bound and
    per-call extras sorted by key) so lines diff cleanly.  Values that
    refuse JSON are stringified rather than raised — logging must never
    take the service down.
    """

    def format(self, record: logging.LogRecord) -> str:
        doc: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        span = current_span()
        if span is not None:
            doc.setdefault("trace_id", span.trace_id)
            doc.setdefault("span_id", span.span_id)
        extras: Dict[str, Any] = {}
        ctx = _CONTEXT.get()
        if ctx:
            extras.update(ctx)
        for key, value in record.__dict__.items():
            if key in _RECORD_INTERNAL or key in _BASE_FIELDS:
                continue
            if key.startswith("_"):
                continue
            extras[key] = value
        for key in sorted(extras):
            if key not in doc:
                doc[key] = extras[key]
        if record.exc_info and record.exc_info[0] is not None:
            doc["exception"] = self.formatException(record.exc_info)
        try:
            return json.dumps(doc, separators=(",", ":"), default=str)
        except (TypeError, ValueError):
            return json.dumps(
                {k: str(v) for k, v in doc.items()},
                separators=(",", ":"),
            )


def configure_logging(
    level: int = logging.INFO,
    stream=None,
    logger: str = "repro",
) -> logging.Handler:
    """Route ``repro.*`` loggers through the JSON formatter.

    Idempotent: an existing JSON handler on the target logger is
    replaced, not duplicated, so test harnesses and repeated CLI entry
    points can call this freely.  Returns the installed handler.
    """
    root = logging.getLogger(logger)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_json", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(JsonLogFormatter())
    handler._repro_json = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return handler


# Silence by default: importing repro must not spray logs on hosts that
# never opted in (same posture as warnings-free library code).
logging.getLogger("repro").addHandler(logging.NullHandler())
