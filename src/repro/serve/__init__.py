"""repro.serve — simulation-as-a-service.

The batch stack (:mod:`repro.lab`) made sweeps declarative, cached, and
parallel; this subsystem makes them *served*: a long-lived asyncio
server multiplexing many concurrent clients over plain HTTP/1.1 and
NDJSON (stdlib only), answering **cache-first** from the same
content-addressed :class:`~repro.lab.ResultCache` that ``repro batch``
writes — an identical job spec, from any user at any time, costs zero
compute and one round trip.

Pieces:

* :mod:`repro.serve.protocol` — job submissions, stream frames, errors;
* :mod:`repro.serve.session` — per-session quotas and 429 backpressure;
* :mod:`repro.serve.workers` — the bounded worker slots (process or
  thread) running each job through the supervised runner
  :func:`repro.resilience.supervise.run_supervised` with live
  :class:`repro.obs.QueueSink` observation;
* :mod:`repro.serve.server` — the HTTP endpoint and job lifecycle;
* :mod:`repro.serve.client` — the blocking client (``repro submit``);
* :mod:`repro.serve.testing` — an embeddable server-in-a-thread.

See ``docs/tutorial.md`` §10 and ``examples/serve_session.py``.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import (
    JobSubmission,
    ProtocolError,
    StreamOptions,
    parse_submission,
)
from repro.serve.server import JobRecord, SimulationServer
from repro.serve.session import (
    QuotaExceeded,
    Session,
    SessionManager,
    SessionQuota,
)
from repro.serve.testing import ServerThread
from repro.serve.workers import CancelToken, WorkerBridge

__all__ = [
    "CancelToken",
    "JobRecord",
    "JobSubmission",
    "ProtocolError",
    "QuotaExceeded",
    "ServeClient",
    "ServeError",
    "ServerThread",
    "Session",
    "SessionManager",
    "SessionQuota",
    "SimulationServer",
    "StreamOptions",
    "WorkerBridge",
    "parse_submission",
]
