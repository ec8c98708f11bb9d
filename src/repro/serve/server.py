"""The asyncio simulation server: cache-first jobs over HTTP/NDJSON.

One event loop multiplexes every client: HTTP/1.1 is parsed by hand on
top of :func:`asyncio.start_server` (stdlib only — no web framework),
simulations run through the :class:`~repro.serve.workers.WorkerBridge`
(the supervised runner ``repro batch --jobs N`` uses too),
and results flow through the same content-addressed
:class:`~repro.lab.ResultCache` and :class:`~repro.lab.ResultStore`
that ``repro batch`` uses.  That shared substrate is the product story:
a job spec submitted by any user, any session, any day hashes to the
same content key, so the second identical submission — POST body equal,
cache warm — is answered in one round trip with **zero worker
dispatch**.

Routes (``Connection: close``; one request per connection):

=====================  ================================================
``POST /jobs``         submit a job spec; 200 + result on a cache hit,
                       202 + job id when queued, 429 over quota
``GET /jobs/{id}``     job status (plus result once done)
``GET /jobs/{id}/stream``  NDJSON frames: state, live metrics/trace,
                       terminal result/error/cancelled
``DELETE /jobs/{id}``  cooperative cancel (drops queued jobs instantly)
``GET /healthz``       liveness
``GET /stats``         sessions, queue depth, cache hit rate, workers
``GET /metrics``       Prometheus text exposition (counters, gauges,
                       p50/p95/p99 latency summaries)
``GET /traces/{id}``   one trace's finished spans as NDJSON
=====================  ================================================

Telemetry: every submission owns a trace — adopted from the client's
``X-Trace-Id`` header or minted here — whose span tree records the
queue wait, every supervised attempt (with retry/backoff events), and,
via span frames relayed from the workers, the in-worker execution with
its checkpoint saves and restore points.  Spans and latency histograms
aggregate in a :class:`~repro.obs.telemetry.TelemetryHub`; everything
stays observation-only (nothing enters cache keys or results).
"""

from __future__ import annotations

import asyncio
import logging
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.lab.cache import NullCache, ResultCache
from repro.lab.jobs import JobCancelled
from repro.lab.store import ResultStore
from repro.obs.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    Span,
    TelemetryHub,
    Tracer,
    activate_span,
    new_trace_id,
    valid_trace_id,
)
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    PROTOCOL_VERSION,
    TERMINAL_STATES,
    JobSubmission,
    ProtocolError,
    encode_json,
    ndjson_line,
    parse_submission,
    state_frame,
)
from repro.resilience.supervise import RetryPolicy, is_quarantined
from repro.serve.session import QuotaExceeded, SessionManager, SessionQuota
from repro.serve.workers import CancelToken, WorkerBridge

log = logging.getLogger("repro.serve")

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Seconds a client has to send one whole request, head and body.
REQUEST_DEADLINE_S = 30.0

#: Frames buffered per job for late/slow stream consumers.
DEFAULT_STREAM_BUFFER = 4096

#: Finished job records kept for status queries; older ones are retired
#: (a GET for them answers 404), so a long-running server stays bounded.
MAX_FINISHED_JOBS = 1024


@dataclass
class JobRecord:
    """One submitted job's lifetime inside the server.

    Two clocks, deliberately: the wall-clock ``created``/``started``/
    ``finished`` stamps are for display and cross-host correlation,
    while every *duration* derives from the ``*_mono`` twins taken from
    ``time.monotonic()`` — an NTP step between submission and
    completion can no longer report a negative (or wildly inflated)
    job duration.
    """

    job_id: str
    submission: JobSubmission
    key: str
    session_id: str
    state: str = "queued"
    cached: bool = False
    result: Optional[dict] = None
    error: Optional[str] = None
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    created_mono: float = field(default_factory=time.monotonic)
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None
    frames: List[dict] = field(default_factory=list)
    frames_base: int = 0          # absolute index of frames[0]
    frames_dropped: int = 0
    update: asyncio.Event = field(default_factory=asyncio.Event)
    cancel: CancelToken = field(default_factory=CancelToken)
    attempts: List[str] = field(default_factory=list)  # per-retry diagnoses
    quarantined: bool = False     # failed with the retry budget exhausted
    trace_id: str = ""
    span: Optional[Span] = None        # the trace's root "job" span
    queue_span: Optional[Span] = None  # child covering the queue wait

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def timing(self) -> Dict[str, float]:
        """Monotonic-derived durations (queue wait, run, end-to-end)."""
        timing: Dict[str, float] = {}
        if self.started_mono is not None:
            timing["queue_wait_s"] = round(
                self.started_mono - self.created_mono, 6
            )
        if self.finished_mono is not None:
            timing["total_s"] = round(
                self.finished_mono - self.created_mono, 6
            )
            if self.started_mono is not None:
                timing["run_s"] = round(
                    self.finished_mono - self.started_mono, 6
                )
        return timing

    def snapshot(self, with_result: bool = False) -> dict:
        doc: Dict[str, Any] = {
            "id": self.job_id,
            "key": self.key,
            "kind": self.submission.job.kind,
            "seed": self.submission.job.seed,
            "session": self.session_id,
            "state": self.state,
            "cached": self.cached,
        }
        if self.trace_id:
            doc["trace_id"] = self.trace_id
        if self.error is not None:
            doc["error"] = self.error
        if self.attempts:
            doc["retries"] = len(self.attempts)
        if self.quarantined:
            doc["quarantined"] = True
        if self.frames_dropped:
            doc["frames_dropped"] = self.frames_dropped
        timing = self.timing()
        if timing:
            doc["timing"] = timing
        if with_result and self.result is not None:
            doc["result"] = self.result
        return doc


class SimulationServer:
    """Long-lived simulation-as-a-service endpoint.

    Construct, ``await start()``, then either ``await serve_forever()``
    (the CLI path) or talk to ``host``/``port`` directly (tests embed
    the server in a side thread — see :mod:`repro.serve.testing`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        worker_mode: str = "process",
        cache: Optional[ResultCache] = None,
        store: Optional[ResultStore] = None,
        quota: SessionQuota = SessionQuota(),
        max_queue_depth: int = 128,
        stream_buffer: int = DEFAULT_STREAM_BUFFER,
        retry_policy: Optional[RetryPolicy] = RetryPolicy(),
        job_deadline_s: Optional[float] = None,
        checkpoint_plan=None,
        retry_seed: int = 0,
        telemetry: Optional[TelemetryHub] = None,
    ):
        if job_deadline_s is not None and job_deadline_s <= 0:
            raise ValueError("job_deadline_s must be positive")
        self.host = host
        self.port = port
        self.cache = cache if cache is not None else NullCache()
        self.store = store
        self.sessions = SessionManager(quota)
        self.bridge = WorkerBridge(workers=workers, mode=worker_mode)
        self.checkpoint_plan = checkpoint_plan
        self.jobs: Dict[str, JobRecord] = {}
        self._finished_ids: Deque[str] = deque()  # oldest finished first
        self.max_queue_depth = max_queue_depth
        self.stream_buffer = stream_buffer
        #: Supervision: infrastructure failures (worker death, deadline
        #: expiry) retry under this policy; ``None`` disables retries.
        self.retry_policy = retry_policy
        self.job_deadline_s = job_deadline_s
        self._retry_rng = random.Random(retry_seed)
        self.retries = 0
        self.quarantined = 0
        self.deadline_expired = 0
        self.served_from_cache = 0
        self.accepting = True
        self._seq = 0
        self._tasks: set = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._started_at = time.time()
        self._started_mono = time.monotonic()
        #: Process telemetry: one hub aggregates spans + service metrics
        #: and renders them at GET /metrics.  Pass a shared hub to fold
        #: several components into one exposition.
        self.telemetry = telemetry if telemetry is not None else TelemetryHub()
        hub = self.telemetry
        self._h_queue_wait = hub.latency_histogram(
            "repro.job.queue_wait_seconds"
        )
        self._h_attempt = hub.latency_histogram("repro.job.attempt_seconds")
        self._h_e2e = hub.latency_histogram("repro.job.e2e_seconds")
        self._c_submitted = hub.registry.counter("repro.jobs.submitted")
        self._c_done = hub.registry.counter("repro.jobs.done")
        self._c_failed = hub.registry.counter("repro.jobs.failed")
        self._c_cancelled = hub.registry.counter("repro.jobs.cancelled")
        hub.add_counter_source(self._telemetry_counters)
        hub.add_gauge_source(self._telemetry_gauges)
        #: The tracer jobs run under: the hub's, plus the per-attempt
        #: latency histogram fed from each finished ``attempt`` span.
        self._job_tracer = Tracer(on_end=self._on_span_end)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.time()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting; optionally let in-flight jobs finish.

        With ``drain`` every queued and running job completes (and its
        result lands in the cache/store) before the workers close; the
        alternative cancels everything still pending.
        """
        self.accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if not drain:
            for record in self.jobs.values():
                if not record.terminal:
                    self._cancel_record(record)
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self.bridge.close()

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    def _next_id(self, key: str) -> str:
        self._seq += 1
        return f"j{self._seq:05d}-{key[:8]}"

    def queue_depth(self) -> int:
        return sum(1 for r in self.jobs.values() if r.state == "queued")

    def stats(self) -> dict:
        jobs_by_state: Dict[str, int] = {}
        for record in self.jobs.values():
            jobs_by_state[record.state] = (
                jobs_by_state.get(record.state, 0) + 1
            )
        hits = getattr(self.cache, "hits", 0)
        misses = getattr(self.cache, "misses", 0)
        lookups = hits + misses
        return {
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
            "accepting": self.accepting,
            "jobs": {"total": len(self.jobs), **dict(sorted(
                jobs_by_state.items()
            ))},
            "queue_depth": self.queue_depth(),
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / lookups if lookups else 0.0,
                "served_from_cache": self.served_from_cache,
            },
            "workers": {
                "total": self.bridge.workers,
                "mode": self.bridge.mode,
                "busy": self.bridge.busy,
                "dispatched": self.bridge.dispatched,
                "utilization": round(self.bridge.utilization, 4),
            },
            "supervision": {
                "retries": self.retries,
                "quarantined": self.quarantined,
                "deadline_expired": self.deadline_expired,
                "deadline_s": self.job_deadline_s,
                "policy": (
                    self.retry_policy.to_dict()
                    if self.retry_policy is not None
                    else None
                ),
            },
            **self.sessions.stats(),
        }

    # ------------------------------------------------------------------
    # Telemetry sources (polled by the hub at every /metrics scrape)
    # ------------------------------------------------------------------
    def _telemetry_counters(self) -> Dict[str, float]:
        return {
            "repro.cache.hits": getattr(self.cache, "hits", 0),
            "repro.cache.misses": getattr(self.cache, "misses", 0),
            "repro.cache.served_from_cache": self.served_from_cache,
            "repro.supervisor.retries": self.retries,
            "repro.supervisor.quarantined": self.quarantined,
            "repro.supervisor.deadline_expired": self.deadline_expired,
            "repro.workers.dispatched": self.bridge.dispatched,
        }

    def _telemetry_gauges(self) -> Dict[str, float]:
        return {
            "repro.queue.depth": self.queue_depth(),
            "repro.workers.busy": self.bridge.busy,
            "repro.workers.total": self.bridge.workers,
            "repro.sessions.active": len(self.sessions),
            "repro.jobs.tracked": len(self.jobs),
            "repro.server.accepting": 1 if self.accepting else 0,
            "repro.server.uptime_seconds": round(
                time.monotonic() - self._started_mono, 3
            ),
        }

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def _push_frame(self, record: JobRecord, frame: dict) -> None:
        record.frames.append(frame)
        if len(record.frames) > self.stream_buffer:
            del record.frames[0]
            record.frames_base += 1
            record.frames_dropped += 1
        record.update.set()

    def _on_span_end(self, span: Span) -> None:
        self.telemetry.record_span(span)
        if span.name == "attempt":
            self._h_attempt.observe(span.duration_s or 0.0)

    def _on_frame(self, record: JobRecord, frame: dict) -> None:
        """A frame from the runner: count retries, stream everything.

        The runner relays live metrics/trace rows, the workers' finished
        spans (already recorded in the hub, so ``/traces/{id}`` stitches
        the full tree) and a ``retry`` frame before each backoff.
        """
        if frame.get("type") == "retry":
            self.retries += 1
            self._count_failure(record, frame["outcome"], frame["error"])
        self._push_frame(record, frame)

    def _count_failure(self, record: JobRecord, outcome: str,
                       error: str) -> None:
        """Account one retriable failed attempt (death or deadline)."""
        record.attempts.append(f"attempt {len(record.attempts) + 1}: {error}")
        if outcome == "deadline":
            self.deadline_expired += 1

    def _set_state(self, record: JobRecord, state: str) -> None:
        record.state = state
        self._push_frame(record, state_frame(record.snapshot()))

    def _finish(self, record: JobRecord, state: str) -> None:
        record.finished = time.time()
        record.finished_mono = time.monotonic()
        if record.queue_span is not None and not record.queue_span.ended:
            record.queue_span.end(status=state)
        if record.span is not None and not record.span.ended:
            record.span.set_attr("state", state)
            record.span.end(
                status="ok" if state == "done" else state
            )
        if state == "done":
            self._c_done.inc()
        elif state == "failed":
            self._c_failed.inc()
        else:
            self._c_cancelled.inc()
        if not record.cached:
            self._h_e2e.observe(
                record.finished_mono - record.created_mono
            )
        self._set_state(record, state)
        self.sessions.release(record.session_id, record.job_id)
        self._retire_finished(record)
        log.info(
            "job %s %s",
            record.job_id,
            state,
            extra={
                "job_id": record.job_id,
                "trace_id": record.trace_id,
                "state": state,
                "cached": record.cached,
                "retries": len(record.attempts),
                **record.timing(),
            },
        )

    def _retire_finished(self, record: JobRecord) -> None:
        """Note ``record`` finished; drop the oldest past the bound."""
        self._finished_ids.append(record.job_id)
        while len(self._finished_ids) > MAX_FINISHED_JOBS:
            self.jobs.pop(self._finished_ids.popleft(), None)

    def _cancel_record(self, record: JobRecord) -> bool:
        """Cooperative cancel; queued jobs drop (and free their slot) now."""
        if record.terminal:
            return False
        record.cancel.set()
        if record.state == "queued":
            self._finish(record, "cancelled")
        return True

    async def _run_record(self, record: JobRecord) -> None:
        await self.bridge.acquire()
        try:
            if record.terminal:      # cancelled while waiting for a slot
                return
            record.started = time.time()
            record.started_mono = time.monotonic()
            if record.queue_span is not None:
                record.queue_span.end()
            self._h_queue_wait.observe(
                record.started_mono - record.created_mono
            )
            self.sessions.mark_running(record.session_id, record.job_id)
            self._set_state(record, "running")
            try:
                # Worker death and deadline expiry retry under the
                # policy with seeded backoff (each retry of a
                # checkpointing job resumes from its last capsule); a
                # runner exception fails fast.
                with activate_span(record.span, self._job_tracer):
                    result = await self.bridge.execute(
                        record.submission.job,
                        lambda frame: self._on_frame(record, frame),
                        record.cancel,
                        stream=record.submission.stream,
                        policy=self.retry_policy or RetryPolicy(max_attempts=1),
                        deadline_s=self.job_deadline_s,
                        plan=self.checkpoint_plan,
                        rng=self._retry_rng,
                    )
            except JobCancelled:
                self._finish(record, "cancelled")
                return
            if record.cancel.is_set():   # a DELETE raced the result home
                self._finish(record, "cancelled")
                return
            if is_quarantined(result):
                last = result["attempts"][-1]
                record.error = last["detail"]
                if result["reason"] != "error":
                    self._count_failure(record, last["outcome"], record.error)
                    record.quarantined = True
                    self.quarantined += 1
                    record.error = (f"quarantined after {last['attempt']} "
                                    f"attempt(s): {record.error}")
                self._finish(record, "failed")
                return
            record.result = result
            self.cache.put(record.key, result)
            if self.store is not None:
                self.store.append(record.submission.job, result, cached=False)
            self._finish(record, "done")
        finally:
            self.bridge.release()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        try:
            try:
                method, path, headers, body = await self._read_request(
                    reader
                )
            except ProtocolError as exc:
                await self._respond_error(writer, exc.status, exc.message)
                return
            try:
                await self._route(method, path, headers, body, writer)
            except ProtocolError as exc:
                await self._respond_error(writer, exc.status, exc.message)
            except (
                ConnectionError,
                asyncio.IncompleteReadError,
                BrokenPipeError,
            ):
                pass  # client went away mid-response
            except Exception as exc:  # noqa: BLE001 — last-resort 500
                await self._respond_error(
                    writer, 500, f"{type(exc).__name__}: {exc}"
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        """Read one request within :data:`REQUEST_DEADLINE_S`; every way
        it can fail is a :class:`ProtocolError`."""
        try:
            return await asyncio.wait_for(
                self._parse_request(reader), timeout=REQUEST_DEADLINE_S
            )
        except asyncio.TimeoutError:
            raise ProtocolError(408, "timed out reading request") from None

    async def _parse_request(
        self, reader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        parts = (await self._read_line(reader)).decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ProtocolError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) > 64 or len(line) > 8192:
                raise ProtocolError(400, "oversized request headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise ProtocolError(400, f"malformed Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise ProtocolError(413, "request body too large")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            raise ProtocolError(
                400, "request body shorter than its Content-Length"
            ) from None
        path = target.split("?", 1)[0]
        return method, path, headers, body

    @staticmethod
    async def _read_line(reader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # the line outgrew the stream's buffer limit
            raise ProtocolError(400, "oversized request headers") from None

    def _write_head(
        self, writer, status: int, content_type: str, extra=()
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        lines.extend(f"{k}: {v}" for k, v in extra)
        writer.write(("\r\n".join(lines) + "\r\n").encode("latin-1"))

    async def _respond_json(
        self, writer, status: int, doc: dict, extra=()
    ) -> None:
        body = encode_json(doc) + b"\n"
        self._write_head(
            writer,
            status,
            "application/json",
            [("Content-Length", str(len(body))), *extra],
        )
        writer.write(b"\r\n" + body)
        await writer.drain()

    async def _respond_text(
        self, writer, status: int, text: str, content_type: str
    ) -> None:
        body = text.encode("utf-8")
        self._write_head(
            writer,
            status,
            content_type,
            [("Content-Length", str(len(body)))],
        )
        writer.write(b"\r\n" + body)
        await writer.drain()

    async def _respond_error(self, writer, status: int, message: str) -> None:
        try:
            await self._respond_json(
                writer, status, {"error": message, "status": status}
            )
        except (ConnectionError, BrokenPipeError):
            pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method, path, headers, body, writer) -> None:
        if path == "/healthz":
            if method != "GET":
                raise ProtocolError(405, "healthz is GET-only")
            await self._respond_json(
                writer, 200, {"status": "ok", "protocol": PROTOCOL_VERSION}
            )
            return
        if path == "/stats":
            if method != "GET":
                raise ProtocolError(405, "stats is GET-only")
            await self._respond_json(writer, 200, self.stats())
            return
        if path == "/metrics":
            if method != "GET":
                raise ProtocolError(405, "metrics is GET-only")
            await self._respond_text(
                writer,
                200,
                self.telemetry.render_prometheus(),
                PROMETHEUS_CONTENT_TYPE,
            )
            return
        if path.startswith("/traces/"):
            if method != "GET":
                raise ProtocolError(405, "traces are GET-only")
            trace_id = path[len("/traces/"):]
            spans = self.telemetry.spans(trace_id)
            if not spans:
                raise ProtocolError(404, f"no spans for trace {trace_id!r}")
            self._write_head(writer, 200, "application/x-ndjson")
            writer.write(b"\r\n")
            for doc in spans:
                writer.write(ndjson_line(doc))
            await writer.drain()
            return
        if path == "/jobs":
            if method != "POST":
                raise ProtocolError(405, "submit jobs with POST /jobs")
            await self._handle_submit(headers, body, writer)
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if rest.endswith("/stream"):
                job_id, stream = rest[: -len("/stream")], True
            else:
                job_id, stream = rest, False
            record = self.jobs.get(job_id)
            if record is None:
                raise ProtocolError(404, f"no such job {job_id!r}")
            if stream:
                if method != "GET":
                    raise ProtocolError(405, "stream is GET-only")
                await self._handle_stream(record, writer)
            elif method == "GET":
                await self._respond_json(
                    writer, 200, record.snapshot(with_result=True)
                )
            elif method == "DELETE":
                changed = self._cancel_record(record)
                await self._respond_json(
                    writer,
                    200,
                    {
                        **record.snapshot(),
                        "cancelling": changed and not record.terminal,
                    },
                )
            else:
                raise ProtocolError(405, "use GET or DELETE on a job")
            return
        raise ProtocolError(404, f"no route for {path!r}")

    # ------------------------------------------------------------------
    async def _handle_submit(self, headers, body, writer) -> None:
        submission = parse_submission(body)
        session_id = headers.get("x-session", "default") or "default"
        key = submission.job.key
        # Adopt the client's trace (X-Trace-Id) or mint one: either way
        # the whole journey — queue, attempts, worker, checkpoints —
        # shares a single trace id.
        claimed = headers.get("x-trace-id", "").strip()
        trace_id = claimed if claimed and valid_trace_id(claimed) else (
            new_trace_id()
        )
        self._c_submitted.inc()

        hit = self.cache.get(key)
        if hit is not None:
            # Cache-first: identical spec, zero compute, no quota charge.
            self.served_from_cache += 1
            self.sessions.record_cache_hit(session_id)
            record = JobRecord(
                job_id=self._next_id(key),
                submission=submission,
                key=key,
                session_id=session_id,
                state="done",
                cached=True,
                result=hit,
                trace_id=trace_id,
            )
            record.finished = record.created
            record.finished_mono = record.created_mono
            root = self.telemetry.tracer.start_span(
                "job",
                trace_id=trace_id,
                attrs={
                    "job_id": record.job_id,
                    "kind": submission.job.kind,
                    "session": session_id,
                    "cached": True,
                },
            )
            root.event("cache.hit", key=key[:16])
            root.end()
            self._c_done.inc()
            self.jobs[record.job_id] = record
            self._retire_finished(record)
            if self.store is not None:
                self.store.append(submission.job, hit, cached=True)
            log.info(
                "job %s served from cache",
                record.job_id,
                extra={
                    "job_id": record.job_id,
                    "trace_id": trace_id,
                    "kind": submission.job.kind,
                    "session": session_id,
                },
            )
            await self._respond_json(
                writer, 200, record.snapshot(with_result=True)
            )
            return

        if not self.accepting:
            raise ProtocolError(503, "server is draining; not accepting jobs")
        if self.queue_depth() >= self.max_queue_depth:
            await self._respond_json(
                writer,
                429,
                {"error": "server queue is full", "status": 429},
                extra=[("Retry-After", "1")],
            )
            return

        job_id = self._next_id(key)
        root = self.telemetry.tracer.start_span(
            "job",
            trace_id=trace_id,
            attrs={
                "job_id": job_id,
                "kind": submission.job.kind,
                "session": session_id,
                "cached": False,
            },
        )
        root.event("submitted", key=key[:16])
        try:
            # activate_span so admission-side hooks (session events)
            # land on this job's root span.
            with activate_span(root, self.telemetry.tracer):
                self.sessions.admit(session_id, submission.job, job_id)
        except QuotaExceeded as exc:
            root.end(status="rejected:quota")
            await self._respond_json(
                writer,
                429,
                {"error": exc.message, "status": 429},
                extra=[("Retry-After", f"{exc.retry_after:g}")],
            )
            return

        record = JobRecord(
            job_id=job_id,
            submission=submission,
            key=key,
            session_id=session_id,
            trace_id=trace_id,
        )
        record.span = root
        record.queue_span = self.telemetry.tracer.start_span(
            "queue.wait",
            trace_id=trace_id,
            parent_id=root.span_id,
            attrs={"depth_at_entry": self.queue_depth()},
        )
        self.jobs[job_id] = record
        log.info(
            "job %s queued",
            job_id,
            extra={
                "job_id": job_id,
                "trace_id": trace_id,
                "kind": submission.job.kind,
                "session": session_id,
            },
        )
        task = asyncio.get_running_loop().create_task(
            self._run_record(record)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        await self._respond_json(writer, 202, record.snapshot())

    # ------------------------------------------------------------------
    async def _handle_stream(self, record: JobRecord, writer) -> None:
        self._write_head(writer, 200, "application/x-ndjson")
        writer.write(b"\r\n")
        writer.write(ndjson_line(state_frame(record.snapshot())))
        await writer.drain()

        pos = record.frames_base
        while True:
            end = record.frames_base + len(record.frames)
            if pos < record.frames_base:
                pos = record.frames_base  # consumer outran the buffer
            while pos < end:
                frame = record.frames[pos - record.frames_base]
                writer.write(ndjson_line(frame))
                pos += 1
            await writer.drain()
            if record.terminal:
                break
            record.update.clear()
            if record.frames_base + len(record.frames) > pos or (
                record.terminal
            ):
                continue
            await record.update.wait()

        if record.state == "done":
            final = {
                "type": "result",
                **record.snapshot(),
                "result": record.result,
            }
        elif record.state == "failed":
            final = {"type": "error", **record.snapshot()}
        else:
            final = {"type": "cancelled", **record.snapshot()}
        writer.write(ndjson_line(final))
        await writer.drain()
