"""Blocking client for the simulation service (stdlib ``http.client``).

The server side is asyncio; the consumer side usually is not — batch
scripts, notebooks, the ``repro submit`` CLI, and the test suite all
want plain calls.  One :class:`ServeClient` wraps the whole protocol:

>>> client = ServeClient("127.0.0.1", 8351, session="alice")
>>> job = client.submit("load_point",
...                     {"topology": "mesh", "size": 4, "rate": 0.1},
...                     seed=7, metrics_interval=100)
>>> for frame in client.stream(job["id"]):
...     ...                      # live NDJSON frames, ends with the result
>>> result = client.wait(job["id"])["result"]

Every request is one short-lived connection (the server speaks
``Connection: close``), so a client object is state-free and
thread-safe apart from its configuration.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.obs.telemetry import TRACE_HEADER, current_span
from repro.resilience.supervise import RetryPolicy
from repro.serve.protocol import StreamOptions, TERMINAL_STATES


class ServeError(Exception):
    """A non-2xx server answer, with status and decoded body."""

    def __init__(self, status: int, body: Any):
        message = body.get("error") if isinstance(body, dict) else str(body)
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.body = body

    @property
    def retriable(self) -> bool:
        return self.status in (429, 503)


class ServeClient:
    """Synchronous API over one ``repro serve`` endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8351,
        session: Optional[str] = None,
        timeout: float = 60.0,
        retry_policy: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
    ):
        self.host = host
        self.port = port
        self.session = session
        self.timeout = timeout
        #: With a policy, transient failures — connection errors and
        #: retriable statuses (429/503, honoring ``Retry-After``) —
        #: are retried with seeded backoff+jitter up to the budget.
        #: Safe for submissions too: jobs are content-addressed, so a
        #: replayed POST lands on the same key (a cache hit or the
        #: same queued work), never a divergent duplicate.
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(retry_seed)

    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _headers(self, trace_id: Optional[str] = None) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.session:
            headers["X-Session"] = self.session
        # Distributed-trace propagation: an explicit trace id wins;
        # otherwise a live client-side span (repro.obs.telemetry) lends
        # its trace id, so server-side spans join the caller's trace.
        if trace_id is None:
            span = current_span()
            if span is not None:
                trace_id = span.trace_id
        if trace_id:
            headers[TRACE_HEADER] = trace_id
        return headers

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        trace_id: Optional[str] = None,
    ) -> Tuple[int, Any, Dict[str, str]]:
        conn = self._connect()
        try:
            payload = None
            headers = self._headers(trace_id)
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            try:
                doc = json.loads(raw) if raw else None
            except ValueError:
                doc = raw.decode("utf-8", "replace")
            resp_headers = {
                k.lower(): v for k, v in resp.getheaders()
            }
            return resp.status, doc, resp_headers
        finally:
            conn.close()

    def _checked(
        self, method: str, path: str, body=None, trace_id=None
    ) -> Any:
        policy = self.retry_policy
        max_attempts = policy.max_attempts if policy is not None else 1
        attempt = 0
        while True:
            attempt += 1
            delay: Optional[float] = None
            try:
                status, doc, headers = self._request(
                    method, path, body, trace_id
                )
            except (OSError, http.client.HTTPException):
                # Transient transport failure (refused, reset, timed
                # out, torn response) — retriable under the policy.
                if attempt >= max_attempts:
                    raise
            else:
                if status < 400:
                    return doc
                error = ServeError(status, doc)
                if not error.retriable or attempt >= max_attempts:
                    raise error
                # The server's own pacing hint wins when it is longer
                # than our backoff (e.g. a 429 quota window).
                try:
                    delay = float(headers.get("retry-after", ""))
                except ValueError:
                    delay = None
            backoff = policy.delay_s(attempt, self._retry_rng)
            time.sleep(max(backoff, delay or 0.0))

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._checked("GET", "/healthz")

    def stats(self) -> dict:
        return self._checked("GET", "/stats")

    def submit(
        self,
        kind: str,
        params: Dict[str, Any],
        seed: int = 0,
        tags=(),
        metrics_interval: Optional[int] = None,
        trace: bool = False,
        trace_id: Optional[str] = None,
    ) -> dict:
        """Submit one job spec; returns the server's job document.

        A cache hit comes back already ``state == "done"`` with its
        ``result`` inline; otherwise the job is queued and the document
        carries the ``id`` to poll or stream.  ``trace_id`` joins the
        submission to an existing distributed trace (the returned
        document echoes whichever trace id the server adopted).
        """
        body: Dict[str, Any] = {"kind": kind, "params": params, "seed": seed}
        if tags:
            body["tags"] = list(tags)
        stream = StreamOptions(
            metrics_interval=metrics_interval, trace=trace
        ).to_dict()
        if stream:
            body["stream"] = stream
        return self._checked("POST", "/jobs", body, trace_id=trace_id)

    def metrics(self) -> str:
        """Raw Prometheus text from ``GET /metrics``."""
        status, doc, _headers = self._request("GET", "/metrics")
        if status >= 400:
            raise ServeError(status, doc)
        return doc if isinstance(doc, str) else json.dumps(doc)

    def trace_spans(self, trace_id: str) -> list:
        """All finished spans the server holds for one trace."""
        conn = self._connect()
        try:
            conn.request(
                "GET", f"/traces/{trace_id}", headers=self._headers()
            )
            resp = conn.getresponse()
            raw = resp.read()
            if resp.status >= 400:
                try:
                    doc = json.loads(raw)
                except ValueError:
                    doc = raw.decode("utf-8", "replace")
                raise ServeError(resp.status, doc)
            return [
                json.loads(line)
                for line in raw.decode("utf-8").splitlines()
                if line.strip()
            ]
        finally:
            conn.close()

    def status(self, job_id: str) -> dict:
        return self._checked("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._checked("DELETE", f"/jobs/{job_id}")

    def wait(
        self, job_id: str, timeout: float = 120.0, poll_s: float = 0.05
    ) -> dict:
        """Poll until the job is terminal; returns its final document."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.status(job_id)
            if doc["state"] in TERMINAL_STATES:
                return doc
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {doc['state']!r} after {timeout}s"
                )
            time.sleep(poll_s)

    def stream(self, job_id: str) -> Iterator[dict]:
        """Yield the job's NDJSON frames; ends at the terminal frame.

        Frames already emitted before the call are replayed first, so
        streaming a finished job yields its recorded history plus the
        result — connect whenever.
        """
        conn = self._connect()
        try:
            conn.request(
                "GET", f"/jobs/{job_id}/stream", headers=self._headers()
            )
            resp = conn.getresponse()
            if resp.status >= 400:
                raw = resp.read()
                try:
                    doc = json.loads(raw)
                except ValueError:
                    doc = raw.decode("utf-8", "replace")
                raise ServeError(resp.status, doc)
            for line in resp:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    # ------------------------------------------------------------------
    def run(
        self,
        kind: str,
        params: Dict[str, Any],
        seed: int = 0,
        timeout: float = 120.0,
        **submit_kwargs,
    ) -> dict:
        """Submit and block for the result document (cache-transparent)."""
        doc = self.submit(kind, params, seed=seed, **submit_kwargs)
        if doc["state"] in TERMINAL_STATES:
            return doc
        return self.wait(doc["id"], timeout=timeout)
