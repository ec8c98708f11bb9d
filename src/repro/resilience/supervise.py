"""Supervised job execution: retries, deadlines, cancellation, quarantine.

:func:`run_supervised` is the one per-job runner behind every parallel
path — ``repro batch --jobs N`` (:func:`repro.lab.run_jobs`) and the
``repro serve`` workers alike.  It assumes workers *will* die and turns
each failure into policy:

* **worker death** (the child exits without a result) → retry with
  exponential backoff + seeded jitter, up to
  :attr:`RetryPolicy.max_attempts`;
* **wall-clock deadline** → the same retry budget, after the attempt is
  stopped;
* **runner exception** → fail fast: the runner is deterministic, so
  every retry would hit the same error;
* **stop** (a deadline, or the caller's :class:`CancelToken`) escalates
  one way: cooperative first (the child's checkpointed run loop and
  observation boundaries raise :class:`~repro.lab.jobs.JobCancelled` at
  the next check), then ``terminate()`` after :data:`GRACE_S`, then
  ``kill()`` after another — a hung job cannot hold its slot forever;
* **budget exhausted** (or a runner error) → the job is *quarantined*:
  the runner returns a structured failure record
  (:func:`quarantine_payload`) instead of a result, and
  :func:`repro.lab.run_jobs` knows never to cache one.

Each attempt runs in its own child process and reports over its own
pipe, so one corpse is one retry — never a poisoned pool — and the
supervisor blocks on that pipe, the child's exit and the cancel token
at once instead of polling.  With a :class:`~repro.resilience.checkpoint.CheckpointPlan`
every retry resumes from the victim's last capsule instead of cycle
zero.  With a tracer installed (:func:`repro.obs.telemetry.use_tracer`)
each attempt is an ``attempt`` span whose child reports a
``worker.run`` span.

Everything is deterministic given the seed — backoff jitter comes from
a seeded :class:`random.Random`, never the wall clock.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import random
import threading
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_ready
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.telemetry import (
    Span,
    Tracer,
    add_event,
    current_span,
    current_tracer,
    new_trace_id,
    use_tracer,
)
from repro.resilience.checkpoint import (
    CheckpointPlan,
    use_cancel_event,
    use_checkpoint_plan,
)

log = logging.getLogger("repro.resilience")

#: Marker key of a quarantine record standing in for a result payload.
QUARANTINE_KEY = "__quarantined__"

#: Seconds a stopped child (deadline or cancel) gets at each escalation
#: step: cooperative stop, then ``terminate()``, then ``kill()``.
GRACE_S = 1.0

#: Forks happen one at a time, so no child inherits another attempt's
#: pipe ends while they are still open in this process.
_SPAWN_LOCK = threading.Lock()


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to fight for one job before quarantining it.

    ``delay_s`` grows exponentially from ``base_delay_s`` (doubling per
    attempt, capped at ``max_delay_s``) with up to ``jitter`` fractional
    randomization on top — the classic backoff-with-jitter shape that
    stops a burst of casualties from retrying in lockstep.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError("need 0 <= base_delay_s <= max_delay_s")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = min(
            self.max_delay_s, self.base_delay_s * (2 ** max(0, attempt - 1))
        )
        return base * (1.0 + self.jitter * rng.random())

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_delay_s": self.base_delay_s,
            "max_delay_s": self.max_delay_s,
            "jitter": self.jitter,
        }


class CancelToken:
    """A one-shot, thread-safe cancellation flag with callbacks."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._callbacks: List[Callable[[], None]] = []
        self._lock = threading.Lock()

    def set(self) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._event.set()
            callbacks = list(self._callbacks)
        for callback in callbacks:
            callback()

    def is_set(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds; True once cancelled."""
        return self._event.wait(timeout)

    def add_callback(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on cancellation (immediately if already set)."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn()


# ----------------------------------------------------------------------
# Quarantine records
# ----------------------------------------------------------------------
def quarantine_payload(item: Any, attempts: Sequence[Mapping]) -> dict:
    """The structured failure record standing in for a job's result.

    ``attempts`` is the full casualty list — one entry per try with its
    outcome (``died``/``error``/``deadline``) and diagnosis — so the
    record answers "what happened" without the supervisor's logs.
    """
    describe = getattr(item, "describe", None)
    return {
        QUARANTINE_KEY: True,
        "job": describe() if callable(describe) else repr(item),
        "key": getattr(item, "key", None),
        "attempts": [dict(a) for a in attempts],
        "reason": attempts[-1]["outcome"] if attempts else "unknown",
    }


def is_quarantined(payload: Any) -> bool:
    """True when ``payload`` is a quarantine record, not a result."""
    return isinstance(payload, Mapping) and payload.get(QUARANTINE_KEY) is True


# ----------------------------------------------------------------------
# The worker side (module-level: must pickle under any start method)
# ----------------------------------------------------------------------
def _child_main(job, channel, stop, plan, stream, trace) -> None:
    """Run one job and report every message through ``channel.send``.

    Messages are ``("frame", dict)`` for live observation frames and
    finished spans, then exactly one terminal ``("ok", result)``,
    ``("error", diagnosis)`` or ``("cancelled", None)``.  ``stop`` (an
    event with ``is_set()``) rides the resilience ContextVar, so a
    checkpointing runner honors it at every chunk boundary even when the
    job streams no frames; the checkpoint ``plan`` rides its own.
    ``trace`` is ``(trace_id, parent_span_id)`` or ``None``: with it the
    job runs under a ``worker.run`` span whose finished spans travel
    home as ``{"type": "span"}`` frames.  A span frame never checks
    ``stop`` — the span of a cancelled job must still make it home.
    """
    from repro.lab.jobs import JobCancelled, JobObserver, run_job
    from repro.obs.sinks import QueueSink

    def forward(frame: dict) -> None:
        if stop.is_set():
            raise JobCancelled()
        channel.send(("frame", frame))

    observer = None
    if stream is not None and stream.wants_observer:
        sink = QueueSink(forward=forward)
        observer = JobObserver(
            metrics_sink=sink if stream.metrics_interval else None,
            trace_sink=sink if stream.trace else None,
            metrics_interval=stream.metrics_interval,
        )
    try:
        with ExitStack() as stack:
            stack.enter_context(use_cancel_event(stop))
            stack.enter_context(use_checkpoint_plan(plan))
            if trace is not None:
                tracer = Tracer(on_end=lambda s: channel.send(
                    ("frame", {"type": "span", "span": s.to_dict()})
                ))
                stack.enter_context(use_tracer(tracer))
                stack.enter_context(tracer.span(
                    "worker.run",
                    trace_id=trace[0],
                    parent_id=trace[1],
                    attrs={"kind": job.kind, "pid": os.getpid()},
                ))
            result = run_job(job, observer=observer)
    except JobCancelled:
        channel.send(("cancelled", None))
    except BaseException as exc:  # noqa: BLE001 — relayed, not swallowed
        channel.send(("error", f"{type(exc).__name__}: {exc}"))
    else:
        channel.send(("ok", result))


# ----------------------------------------------------------------------
# One attempt
# ----------------------------------------------------------------------
class _Wake:
    """A pipe that turns readable when the caller's token is cancelled."""

    def __init__(self, cancel: CancelToken):
        self._r, self._w = os.pipe()
        self._lock = threading.Lock()
        cancel.add_callback(self._fire)

    def _fire(self) -> None:
        with self._lock:
            if self._w is not None:
                os.write(self._w, b"x")

    def fileno(self) -> int:
        return self._r

    def close(self) -> None:
        with self._lock:
            os.close(self._w)
            self._w = None
        os.close(self._r)


def _stopped(reason: str, deadline_s: Optional[float], how: str):
    """The attempt outcome of a child stopped by deadline or cancel."""
    if reason == "cancelled":
        return "cancelled", None
    return "deadline", f"exceeded the {deadline_s:g}s wall-clock deadline ({how})"


def _attempt_in_child(job, stream, plan, trace, cancel, deadline_s, relay, procs):
    """Run one attempt in a fresh child; ``(outcome, value)``.

    Blocks on the child's pipe, its exit sentinel and the cancel token
    together; the only timeouts are the deadline and the escalation
    steps.
    """
    ctx = multiprocessing.get_context()
    with _SPAWN_LOCK:
        channel, child_end = ctx.Pipe(duplex=False)
        stop = ctx.Event()
        proc = ctx.Process(
            target=_child_main,
            args=(job, child_end, stop, plan, stream, trace),
            daemon=True,
        )
        proc.start()
        child_end.close()
    procs.add(proc)
    wake = _Wake(cancel) if cancel is not None else None
    deadline_at = (
        time.monotonic() + deadline_s if deadline_s is not None else None
    )
    reason: Optional[str] = None        # why we stopped the child, if we did
    escalate_at: Optional[float] = None  # when the next escalation step is due
    steps = [proc.terminate, proc.kill]
    reading = True                       # False once the pipe hit EOF
    try:
        while True:
            if reason is None:
                if cancel is not None and cancel.is_set():
                    reason = "cancelled"
                elif deadline_at is not None and time.monotonic() >= deadline_at:
                    reason = "deadline"
                    add_event("deadline.expired", deadline_s=deadline_s)
                if reason is not None:
                    stop.set()
                    escalate_at = time.monotonic() + GRACE_S
            elif steps and time.monotonic() >= escalate_at:
                steps.pop(0)()
                escalate_at = time.monotonic() + GRACE_S
            waitables: list = [proc.sentinel]
            if reading:
                waitables.append(channel)
            if reason is None and wake is not None:
                waitables.append(wake)
            until = deadline_at if reason is None else (
                escalate_at if steps else None
            )
            timeout = None if until is None else max(0.0, until - time.monotonic())
            ready = wait_ready(waitables, timeout)
            if channel in ready:
                try:
                    kind, value = channel.recv()
                except (EOFError, OSError):
                    reading = False  # died mid-message: its exit decides
                    continue
                if kind == "frame":
                    relay(value)
                    continue
                if kind == "cancelled":
                    return _stopped(reason or "cancelled", deadline_s,
                                    "stopped cooperatively")
                return kind, value
            if proc.sentinel in ready and not (reading and channel.poll()):
                proc.join()
                if reason is not None:
                    return _stopped(reason, deadline_s,
                                    f"exitcode {proc.exitcode}")
                return "died", f"worker process died (exitcode {proc.exitcode})"
    finally:
        # A child that reported is done; one that did not (the relay
        # raised) must not outlive its slot.
        if proc.is_alive():
            proc.kill()
        proc.join()
        procs.discard(proc)
        channel.close()
        if wake is not None:
            wake.close()


class _InlineChannel:
    """``_child_main``'s channel when the attempt runs in this thread."""

    def __init__(self, relay: Callable[[dict], None]):
        self.relay = relay
        self.outcome: Tuple[str, Any] = ("died", "no terminal message")

    def send(self, message: Tuple[str, Any]) -> None:
        if message[0] == "frame":
            self.relay(message[1])
        else:
            self.outcome = message


class _ThreadStop:
    """The stop signal of an in-thread attempt: cancel or deadline."""

    def __init__(self, cancel: Optional[CancelToken], deadline_s: Optional[float]):
        self.cancel = cancel
        self.deadline_at = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )

    def is_set(self) -> bool:
        return (self.cancel is not None and self.cancel.is_set()) or (
            self.deadline_at is not None and time.monotonic() >= self.deadline_at
        )


def _attempt_in_thread(job, stream, plan, trace, cancel, deadline_s, relay):
    """Run one attempt in the calling thread; stops are cooperative only."""
    channel = _InlineChannel(relay)
    _child_main(job, channel, _ThreadStop(cancel, deadline_s), plan, stream, trace)
    kind, value = channel.outcome
    if kind != "cancelled":
        return kind, value
    if cancel is not None and cancel.is_set():
        return "cancelled", None
    add_event("deadline.expired", deadline_s=deadline_s)
    return _stopped("deadline", deadline_s, "stopped cooperatively")


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def run_supervised(
    job,
    *,
    policy: Optional[RetryPolicy] = None,
    deadline_s: Optional[float] = None,
    plan: Optional[CheckpointPlan] = None,
    cancel: Optional[CancelToken] = None,
    on_frame: Optional[Callable[[dict], None]] = None,
    stream=None,
    rng: Optional[random.Random] = None,
    in_thread: bool = False,
    procs: Optional[set] = None,
) -> dict:
    """Run ``job`` under supervision; its result or a quarantine record.

    ``policy`` defaults to :class:`RetryPolicy()`; ``deadline_s`` bounds
    each attempt's wall-clock time.  ``cancel`` stops the job from
    another thread (raising :class:`~repro.lab.jobs.JobCancelled` here,
    never retried).  ``on_frame`` receives, on the supervising thread,
    the job's live frames — observation rows as ``stream`` (a
    :class:`repro.serve.protocol.StreamOptions`) asks for, worker spans,
    and a ``{"type": "retry"}`` frame before each backoff.  ``rng``
    draws the backoff jitter (default: seeded by the job's key).
    ``in_thread`` runs attempts in the calling thread — for job kinds
    registered only in this process — where stops are cooperative only
    and a worker cannot die.  ``procs`` is a set that holds each live
    child process while it runs.
    """
    from repro.lab.jobs import JobCancelled

    policy = policy if policy is not None else RetryPolicy()
    rng = rng if rng is not None else random.Random(job.key)
    procs = procs if procs is not None else set()
    tracer = current_tracer()
    if tracer is not None:
        parent = current_span()
        # One trace across every attempt, adopted from the caller's span.
        trace_id = parent.trace_id if parent is not None else new_trace_id()

    def relay(frame: dict) -> None:
        # Worker spans join the caller's trace store; every frame —
        # spans included — also goes to the caller's stream.
        if frame.get("type") == "span" and tracer is not None \
                and tracer.on_end is not None:
            tracer.on_end(Span.from_dict(frame["span"]))
        if on_frame is not None:
            on_frame(frame)

    attempts: List[dict] = []
    for attempt in range(1, policy.max_attempts + 1):
        if cancel is not None and cancel.is_set():
            raise JobCancelled()
        span_cm = tracer.span(
            "attempt",
            trace_id=trace_id,
            attrs={"attempt": attempt, "job": job.describe()},
        ) if tracer is not None else nullcontext()
        with span_cm as span:
            trace = (span.trace_id, span.span_id) if span is not None else None
            if in_thread:
                outcome, value = _attempt_in_thread(
                    job, stream, plan, trace, cancel, deadline_s, relay
                )
            else:
                outcome, value = _attempt_in_child(
                    job, stream, plan, trace, cancel, deadline_s, relay, procs
                )
            if span is not None:
                span.end(status=outcome if outcome in ("ok", "cancelled")
                         else f"failed:{outcome}")
        if cancel is not None and cancel.is_set():
            raise JobCancelled()
        if outcome == "ok":
            return value
        attempts.append(
            {"attempt": attempt, "outcome": outcome, "detail": value}
        )
        if outcome == "error" or attempt == policy.max_attempts:
            break
        delay = policy.delay_s(attempt, rng)
        add_event("retry", attempt=attempt, error=value,
                  backoff_s=round(delay, 4))
        log.warning(
            "%s attempt %d failed (%s); retrying in %.3fs",
            job.describe(), attempt, outcome, delay,
            extra={"outcome": outcome, "detail": value,
                   "backoff_s": round(delay, 4)},
        )
        if on_frame is not None:
            on_frame({"type": "retry", "attempt": attempt,
                      "outcome": outcome, "error": value,
                      "backoff_s": round(delay, 4)})
        if cancel is None:
            time.sleep(delay)
        elif cancel.wait(delay):
            raise JobCancelled()

    record = quarantine_payload(job, attempts)
    add_event("quarantine", attempts=len(attempts),
              error=attempts[-1]["detail"])
    log.warning(
        "%s quarantined after %d attempt(s)", record["job"], len(attempts),
        extra={"outcome": record["reason"],
               "detail": attempts[-1]["detail"]},
    )
    return record
