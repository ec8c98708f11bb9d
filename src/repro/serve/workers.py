"""The worker bridge: lab jobs executed off the event loop.

The server core is a single asyncio loop; simulations are CPU-bound
Python.  :class:`WorkerBridge` is the seam between the two — a bounded
set of worker slots, each running one job through
:func:`repro.resilience.supervise.run_supervised` on a helper thread, so
a served result comes from the same supervised runner (and the same
unmodified :func:`repro.lab.run_job`) as a ``repro batch --jobs N``
result.  Frames the runner relays — live observation rows, worker
spans, retry notices — hop onto the event loop with
``call_soon_threadsafe``.

Two modes:

``process`` (the deployment default)
    each attempt runs in its own child process: a worker that dies is
    retried, and a DELETE or deadline escalates from cooperative stop
    to ``terminate()`` to ``kill()``, so no job outlives its slot.

``thread`` (tests, benchmarks, single-tenant serving)
    attempts run on the helper thread itself — no fork latency, and job
    kinds registered by the host process (e.g. test fixtures) are
    visible.  Stops are cooperative only.

Either way the bridge exposes the accounting the acceptance criteria
hang off: ``dispatched`` counts every job handed to a worker, so
"served from cache with zero worker dispatch" is a number, not a hope.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List

from repro.lab.jobs import Job
from repro.resilience.supervise import CancelToken, run_supervised

__all__ = ["CancelToken", "WorkerBridge"]


class WorkerBridge:
    """A bounded pool executing jobs for the server."""

    def __init__(self, workers: int = 2, mode: str = "process"):
        if workers < 1:
            raise ValueError("need at least one worker slot")
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown worker mode {mode!r}")
        self.workers = workers
        self.mode = mode
        self._slots = asyncio.Semaphore(workers)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self.busy = 0
        self.dispatched = 0
        # Live child processes (process mode), for the chaos harness
        # and tests: what could be SIGKILLed right now?
        self._procs: set = set()

    # ------------------------------------------------------------------
    def active_pids(self) -> List[int]:
        """PIDs of worker processes currently running a job.

        Empty in thread mode.  The chaos harness aims its SIGKILLs
        here; tests use it to wait for a job to actually be on-CPU.
        """
        return sorted(
            p.pid for p in list(self._procs)
            if p.pid is not None and p.is_alive()
        )

    @property
    def utilization(self) -> float:
        return self.busy / self.workers

    async def acquire(self) -> None:
        await self._slots.acquire()

    def release(self) -> None:
        self._slots.release()

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    async def execute(
        self,
        job: Job,
        emit: Callable[[dict], None],
        cancel: CancelToken,
        **supervision,
    ) -> dict:
        """Run one admitted job in a worker; its result or quarantine record.

        ``emit`` receives the runner's frames on the event loop thread.
        ``supervision`` holds the :func:`run_supervised` keywords the
        server owns (stream options, retry policy, deadline, checkpoint
        plan, backoff rng).  The runner is called in a copy of the
        caller's context, so its ``attempt`` spans join the trace of the
        caller's current span.  Raises
        :class:`~repro.lab.jobs.JobCancelled` when ``cancel`` fired.
        The caller has already acquired a slot via :meth:`acquire`.
        """
        loop = asyncio.get_running_loop()
        run = functools.partial(
            contextvars.copy_context().run,
            run_supervised,
            job,
            cancel=cancel,
            on_frame=lambda frame: loop.call_soon_threadsafe(emit, frame),
            in_thread=self.mode == "thread",
            procs=self._procs,
            **supervision,
        )
        self.busy += 1
        self.dispatched += 1
        try:
            return await loop.run_in_executor(self._pool, run)
        finally:
            self.busy -= 1
