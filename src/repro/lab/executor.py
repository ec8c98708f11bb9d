"""Job execution: serial in-process or supervised children, cache-aware.

:func:`run_jobs` is the lab's engine: it partitions a job list into
cache hits and work, runs the work, persists the fresh results, and
hands back a :class:`BatchResult` whose ``results`` align 1:1 with the
input jobs.  The split is observable — ``computed`` and ``cached``
counts let callers (and the acceptance tests) assert "the second run
recomputed nothing".

With ``workers`` > 1 every pending job runs through
:func:`repro.resilience.supervise.run_supervised` — one child process
per attempt, at most ``workers`` at a time — so a dead worker costs a
retry, not the batch.  Children receive pickled
:class:`~repro.lab.jobs.Job` specs (plain data) and resolve the runner
by kind inside their own process.  Results come back in submission
order regardless of completion order — parallel output is
byte-identical to serial output.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.lab.cache import NullCache
from repro.lab.jobs import Job, run_job
from repro.lab.store import ResultStore


@dataclass
class BatchResult:
    """The outcome of one batch: per-job results plus reuse accounting."""

    jobs: List[Job]
    results: List[dict]
    computed: int
    cached: int

    @property
    def hit_rate(self) -> float:
        total = self.computed + self.cached
        return self.cached / total if total else 0.0

    @property
    def quarantined(self) -> List[dict]:
        """Structured failure records standing in for results.

        Non-empty only for a parallel batch (``workers`` > 1) in which
        some job raised, or ran out of retries after worker deaths or
        deadlines; each record carries the job description and the full
        attempt history (see :func:`repro.resilience.quarantine_payload`).
        """
        from repro.resilience.supervise import is_quarantined

        return [r for r in self.results if is_quarantined(r)]

    def succeeded(self) -> List[Tuple[Job, dict]]:
        """``(job, result)`` for every job that produced a result."""
        from repro.resilience.supervise import is_quarantined

        return [
            (job, result) for job, result in zip(self.jobs, self.results)
            if not is_quarantined(result)
        ]

    def result_for(self, job: Job) -> dict:
        return self.results[self.jobs.index(job)]


def run_jobs(
    jobs: Sequence[Job],
    workers: Optional[int] = None,
    cache=None,
    store: Optional[ResultStore] = None,
) -> BatchResult:
    """Execute a batch with cache reuse; results align with ``jobs``.

    Parameters
    ----------
    workers:
        ``--jobs N``: with N > 1 at most N supervised children run at
        once, and a job that raises or exhausts its retries yields a
        quarantine record in its slot; ``None``/1 runs every job in this
        process (the reference semantics — a runner error propagates).
    cache:
        A :class:`~repro.lab.cache.ResultCache` (or ``None`` /
        :class:`~repro.lab.cache.NullCache` to always compute).
    store:
        Optional :class:`~repro.lab.store.ResultStore`; every job —
        hit or computed — is appended with its provenance.
    """
    from repro.resilience.supervise import is_quarantined

    jobs = list(jobs)
    cache = cache if cache is not None else NullCache()
    results: List[Optional[dict]] = [None] * len(jobs)

    pending: List[int] = []
    for i, job in enumerate(jobs):
        hit = cache.get(job.key)
        if hit is not None:
            results[i] = hit
        else:
            pending.append(i)

    if pending:
        fresh = _run_pending([jobs[i] for i in pending], workers)
        for i, payload in zip(pending, fresh):
            # A quarantine record is a failure report, not a result:
            # it must never be cached (a later run should retry) nor
            # mistaken for provenance in the store.
            if not is_quarantined(payload):
                cache.put(jobs[i].key, payload)
            results[i] = payload

    if store is not None:
        pending_set = set(pending)
        for i, job in enumerate(jobs):
            if is_quarantined(results[i]):
                continue
            store.append(job, results[i], cached=i not in pending_set)

    return BatchResult(
        jobs=jobs,
        results=results,  # type: ignore[arg-type]  (all filled above)
        computed=len(pending),
        cached=len(jobs) - len(pending),
    )


def _run_pending(jobs: List[Job], workers: Optional[int]) -> List[dict]:
    if workers is None or workers <= 1:
        return [run_job(job) for job in jobs]
    from repro.resilience.supervise import CancelToken, run_supervised

    # Each job gets its own copy of the caller's context, so a tracer
    # installed with ``use_tracer`` sees every attempt.
    cancel = CancelToken()
    with ThreadPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, run_supervised, job,
                        cancel=cancel)
            for job in jobs
        ]
        try:
            return [f.result() for f in futures]
        except BaseException:
            # Ctrl-C or a failed spawn: stop the running children and
            # drop the queued jobs instead of finishing the batch.
            cancel.set()
            for f in futures:
                f.cancel()
            raise
