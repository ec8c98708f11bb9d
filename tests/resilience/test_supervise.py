"""Supervised execution: workers die, the batch survives.

The job kinds below are registered in this module; children are forked,
so they inherit the registrations.  Attempt counting crosses process
boundaries through marker files in a temp directory and through the
``attempt`` spans a tracer collects.
"""

import os
import random
import signal
import threading
import time

import pytest

from repro.lab import Job, ResultCache, ResultStore, run_jobs, runner
from repro.obs.telemetry import TelemetryHub, use_tracer
from repro.resilience.supervise import (
    GRACE_S,
    RetryPolicy,
    is_quarantined,
    quarantine_payload,
    run_supervised,
)


# ----------------------------------------------------------------------
# Job kinds (registered before any child forks)
# ----------------------------------------------------------------------
@runner("supervise_double")
def _double(job):
    return {"value": job.params["x"] * 2}


@runner("supervise_die_once")
def _die_once(job):
    """SIGKILL ourselves the first time each marker is seen."""
    marker = job.params["marker"]
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": job.params["value"]}


@runner("supervise_always_die")
def _always_die(job):
    os.kill(os.getpid(), signal.SIGKILL)


@runner("supervise_always_raise")
def _always_raise(job):
    raise ValueError(f"deterministic bug on {job.params['x']}")


@runner("supervise_sleep_forever")
def _sleep_forever(job):
    time.sleep(300)
    return {}


def _job(kind, **params):
    return Job(kind=kind, params=params)


def _values(batch):
    return [r["value"] for r in batch.results]


def _run_with_timeout(fn, timeout_s):
    """Run ``fn`` on a side thread; its result, or fail if it hangs."""
    out = {}
    worker = threading.Thread(
        target=lambda: out.setdefault("result", fn()), daemon=True
    )
    worker.start()
    worker.join(timeout_s)
    assert not worker.is_alive(), f"still running after {timeout_s}s"
    return out["result"]


# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=2.0, max_delay_s=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_backoff_shape_and_determinism(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0, jitter=0.5)
        a = [policy.delay_s(n, random.Random(42)) for n in (1, 2, 3, 6)]
        b = [policy.delay_s(n, random.Random(42)) for n in (1, 2, 3, 6)]
        assert a == b  # seeded jitter, not wall clock
        # exponential up to the cap, jitter in [1, 1.5)x
        assert 0.1 <= a[0] < 0.15
        assert 0.2 <= a[1] < 0.30
        assert 1.0 <= a[3] < 1.50  # capped at max_delay_s

    def test_quarantine_record_shape(self):
        attempts = [
            {"attempt": 1, "outcome": "died", "detail": "exitcode -9"},
            {"attempt": 2, "outcome": "deadline", "detail": "killed"},
        ]
        record = quarantine_payload(
            Job(kind="load_point", params={"rate": 0.1}, seed=3), attempts
        )
        assert is_quarantined(record)
        assert record["reason"] == "deadline"
        assert len(record["attempts"]) == 2
        assert record["key"]
        assert not is_quarantined({"survived": True})
        assert not is_quarantined(None)


class TestSupervisedExecutor:
    """The supervised runner, alone and behind ``run_jobs(workers=N)``."""

    def test_plain_success_keeps_order(self):
        jobs = [_job("supervise_double", x=x) for x in (3, 1, 5)]
        batch = run_jobs(jobs, workers=2)
        assert _values(batch) == [6, 2, 10]
        assert batch.quarantined == []

    def test_worker_death_is_retried(self, tmp_path):
        jobs = [
            _job("supervise_die_once", marker=str(tmp_path / f"m{i}"),
                 value=i)
            for i in range(3)
        ]
        hub = TelemetryHub()
        with use_tracer(hub.tracer):
            batch = run_jobs(jobs, workers=2)
        assert _values(batch) == [0, 1, 2]
        assert batch.quarantined == []
        attempts = [s for s in hub.spans() if s["name"] == "attempt"]
        assert sorted(s["status"] for s in attempts) == (
            ["failed:died"] * 3 + ["ok"] * 3
        )
        # one trace per job across its attempts; only the surviving
        # attempt's worker lived to report its worker.run span
        assert len({s["trace_id"] for s in attempts}) == 3
        ok_ids = {s["span_id"] for s in attempts if s["status"] == "ok"}
        worker_runs = [s for s in hub.spans() if s["name"] == "worker.run"]
        assert {s["parent_id"] for s in worker_runs} == ok_ids

    def test_persistent_death_quarantines(self):
        frames = []
        record = run_supervised(
            _job("supervise_always_die"),
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.01),
            on_frame=frames.append,
        )
        assert is_quarantined(record)
        assert record["reason"] == "died"
        assert len(record["attempts"]) == 2
        assert [(f["type"], f["outcome"]) for f in frames] == [
            ("retry", "died")
        ]

    def test_deterministic_error_quarantines_with_diagnosis(self):
        frames = []
        record = run_supervised(
            _job("supervise_always_raise", x="x"),
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.01),
            on_frame=frames.append,
        )
        assert is_quarantined(record)
        assert record["reason"] == "error"
        assert "deterministic bug on x" in record["attempts"][-1]["detail"]
        # fail fast: a runner error would fail every retry the same way
        assert len(record["attempts"]) == 1
        assert frames == []

    def test_deadline_escalation_kills_hung_worker(self):
        start = time.monotonic()
        record = run_supervised(
            _job("supervise_sleep_forever"),
            policy=RetryPolicy(max_attempts=1),
            deadline_s=0.5,
        )
        assert is_quarantined(record)
        assert record["reason"] == "deadline"
        # the sleeper never checks the stop event: terminate() ends it
        assert f"exitcode {-signal.SIGTERM}" in record["attempts"][0]["detail"]
        assert time.monotonic() - start < 0.5 + 2 * GRACE_S + 5.0

    def test_mixed_batch_isolates_the_poison(self, tmp_path):
        jobs = [
            _job("supervise_double", x=7),
            _job("supervise_always_die"),
            _job("supervise_die_once", marker=str(tmp_path / "once"),
                 value=42),
        ]
        batch = run_jobs(jobs, workers=2)
        assert batch.results[0]["value"] == 14
        assert is_quarantined(batch.results[1])
        assert batch.results[2]["value"] == 42

    def test_always_killed_job_does_not_hang_the_batch(self):
        """A worker SIGKILLed on every attempt costs its slot, nothing more.

        A ``multiprocessing.Pool`` never returns from ``map`` once one
        of its workers dies; the supervised path must.
        """
        jobs = [
            _job("supervise_double", x=1),
            _job("supervise_always_die"),
            _job("supervise_double", x=2),
            _job("supervise_double", x=3),
        ]
        batch = _run_with_timeout(lambda: run_jobs(jobs, workers=2), 30.0)
        victim = batch.results[1]
        assert is_quarantined(victim)
        assert victim["reason"] == "died"
        assert len(victim["attempts"]) == RetryPolicy().max_attempts
        assert [batch.results[i]["value"] for i in (0, 2, 3)] == [2, 4, 6]


class TestRunJobsIntegration:
    def test_quarantined_jobs_not_cached_or_stored(self, tmp_path):
        jobs = [
            Job(kind="load_point",
                params={"topology": "mesh", "size": 4, "rate": 0.05,
                        "cycles": 400, "warmup": 50}, seed=1),
            # Poison: unknown topology raises inside the runner.
            Job(kind="load_point",
                params={"topology": "nonexistent", "size": 4, "rate": 0.05,
                        "cycles": 400}, seed=2),
        ]
        cache = ResultCache(tmp_path / "cache")
        store = ResultStore(tmp_path / "store.jsonl")
        batch = run_jobs(jobs, workers=2, cache=cache, store=store)
        assert batch.results[0]["point"] is not None
        assert is_quarantined(batch.results[1])
        assert len(batch.quarantined) == 1
        # the good job is cached, the quarantine record is not
        assert cache.get(jobs[0].key) is not None
        assert cache.get(jobs[1].key) is None
        assert len(store) == 1
        # a rerun recomputes (and re-fails) the quarantined job only
        batch2 = run_jobs(jobs, workers=2, cache=cache, store=store)
        assert batch2.cached == 1 and batch2.computed == 1
