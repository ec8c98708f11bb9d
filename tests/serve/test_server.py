"""End-to-end serve tests over real sockets (server in a side thread).

Fast jobs keep this suite quick: the standard spec below finishes in a
few tens of milliseconds, and the ``serve_gate`` kind (see conftest)
blocks deterministically where a test needs a busy worker.
"""

import json
import threading

import pytest

from repro.lab import Job, ResultCache, ResultStore
from repro.lab.jobs import run_job
from repro.serve import ServeError, SessionQuota

FAST = {"topology": "mesh", "size": 3, "rate": 0.1,
        "cycles": 300, "warmup": 50}


def _wait_state(client, job_id, state, timeout=10.0):
    import time
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = client.status(job_id)
        if doc["state"] == state:
            return doc
        time.sleep(0.01)
    raise TimeoutError(f"job {job_id} never reached {state!r}")


def _canon(doc) -> str:
    return json.dumps(doc, sort_keys=True)


class TestLifecycle:
    def test_submit_then_wait_runs_to_done(self, server_factory):
        srv = server_factory()
        client = srv.client()
        assert client.health()["status"] == "ok"
        doc = client.run("load_point", FAST, seed=7)
        assert doc["state"] == "done" and not doc["cached"]
        assert doc["result"]["point"]["packets"] > 0
        stats = client.stats()
        assert stats["workers"]["dispatched"] == 1
        assert stats["jobs"]["done"] == 1

    def test_failed_job_reports_the_runner_error(self, server_factory):
        srv = server_factory()
        client = srv.client()
        doc = client.run("load_point", {**FAST, "topology": "not_a_topo"})
        assert doc["state"] == "failed"
        assert doc["error"]
        assert client.stats()["jobs"]["failed"] == 1


class TestCacheFirst:
    def test_identical_resubmission_is_zero_dispatch(
        self, server_factory, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")
        srv = server_factory(cache=cache, store=store)
        client = srv.client(session="alice")

        cold = client.run("load_point", FAST, seed=7)
        assert cold["state"] == "done" and not cold["cached"]
        assert client.stats()["workers"]["dispatched"] == 1

        hit = client.submit("load_point", FAST, seed=7)
        # Answered inline: already terminal, result attached, no id to
        # wait on needed.
        assert hit["state"] == "done" and hit["cached"]
        assert _canon(hit["result"]) == _canon(cold["result"])

        stats = client.stats()
        assert stats["workers"]["dispatched"] == 1     # zero new dispatch
        assert stats["cache"]["served_from_cache"] == 1
        assert stats["cache"]["hits"] == 1
        alice = next(s for s in stats["per_session"]
                     if s["session"] == "alice")
        assert alice["cache_hits"] == 1

        # Both servings landed in the store, flagged correctly.
        meta = store.run_metadata()
        assert meta["computed"] == 1 and meta["cached"] == 1

    def test_cache_is_shared_across_sessions(self, server_factory, tmp_path):
        srv = server_factory(cache=ResultCache(tmp_path / "cache"))
        srv.client(session="alice").run("load_point", FAST, seed=7)
        hit = srv.client(session="bob").submit("load_point", FAST, seed=7)
        assert hit["cached"]
        assert srv.client().stats()["workers"]["dispatched"] == 1

    def test_finished_records_are_bounded(
        self, server_factory, tmp_path, monkeypatch
    ):
        """Cache hits past the bound retire the oldest finished records."""
        from repro.serve import server as server_module

        bound = 8
        monkeypatch.setattr(server_module, "MAX_FINISHED_JOBS", bound)
        srv = server_factory(cache=ResultCache(tmp_path / "cache"))
        client = srv.client()
        cold = client.run("load_point", FAST, seed=7)
        hits = [client.submit("load_point", FAST, seed=7)
                for __ in range(bound + 5)]
        assert all(hit["cached"] for hit in hits)
        assert len(srv.server.jobs) <= bound
        for retired in (cold, hits[0]):
            with pytest.raises(ServeError) as exc:
                client.status(retired["id"])
            assert exc.value.status == 404
        assert client.status(hits[-1]["id"])["state"] == "done"

    def test_different_seed_misses(self, server_factory, tmp_path):
        srv = server_factory(cache=ResultCache(tmp_path / "cache"))
        client = srv.client()
        client.run("load_point", FAST, seed=7)
        warm = client.run("load_point", FAST, seed=8)
        assert not warm["cached"]
        assert client.stats()["workers"]["dispatched"] == 2


class TestStreaming:
    def test_streamed_run_matches_direct_execution(self, server_factory):
        """Observation must not perturb results: served == run_job."""
        srv = server_factory()
        client = srv.client()
        doc = client.submit("load_point", FAST, seed=7,
                            metrics_interval=50, trace=True)
        frames = list(client.stream(doc["id"]))

        types = {f["type"] for f in frames}
        assert "state" in types and "metrics" in types and "trace" in types
        assert frames[-1]["type"] == "result"
        served = frames[-1]["result"]

        direct = run_job(Job(kind="load_point", params=FAST, seed=7))
        assert _canon(served) == _canon(direct)

    def test_finished_job_replays_its_history(self, server_factory):
        srv = server_factory()
        client = srv.client()
        doc = client.run("load_point", FAST, seed=7, metrics_interval=100)
        frames = list(client.stream(doc["id"]))   # job already terminal
        assert frames[0]["type"] == "state"
        assert any(f["type"] == "metrics" for f in frames)
        assert frames[-1]["type"] == "result"
        assert _canon(frames[-1]["result"]) == _canon(doc["result"])

    def test_streaming_never_enters_the_result(self, server_factory):
        """`stream` options are envelope-only: no metrics key appears."""
        srv = server_factory()
        client = srv.client()
        doc = client.run("load_point", FAST, seed=7, metrics_interval=50)
        assert "metrics" not in doc["result"]


class TestQuotaBackpressure:
    def test_session_at_max_concurrency_gets_429(self, server_factory, gate):
        srv = server_factory(quota=SessionQuota(max_concurrent=1), workers=1)
        client = srv.client(session="alice")
        a = client.submit("serve_gate", gate.job_params("q429-a"))
        _wait_state(client, a["id"], "running")

        with pytest.raises(ServeError) as err:
            client.submit("serve_gate", gate.job_params("q429-b"))
        assert err.value.status == 429 and err.value.retriable

        gate.open("q429-a")
        assert client.wait(a["id"])["state"] == "done"

        # The slot came back: the same submission is now admitted.
        b = client.submit("serve_gate", gate.job_params("q429-b"))
        gate.open("q429-b")
        assert client.wait(b["id"])["state"] == "done"

    def test_cancelled_queued_job_releases_its_slot(
        self, server_factory, gate
    ):
        srv = server_factory(quota=SessionQuota(max_concurrent=2), workers=1)
        client = srv.client(session="alice")
        a = client.submit("serve_gate", gate.job_params("slot-a"))
        _wait_state(client, a["id"], "running")
        b = client.submit("serve_gate", gate.job_params("slot-b"))
        assert b["state"] == "queued"

        with pytest.raises(ServeError) as err:
            client.submit("serve_gate", gate.job_params("slot-c"))
        assert err.value.status == 429

        cancelled = client.cancel(b["id"])
        assert cancelled["state"] == "cancelled"

        c = client.submit("serve_gate", gate.job_params("slot-c"))
        gate.open("slot-a")
        gate.open("slot-c")
        assert client.wait(a["id"])["state"] == "done"
        assert client.wait(c["id"])["state"] == "done"
        assert client.stats()["jobs"]["cancelled"] == 1

    def test_cancelling_a_running_job_marks_it_cancelled(
        self, server_factory, gate
    ):
        srv = server_factory(workers=1)
        client = srv.client()
        a = client.submit("serve_gate", gate.job_params("run-cancel"))
        _wait_state(client, a["id"], "running")
        doc = client.cancel(a["id"])
        assert doc["cancelling"]
        gate.open("run-cancel")
        final = client.wait(a["id"])
        assert final["state"] == "cancelled"
        assert "result" not in final

    def test_global_queue_depth_is_backpressure_too(
        self, server_factory, gate
    ):
        srv = server_factory(workers=1, max_queue_depth=1)
        client = srv.client()
        a = client.submit("serve_gate", gate.job_params("gq-a"))
        _wait_state(client, a["id"], "running")
        b = client.submit("serve_gate", gate.job_params("gq-b"))
        assert b["state"] == "queued"
        with pytest.raises(ServeError) as err:
            client.submit("serve_gate", gate.job_params("gq-c"))
        assert err.value.status == 429
        assert "queue" in err.value.body["error"]
        gate.open("gq-a")
        gate.open("gq-b")
        client.wait(a["id"])
        client.wait(b["id"])

    def test_cycle_budget_is_enforced_per_job(self, server_factory):
        srv = server_factory(quota=SessionQuota(max_cycles=1000))
        with pytest.raises(ServeError) as err:
            srv.client().submit("load_point", {**FAST, "cycles": 5000})
        assert err.value.status == 429
        assert "cycles" in err.value.body["error"]


class TestShutdown:
    def test_graceful_shutdown_drains_in_flight_jobs(
        self, server_factory, gate, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        srv = server_factory(cache=cache, workers=1)
        client = srv.client()
        a = client.submit("serve_gate", gate.job_params("drain-a"))
        _wait_state(client, a["id"], "running")

        # Release the worker shortly after the drain begins.
        threading.Timer(0.3, gate.open, args=("drain-a",)).start()
        srv.stop(drain=True)

        record = srv.server.jobs[a["id"]]
        assert record.state == "done"
        assert not srv.server.accepting
        # The drained result reached the shared cache.
        key = Job(kind="serve_gate", params={"gate": "drain-a"}).key
        assert cache.get(key) == record.result


class TestHttpSurface:
    def test_error_statuses(self, server_factory):
        srv = server_factory()
        client = srv.client()
        cases = [
            ("GET", "/jobs/nope", None, 404),
            ("GET", "/nowhere", None, 404),
            ("POST", "/healthz", None, 405),
            ("PUT", "/jobs", None, 405),
            ("POST", "/jobs", {"kind": "no_such_kind", "params": {}}, 400),
        ]
        for method, path, body, expected in cases:
            status, doc, _headers = client._request(method, path, body)
            assert status == expected, (method, path)
            assert doc["status"] == expected and doc["error"]

    def test_invalid_json_body_is_400(self, server_factory):
        import http.client
        srv = server_factory()
        conn = http.client.HTTPConnection(srv.host, srv.port, timeout=10)
        try:
            conn.request("POST", "/jobs", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
        finally:
            conn.close()

    def test_stats_shape(self, server_factory):
        stats = server_factory().client().stats()
        assert stats["protocol"] == 1
        assert stats["accepting"]
        assert {"hits", "misses", "hit_rate", "served_from_cache"} <= set(
            stats["cache"]
        )
        assert {"total", "mode", "busy", "dispatched"} <= set(
            stats["workers"]
        )


class TestProcessWorkers:
    def test_process_mode_end_to_end(self, server_factory):
        """The deployment mode: jobs run in child processes."""
        srv = server_factory(worker_mode="process", workers=1)
        client = srv.client()
        doc = client.run("load_point", FAST, seed=7,
                         metrics_interval=100, timeout=60)
        assert doc["state"] == "done"
        direct = run_job(Job(kind="load_point", params=FAST, seed=7))
        assert _canon(doc["result"]) == _canon(direct)
        frames = list(client.stream(doc["id"]))
        assert any(f["type"] == "metrics" for f in frames)
        assert frames[-1]["type"] == "result"
