"""A DELETE escalates like a deadline: cooperative stop, terminate, kill.

The job kind below is registered in this module; process workers are
forked, so they inherit it.
"""

import os
import signal
import time
from pathlib import Path

import pytest

from repro.lab import ResultCache, runner
from repro.resilience.supervise import GRACE_S

from .test_supervision import LONG_JOB, _active_jobs, _wait_for_pids


@runner("serve_ignore_sigterm")
def _ignore_sigterm(job):
    """Never checks the stop event, and shrugs off ``terminate()``."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    Path(job.params["ready"]).touch()
    time.sleep(300)
    return {}


def test_cancel_kills_a_child_that_ignores_sigterm(server_factory, tmp_path):
    srv = server_factory(worker_mode="process", workers=1,
                         cache=ResultCache(tmp_path / "cache"))
    client = srv.client()
    ready = tmp_path / "ready"
    doc = client.submit("serve_ignore_sigterm", {"ready": str(ready)})
    pid = _wait_for_pids(srv.server.bridge)[0]
    deadline = time.monotonic() + 15.0
    while not ready.exists():
        assert time.monotonic() < deadline, "child never ignored SIGTERM"
        time.sleep(0.02)

    start = time.monotonic()
    client.cancel(doc["id"])
    final = client.wait(doc["id"], timeout=30.0)
    elapsed = time.monotonic() - start
    assert final["state"] == "cancelled"
    # terminate() after one grace period was ignored; kill() after the
    # second one was not
    assert 2 * GRACE_S <= elapsed < 2 * GRACE_S + 10.0
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    # the worker slot and the session's quota slot are both free again
    stats = client.stats()
    assert srv.server.bridge.busy == 0
    assert _active_jobs(stats) == 0
    ok = client.run("load_point", {**LONG_JOB, "cycles": 2000}, seed=29,
                    timeout=60.0)
    assert ok["state"] == "done"
