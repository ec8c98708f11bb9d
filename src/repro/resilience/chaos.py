"""Infrastructure chaos harness: prove the serving stack survives.

A resilience claim that was never exercised is a hope.  This module
runs a *seeded chaos campaign* against a live, process-worker
:class:`~repro.serve.server.SimulationServer`:

* a **killer** thread SIGKILLs worker processes mid-job (aimed via
  :meth:`~repro.serve.workers.WorkerBridge.active_pids`),
* a **corrupter** thread flips bytes in / truncates on-disk cache
  entries while the server is reading and writing them,
* **staller** threads open NDJSON stream connections and stop reading,
* optional **poison** jobs exceed the per-job deadline on every attempt,

and then audits the wreckage against the ground truth (every job's
result computed locally, in-process, before any chaos starts):

* every submitted job reached a terminal state — nothing lost or hung;
* every ``done`` job's result is byte-identical (canonical JSON) to its
  reference — kills, resumes, and retries never changed an answer;
* every non-finished job is *explicitly* accounted: quarantined with a
  structured record after the retry budget, never silently failed;
* no corrupted cache entry is ever served — each reads back as a miss
  (detected and evicted) or as the exact reference payload.

Everything that varies is derived from ``ChaosConfig.seed``; wall-clock
interleaving is inherently nondeterministic, but the verdict —
:attr:`ChaosReport.ok` — must hold for every interleaving.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.lab.cache import ResultCache
from repro.lab.hashing import canonical_json
from repro.lab.jobs import Job, run_job
from repro.resilience.checkpoint import CheckpointPlan
from repro.resilience.supervise import RetryPolicy


@dataclass(frozen=True)
class ChaosConfig:
    """One campaign's shape; everything random derives from ``seed``."""

    jobs: int = 20
    seed: int = 7
    workers: int = 2
    cycles: int = 3000
    #: Jobs sized to blow the deadline on every attempt (quarantine
    #: expected).  Requires ``deadline_s``.
    poison_jobs: int = 1
    #: Checkpoint-capable fault-campaign jobs in the mix.
    fault_jobs: int = 2
    deadline_s: Optional[float] = 8.0
    max_attempts: int = 4
    checkpoint_interval: int = 1000
    kill_interval_s: float = 0.4
    max_kills: int = 5
    corrupt_interval_s: float = 0.5
    max_corruptions: int = 4
    stall_streams: int = 2
    stall_hold_s: float = 1.5
    wait_timeout_s: float = 300.0

    def __post_init__(self) -> None:
        if self.jobs < self.poison_jobs + self.fault_jobs + 1:
            raise ValueError("jobs must leave room for at least one "
                             "plain job beside poison/fault jobs")
        if self.poison_jobs and self.deadline_s is None:
            raise ValueError("poison jobs need a deadline_s to blow")

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs, "seed": self.seed, "workers": self.workers,
            "cycles": self.cycles, "poison_jobs": self.poison_jobs,
            "fault_jobs": self.fault_jobs, "deadline_s": self.deadline_s,
            "max_attempts": self.max_attempts,
            "checkpoint_interval": self.checkpoint_interval,
            "max_kills": self.max_kills,
            "max_corruptions": self.max_corruptions,
            "stall_streams": self.stall_streams,
        }


@dataclass
class ChaosReport:
    """The audited outcome of one campaign; ``ok`` is the verdict."""

    config: dict
    jobs_total: int = 0
    completed: int = 0
    quarantined: int = 0
    poison_quarantined: int = 0
    failed_unexpected: int = 0
    lost: int = 0
    mismatches: int = 0
    kills: int = 0
    corruptions: int = 0
    corrupt_detected: int = 0
    corrupt_served_wrong: int = 0
    stalls: int = 0
    server_retries: int = 0
    deadline_expired: int = 0
    elapsed_s: float = 0.0
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every job accounted for, every answer right, nothing hidden."""
        return (
            self.lost == 0
            and self.mismatches == 0
            and self.failed_unexpected == 0
            and self.corrupt_served_wrong == 0
            and self.completed + self.quarantined == self.jobs_total
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "config": self.config,
            "jobs_total": self.jobs_total,
            "completed": self.completed,
            "quarantined": self.quarantined,
            "poison_quarantined": self.poison_quarantined,
            "failed_unexpected": self.failed_unexpected,
            "lost": self.lost,
            "mismatches": self.mismatches,
            "kills": self.kills,
            "corruptions": self.corruptions,
            "corrupt_detected": self.corrupt_detected,
            "corrupt_served_wrong": self.corrupt_served_wrong,
            "stalls": self.stalls,
            "server_retries": self.server_retries,
            "deadline_expired": self.deadline_expired,
            "elapsed_s": round(self.elapsed_s, 3),
            "notes": self.notes,
        }


# ----------------------------------------------------------------------
# Campaign construction
# ----------------------------------------------------------------------
def build_campaign_jobs(config: ChaosConfig) -> Tuple[List[Job], Set[str]]:
    """The deterministic job list and the keys expected to quarantine."""
    jobs: List[Job] = []
    plain = config.jobs - config.poison_jobs - config.fault_jobs
    for i in range(plain):
        jobs.append(Job(
            kind="load_point",
            params={
                "topology": "mesh", "size": 4, "pattern": "uniform",
                "rate": round(0.04 + 0.01 * (i % 8), 3),
                "cycles": config.cycles,
                "warmup": min(250, config.cycles // 4),
                "packet_size": 4,
            },
            seed=config.seed * 1000 + i,
            tags=("chaos",),
        ))
    for i in range(config.fault_jobs):
        jobs.append(Job(
            kind="fault_campaign",
            params={
                "topology": "mesh", "size": 4, "rate": 0.08,
                "cycles": config.cycles, "switch_faults": 1,
                "packet_size": 4,
            },
            seed=config.seed * 1000 + 500 + i,
            tags=("chaos", "faults"),
        ))
    poison_keys: Set[str] = set()
    for i in range(config.poison_jobs):
        # Big enough that no attempt beats the deadline, small enough
        # to clear the server's per-job cycle quota.
        job = Job(
            kind="load_point",
            params={
                "topology": "mesh", "size": 8, "pattern": "uniform",
                "rate": 0.25, "cycles": 900_000, "warmup": 1000,
                "packet_size": 4,
            },
            seed=config.seed * 1000 + 900 + i,
            tags=("chaos", "poison"),
        )
        jobs.append(job)
        poison_keys.add(job.key)
    return jobs, poison_keys


def _compute_references(
    jobs: List[Job], poison_keys: Set[str]
) -> Dict[str, str]:
    """key -> canonical-JSON fingerprint, computed before any chaos."""
    references: Dict[str, str] = {}
    for job in jobs:
        if job.key in poison_keys:
            continue
        references[job.key] = canonical_json(run_job(job))
    return references


# ----------------------------------------------------------------------
# Chaos agents (threads against the live server)
# ----------------------------------------------------------------------
class _Killer(threading.Thread):
    """SIGKILL a random active worker process every interval."""

    def __init__(self, bridge, rng: random.Random, config: ChaosConfig,
                 report: ChaosReport, stop: threading.Event):
        super().__init__(name="chaos-killer", daemon=True)
        self.bridge, self.rng, self.config = bridge, rng, config
        self.report, self.stop = report, stop

    def run(self) -> None:
        while not self.stop.is_set() and (
            self.report.kills < self.config.max_kills
        ):
            if self.stop.wait(self.config.kill_interval_s):
                return
            pids = self.bridge.active_pids()
            if not pids:
                continue
            try:
                os.kill(self.rng.choice(pids), signal.SIGKILL)
                self.report.kills += 1
            except (ProcessLookupError, PermissionError):
                pass  # won the race against a clean exit


class _Corrupter(threading.Thread):
    """Truncate or bit-flip a random on-disk cache entry."""

    def __init__(self, cache_dir: Path, rng: random.Random,
                 config: ChaosConfig, report: ChaosReport,
                 stop: threading.Event, victims: Set[str]):
        super().__init__(name="chaos-corrupter", daemon=True)
        self.cache_dir, self.rng, self.config = cache_dir, rng, config
        self.report, self.stop, self.victims = report, stop, victims

    def run(self) -> None:
        while not self.stop.is_set() and (
            self.report.corruptions < self.config.max_corruptions
        ):
            if self.stop.wait(self.config.corrupt_interval_s):
                return
            entries = sorted(self.cache_dir.glob("??/*.json"))
            fresh = [e for e in entries if e.stem not in self.victims]
            if not fresh:
                continue
            target = self.rng.choice(fresh)
            try:
                data = target.read_bytes()
                if self.rng.random() < 0.5 and len(data) > 8:
                    # torn write: keep a prefix
                    target.write_bytes(data[: len(data) // 2])
                elif data:
                    flip = self.rng.randrange(len(data) // 2, len(data))
                    corrupted = bytearray(data)
                    corrupted[flip] ^= 0x01
                    target.write_bytes(bytes(corrupted))
                else:
                    continue
            except OSError:
                continue
            self.victims.add(target.stem)
            self.report.corruptions += 1


class _Staller(threading.Thread):
    """Open a stream connection, read a little, then go silent."""

    def __init__(self, host: str, port: int, job_id: str, hold_s: float,
                 report: ChaosReport):
        super().__init__(name="chaos-staller", daemon=True)
        self.host, self.port, self.job_id = host, port, job_id
        self.hold_s, self.report = hold_s, report

    def run(self) -> None:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=10.0
            )
        except OSError:
            return
        try:
            request = (
                f"GET /jobs/{self.job_id}/stream HTTP/1.1\r\n"
                f"Host: {self.host}\r\nConnection: close\r\n\r\n"
            )
            sock.sendall(request.encode("latin-1"))
            sock.recv(256)        # headers + a frame or two, then stall
            self.report.stalls += 1
            time.sleep(self.hold_s)
        except OSError:
            pass
        finally:
            sock.close()


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
def run_chaos_campaign(
    config: ChaosConfig = ChaosConfig(),
    root: Optional[str] = None,
) -> ChaosReport:
    """Run one seeded campaign against a live server; audit everything.

    ``root`` holds the cache and checkpoint directories (a fresh temp
    directory when omitted — a warm cache would defeat the point).
    """
    from repro.serve.session import SessionQuota
    from repro.serve.testing import ServerThread

    rng = random.Random(config.seed)
    report = ChaosReport(config=config.to_dict())
    base = Path(root) if root is not None else Path(tempfile.mkdtemp(
        prefix="repro-chaos-"
    ))
    cache_dir = base / "cache"
    ckpt_dir = base / "checkpoints"

    jobs, poison_keys = build_campaign_jobs(config)
    report.jobs_total = len(jobs)
    references = _compute_references(jobs, poison_keys)

    stop = threading.Event()
    victims: Set[str] = set()
    started = time.monotonic()
    with ServerThread(
        worker_mode="process",
        workers=config.workers,
        cache=ResultCache(cache_dir),
        quota=SessionQuota(
            max_concurrent=max(8, config.workers * 2),
            max_queue_depth=max(32, config.jobs),
            max_cycles=1_000_000,
        ),
        retry_policy=RetryPolicy(
            max_attempts=config.max_attempts, base_delay_s=0.05
        ),
        job_deadline_s=config.deadline_s,
        checkpoint_plan=CheckpointPlan(
            directory=str(ckpt_dir), interval=config.checkpoint_interval
        ),
        retry_seed=config.seed,
    ) as srv:
        client = srv.client(
            session="chaos",
            retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.1),
            retry_seed=config.seed,
        )
        killer = _Killer(srv.server.bridge, rng, config, report, stop)
        corrupter = _Corrupter(
            cache_dir, rng, config, report, stop, victims
        )
        killer.start()
        corrupter.start()

        submitted: List[Tuple[Job, str]] = []
        for job in jobs:
            doc = client.submit(
                job.kind, dict(job.params), seed=job.seed, tags=job.tags
            )
            submitted.append((job, doc["id"]))

        for i in range(config.stall_streams):
            _, job_id = submitted[i % len(submitted)]
            _Staller(
                srv.host, srv.port, job_id, config.stall_hold_s, report
            ).start()

        deadline = time.monotonic() + config.wait_timeout_s
        outcomes: List[Tuple[Job, Optional[dict]]] = []
        for job, job_id in submitted:
            budget = deadline - time.monotonic()
            try:
                doc = client.wait(job_id, timeout=max(1.0, budget))
            except TimeoutError:
                report.lost += 1
                report.notes.append(f"{job_id} never reached a terminal "
                                    f"state ({job.kind})")
                doc = None
            outcomes.append((job, doc))

        stop.set()
        killer.join(timeout=5.0)
        corrupter.join(timeout=5.0)
        stats = srv.server.stats()
        report.server_retries = stats["supervision"]["retries"]
        report.deadline_expired = stats["supervision"]["deadline_expired"]

    report.elapsed_s = time.monotonic() - started

    # ------------------------------------------------------------------
    # Audit: every job accounted for, every answer byte-identical.
    # ------------------------------------------------------------------
    for job, doc in outcomes:
        if doc is None:
            continue  # already counted lost
        poison = job.key in poison_keys
        if doc["state"] == "done":
            report.completed += 1
            if poison:
                report.notes.append(f"poison job {job.key[:8]} finished "
                                    "inside its deadline")
            elif canonical_json(doc.get("result")) != references[job.key]:
                report.mismatches += 1
                report.notes.append(f"{job.key[:8]} result diverged "
                                    "from its pre-chaos reference")
        elif doc.get("quarantined"):
            report.quarantined += 1
            if poison:
                report.poison_quarantined += 1
        else:
            report.failed_unexpected += 1
            report.notes.append(f"{job.key[:8]} failed without quarantine: "
                                f"{doc.get('error')}")

    # Corrupted entries must never read back wrong: a checksummed miss
    # (detected, evicted) or the intact reference payload are the only
    # acceptable outcomes.
    audit_cache = ResultCache(cache_dir)
    for key in sorted(victims):
        payload = audit_cache.get(key)
        if payload is None:
            report.corrupt_detected += 1
        elif (
            key in references
            and canonical_json(payload) != references[key]
        ):
            report.corrupt_served_wrong += 1
            report.notes.append(f"corrupted cache entry {key[:8]} was "
                                "served with a wrong payload")
    return report
