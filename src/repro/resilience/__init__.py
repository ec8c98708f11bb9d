"""repro.resilience — surviving the failures around the simulator.

PR 2 taught the *simulated fabric* to survive faults (live injection +
online recovery); this subsystem teaches the *execution stack* the same
trick.  The paper's thesis — NoCs shipped because they tolerated
real-world failure, not because the models were prettier — applies to
the toolchain too: a thousand-point sweep is only usable if a dead
worker, a corrupted cache entry, or a preempted host costs one retry,
not the batch.

Pieces:

* :mod:`repro.resilience.integrity` — atomic writes and checksummed
  payloads, shared by the cache, the stores, and the checkpoints;
* :mod:`repro.resilience.checkpoint` — versioned simulator state
  capsules (:func:`snapshot_simulator` / :func:`restore_simulator`),
  an atomic on-disk :class:`CheckpointStore`, and
  :func:`run_with_checkpoints`, the chunked run loop that persists a
  capsule every N cycles so an interrupted job resumes byte-identically;
* :mod:`repro.resilience.supervise` — :func:`run_supervised`, the one
  per-job runner of ``repro batch --jobs N`` and ``repro serve``
  (a child process per attempt with death detection, wall-clock
  deadlines and :class:`CancelToken` stops escalating cooperative →
  terminate → kill, :class:`RetryPolicy` backoff with seeded jitter,
  and poison-job quarantine records);
* :mod:`repro.resilience.chaos` — seeded fault-injection campaigns
  against a live server (worker kills, cache corruption, stalled
  streams) asserting that every job still finishes correctly or is
  explicitly quarantined.

Checkpointing and supervision are *opt-in side channels*: neither
enters a job's cache key, and a checkpointing-off run is byte-identical
to one that never heard of this module.
"""

from importlib import import_module

from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointPlan,
    CheckpointStore,
    CheckpointVersionError,
    current_cancel_event,
    current_checkpoint_plan,
    restore_simulator,
    run_with_checkpoints,
    snapshot_simulator,
    use_cancel_event,
    use_checkpoint_plan,
    validate_capsule,
)
from repro.resilience.integrity import (
    atomic_write_bytes,
    atomic_write_text,
    payload_digest,
)

#: Names resolved on first use: chaos campaigns and supervision pull in
#: the lab, the core flow, logging, sockets and multiprocessing, none of
#: which a checkpoint needs.
_LAZY = {
    "ChaosConfig": "chaos",
    "ChaosReport": "chaos",
    "build_campaign_jobs": "chaos",
    "run_chaos_campaign": "chaos",
    "QUARANTINE_KEY": "supervise",
    "CancelToken": "supervise",
    "RetryPolicy": "supervise",
    "is_quarantined": "supervise",
    "quarantine_payload": "supervise",
    "run_supervised": "supervise",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "CHECKPOINT_VERSION",
    "CancelToken",
    "ChaosConfig",
    "ChaosReport",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointPlan",
    "CheckpointStore",
    "CheckpointVersionError",
    "QUARANTINE_KEY",
    "RetryPolicy",
    "atomic_write_bytes",
    "atomic_write_text",
    "build_campaign_jobs",
    "current_cancel_event",
    "current_checkpoint_plan",
    "is_quarantined",
    "payload_digest",
    "quarantine_payload",
    "restore_simulator",
    "run_chaos_campaign",
    "run_supervised",
    "run_with_checkpoints",
    "snapshot_simulator",
    "use_cancel_event",
    "use_checkpoint_plan",
    "validate_capsule",
]
