"""Versioned simulator state capsules and the checkpointed run loop.

A *capsule* is one ``bytes`` blob holding everything cycle ``c+1``
depends on: the pickled :class:`~repro.sim.simulator.NocSimulator`
(component state, in-flight flits, RNG streams, fault/recovery state,
statistics), the traffic generator with its buffered lookahead draws,
and the global packet-id watermark.  The layout is::

    MAGIC | version (big-endian u32) | sha256(body) hex | "\\n" | pickle(body)

so a capsule from an incompatible library is refused, and corruption
detected, *before* anything is unpickled.

Byte-identity is the contract, leaning on two established invariants:

* splitting ``sim.run(N)`` into chunks is result-identical (the event
  kernel's ``EventScheduler.jump_target`` only shrinks at chunk ends —
  skipping less is always safe — and the scheduler built by the first
  run carries on into the next; a restored simulator builds a fresh one
  from component state);
* observation never changes results (PR 3), so capsules exclude
  recorders/probes and the host re-attaches them after restore.

:func:`run_with_checkpoints` is the production loop: run a chunk, save
a capsule atomically, repeat — a job killed at any point resumes from
the last capsule and finishes byte-identical to an uninterrupted run
(``tests/resilience/test_checkpoint.py`` proves it against the PR-4
fingerprint machinery).

Checkpointing reaches job runners through a :class:`CheckpointPlan` on
a ``ContextVar`` — the same side-channel pattern as
:class:`repro.lab.JobObserver` — so it never enters a job's cache key.
"""

from __future__ import annotations

import pickle
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from repro.resilience.integrity import (
    atomic_write_bytes,
    payload_digest,
    remove_stale_tempfiles,
)

#: Bump when the capsule layout or the pickled state shape changes.
#: 2: ON/OFF links log free-slot changes instead of per-cycle samples,
#: and switches keep int-indexed locks, arbiters and counters.
#: 3: packets carry no per-hop port plan, and switches no wiring flag.
#: 4: switches keep no clock; the version moved from the body to the
#: header.
#: 5: routing tables and NI LUTs fill on first lookup and carry their
#: rule and route source.
#: 6: components are built wired: an initiator NI keeps one injection
#: link per attached switch, a target NI no ejection-link map.
#: 7: links count the slots their receivers return: an ON/OFF link keeps
#: a change queue instead of a free-slot ring, and a target NI maps each
#: ejection link.
#: 8: a link holds the event wheel it posts on (``wheel``, ``token``);
#: an ON/OFF link no longer restarts its count after a repair.
#: 9: a topology is plain node and link dicts; a credit link keeps a
#: credit pool across its VCs.
#: 10: components, packets and flits are slotted, and packets, flits
#: and packet records pickle as field tuples; bounded FIFOs are lists,
#: and a link's poisoned set and a target NI's pending responses and
#: seen transfers are None until first used.
#: 11: the stats keep one log of every completed packet, which target
#: NIs write; targets keep no delivered packets.
#: 12: components refer to each other one way and pickle as slot-value
#: tuples; a target NI's ejection buffer is its own port.
#: 13: receivers take landed flits off their links (a link carries a
#: ``lag``, switches and targets their in-links' flit lists); an ON/OFF
#: link counts from its sends and returns, with no in-flight count or
#: delivery entries; a recovery controller pickles unbound.
CHECKPOINT_VERSION = 13

_MAGIC = b"repro-ckpt\x00"
_VERSION = struct.Struct(">I")
_DIGEST_LEN = 64  # sha256 hexdigest
_HEADER_LEN = len(_MAGIC) + _VERSION.size + _DIGEST_LEN + 1


class CheckpointError(RuntimeError):
    """Base class for capsule load failures."""


class CheckpointCorruptError(CheckpointError):
    """The capsule is damaged: bad magic, checksum, or pickle body."""


class CheckpointVersionError(CheckpointError):
    """The capsule was written by an incompatible library version."""


# ----------------------------------------------------------------------
# Capsule encode / decode
# ----------------------------------------------------------------------
class _Frames(list):
    """A write-only file that keeps each pickle frame as it is flushed."""

    def write(self, data) -> int:
        self.append(bytes(data))
        return len(data)


def snapshot_simulator(sim, traffic=None) -> bytes:
    """Serialize ``(sim, traffic)`` into a checksummed capsule.

    The pickle goes out in frames of ~64 KiB rather than into one
    buffer grown by reallocation: a growing multi-MB buffer is copied
    or not depending on where the allocator placed it, so the peak
    memory of a large snapshot — or of one that fails part-way — would
    vary from run to run.
    """
    from repro.arch.packet import packet_id_watermark

    frames = _Frames()
    pickle.dump(
        {
            "cycle": sim.cycle,
            "packet_watermark": packet_id_watermark(),
            "sim": sim,
            "traffic": traffic,
        },
        frames,
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    body = b"".join(frames)
    del frames[:]  # free the frames before the capsule is copied out
    return _encode(body)


def _encode(body: bytes, version: int = CHECKPOINT_VERSION) -> bytes:
    """Frame a pickle body as a capsule stamped with ``version``."""
    digest = payload_digest(body).encode("ascii")
    return b"".join((_MAGIC, _VERSION.pack(version), digest, b"\n", body))


def validate_capsule(capsule: bytes) -> bytes:
    """Version-check and checksum-verify a capsule; return its body.

    Cheap (no unpickling); raises :class:`CheckpointVersionError` on a
    capsule from another library version and
    :class:`CheckpointCorruptError` on any structural or checksum
    damage.
    """
    if not capsule.startswith(_MAGIC):
        raise CheckpointCorruptError("not a checkpoint capsule (bad magic)")
    if len(capsule) < _HEADER_LEN or capsule[_HEADER_LEN - 1] != 0x0A:
        raise CheckpointCorruptError("truncated checkpoint capsule")
    (version,) = _VERSION.unpack_from(capsule, len(_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {version} != supported {CHECKPOINT_VERSION}"
        )
    digest = capsule[_HEADER_LEN - 1 - _DIGEST_LEN:_HEADER_LEN - 1]
    body = capsule[_HEADER_LEN:]
    if payload_digest(body) != digest.decode("ascii", "replace"):
        raise CheckpointCorruptError(
            "checkpoint capsule failed its checksum (corrupt or truncated)"
        )
    return body


def restore_simulator(capsule: bytes):
    """Rebuild ``(sim, traffic)`` from a capsule.

    Restores the global packet-id watermark as a side effect, so packet
    ids continue exactly where the snapshotted run stopped.
    """
    from repro.arch.packet import set_packet_id_watermark

    body = validate_capsule(capsule)
    try:
        doc = pickle.loads(body)
    except Exception as exc:  # pickle raises a zoo of types
        raise CheckpointCorruptError(
            f"checkpoint body failed to unpickle: {exc}"
        ) from exc
    if not isinstance(doc, dict) or "sim" not in doc:
        raise CheckpointCorruptError("checkpoint body has the wrong shape")
    set_packet_id_watermark(doc["packet_watermark"])
    return doc["sim"], doc["traffic"]


# ----------------------------------------------------------------------
# On-disk checkpoint store
# ----------------------------------------------------------------------
class CheckpointStore:
    """A directory of capsules, one per job tag, written atomically.

    Tags are content keys or other filesystem-safe identifiers; each
    maps to ``<root>/<tag>.ckpt``.  ``save`` is atomic (temp file +
    rename), so readers only ever see whole capsules; whatever damage
    happens after the write is caught by the capsule checksum.
    """

    suffix = ".ckpt"

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.corrupt_discarded = 0

    def path_for(self, tag: str) -> Path:
        if not tag or not all(c.isalnum() or c in "-_." for c in tag):
            raise ValueError(f"malformed checkpoint tag {tag!r}")
        return self.root / f"{tag}{self.suffix}"

    def save(self, tag: str, capsule: bytes) -> Path:
        path = self.path_for(tag)
        atomic_write_bytes(path, capsule)
        return path

    def load(self, tag: str) -> Optional[bytes]:
        """Raw capsule bytes, or ``None`` when absent."""
        try:
            return self.path_for(tag).read_bytes()
        except OSError:
            return None

    def try_restore(self, tag: str):
        """``(sim, traffic)`` from the tagged capsule, or ``None``.

        A damaged or version-incompatible capsule is *discarded* (the
        job simply restarts from zero) rather than raised — a rotten
        checkpoint must never be worse than no checkpoint.
        """
        capsule = self.load(tag)
        if capsule is None:
            return None
        try:
            return restore_simulator(capsule)
        except CheckpointError:
            self.corrupt_discarded += 1
            self.discard(tag)
            return None

    def discard(self, tag: str) -> bool:
        try:
            self.path_for(tag).unlink()
            return True
        except OSError:
            return False

    def tags(self) -> Iterator[str]:
        try:
            names = sorted(
                p.name for p in self.root.glob(f"*{self.suffix}")
            )
        except FileNotFoundError:
            return
        for name in names:
            yield name[: -len(self.suffix)]

    def recovery_scan(self) -> dict:
        """Startup pass: drop temp-file orphans and corrupt capsules.

        Validates every capsule's version and checksum (without
        unpickling) and removes the ones that fail, so a later resume
        can trust whatever the scan left behind.  Returns a summary
        dict.
        """
        tmp_removed = remove_stale_tempfiles(self.root)
        corrupt = []
        kept = 0
        for tag in list(self.tags()):
            capsule = self.load(tag)
            if capsule is None:
                continue
            try:
                validate_capsule(capsule)
                kept += 1
            except CheckpointError:
                corrupt.append(tag)
                self.discard(tag)
        self.corrupt_discarded += len(corrupt)
        return {
            "root": str(self.root),
            "checkpoints": kept,
            "corrupt_removed": corrupt,
            "tempfiles_removed": tmp_removed,
        }


# ----------------------------------------------------------------------
# Plan side-channel (mirrors repro.lab's JobObserver ContextVar)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckpointPlan:
    """Where and how often the current job should checkpoint.

    Plain data (a directory path and an interval) so it crosses process
    boundaries in worker payloads.  Never part of a job spec: the plan
    rides a ``ContextVar``, exactly like :class:`repro.lab.JobObserver`,
    so cache keys and results are identical with or without one.
    """

    directory: str
    interval: int = 10_000

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("checkpoint interval must be >= 1 cycle")

    def store(self) -> CheckpointStore:
        return CheckpointStore(self.directory)


_PLAN: ContextVar[Optional[CheckpointPlan]] = ContextVar(
    "repro_resilience_checkpoint_plan", default=None
)

#: Cooperative-cancellation side channel: a supervised worker installs
#: the host's cancel event here so the checkpointed run loop can honor
#: a deadline/cancel at every chunk boundary (see supervise._child_main).
_CANCEL: ContextVar[Optional[object]] = ContextVar(
    "repro_resilience_cancel_event", default=None
)


def current_checkpoint_plan() -> Optional[CheckpointPlan]:
    """The active plan, if the host installed one for this job."""
    return _PLAN.get()


@contextmanager
def use_checkpoint_plan(plan: Optional[CheckpointPlan]):
    token = _PLAN.set(plan)
    try:
        yield plan
    finally:
        _PLAN.reset(token)


def current_cancel_event():
    """The host's cancellation event for the running job, if any."""
    return _CANCEL.get()


@contextmanager
def use_cancel_event(event):
    token = _CANCEL.set(event)
    try:
        yield event
    finally:
        _CANCEL.reset(token)


# ----------------------------------------------------------------------
# The checkpointed run loop
# ----------------------------------------------------------------------
def run_with_checkpoints(
    sim,
    cycles: int,
    traffic=None,
    *,
    store: CheckpointStore,
    tag: str,
    interval: int = 10_000,
    drain: bool = False,
    max_drain_cycles: int = 50_000,
):
    """Run ``sim`` to absolute cycle ``cycles``, capsuled every ``interval``.

    Semantically identical to ``sim.run(cycles - sim.cycle, traffic,
    drain=...)`` — chunked runs are byte-identical to one run — except
    that after every chunk the full state lands in ``store`` under
    ``tag``.  A resumed simulator (``sim.cycle > 0``) picks up exactly
    where its capsule stopped; a simulator already past ``cycles``
    (killed mid-drain) goes straight to the drain.

    Honors :func:`current_cancel_event` at every chunk boundary by
    raising :class:`repro.lab.JobCancelled`, which makes cancellation
    cooperative at checkpoint granularity for supervised workers.

    Returns ``sim.stats``.
    """
    if interval < 1:
        raise ValueError("checkpoint interval must be >= 1 cycle")
    if cycles < 0:
        raise ValueError("cycles must be non-negative")

    def _check_cancel() -> None:
        event = current_cancel_event()
        if event is not None and event.is_set():
            from repro.lab.jobs import JobCancelled

            raise JobCancelled()

    from repro.obs.telemetry import add_event

    while sim.cycle < cycles:
        _check_cancel()
        chunk = min(interval, cycles - sim.cycle)
        sim.run(chunk, traffic)
        store.save(tag, snapshot_simulator(sim, traffic))
        # Telemetry only (no-op without an active span): the worker's
        # span records where a later resume could pick up.
        add_event("checkpoint.save", cycle=sim.cycle)
    if drain:
        _check_cancel()
        sim.run(0, traffic, drain=True, max_drain_cycles=max_drain_cycles)
    return sim.stats
