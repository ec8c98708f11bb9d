"""Content-addressed on-disk result cache.

Each cached payload lives at ``<root>/<key[:2]>/<key>.json`` where the
key is the job's content hash (spec + parameters + seed + code-version
salt, see :attr:`repro.lab.jobs.Job.key`).  Identity by content gives
the cache its two load-bearing properties:

* re-running a sweep recomputes only new or changed design points —
  unchanged jobs hash to the same key and hit;
* any change to the job spec, the seed, the runner version, or the
  library version changes the key, so stale results can never be
  returned — invalidation is structural, not TTL-based.

Writes are atomic (temp file + ``os.replace``) so a killed worker never
leaves a half-written entry.  Each entry is a checksummed envelope
(``{"__ck__": 1, "sha256": ..., "payload": ...}``): a torn, truncated,
or bit-flipped file is *detected* on read — counted, evicted, and
treated as a miss so the next compute rewrites it — rather than served
as a subtly wrong result.  An entry without the envelope marker counts
as corrupt too: one flipped byte in the marker must not turn the whole
envelope into a served result.  :meth:`ResultCache.verify` is the
startup recovery scan that audits every entry at once.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Union

#: Envelope-format version for checksummed cache entries.
_ENVELOPE_VERSION = 1


def _payload_sha256(payload: dict) -> str:
    from repro.lab.hashing import canonical_json
    from repro.resilience.integrity import payload_digest

    return payload_digest(canonical_json(payload))


class ResultCache:
    """Filesystem cache mapping content keys to JSON payloads."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Entries found corrupt (bad JSON or checksum mismatch) and
        #: evicted — by :meth:`get` or :meth:`verify`.
        self.corrupt = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        if len(key) < 3 or not key.isalnum():
            raise ValueError(f"malformed cache key {key!r}")
        return self.root / key[:2] / f"{key}.json"

    def _unwrap(self, doc) -> Optional[dict]:
        """Envelope to payload; ``None`` when the entry is no envelope
        or its checksum disagrees."""
        if not (isinstance(doc, dict) and doc.get("__ck__") is not None):
            return None
        payload = doc.get("payload")
        if (
            not isinstance(payload, dict)
            or doc.get("sha256") != _payload_sha256(payload)
        ):
            return None
        return payload

    def get(self, key: str) -> Optional[dict]:
        """The cached payload, or ``None`` on miss/corruption.

        Corruption — undecodable JSON, a missing envelope, or a
        checksum that no longer matches the payload — evicts the entry
        (so a later run recomputes and rewrites it) and counts in
        :attr:`corrupt`.
        """
        path = self._path(key)
        try:
            raw = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = self._unwrap(json.loads(raw))
            if payload is None:
                raise ValueError("cache entry fails its envelope check")
        except ValueError:
            self.corrupt += 1
            self.misses += 1
            self.evict(key)
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``key``, checksummed."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "__ck__": _ENVELOPE_VERSION,
            "sha256": _payload_sha256(payload),
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def verify(self, repair: bool = True) -> dict:
        """Startup recovery scan: audit every entry, purge the broken.

        Checks each entry decodes to an envelope whose checksum
        matches; with ``repair`` the failures are evicted so they
        recompute instead of lurking.  Stale temp files from writers
        killed mid-``put`` are removed too.  Returns a summary::

            {"entries": n, "corrupt": [...keys...], "tempfiles_removed": n}
        """
        from repro.resilience.integrity import remove_stale_tempfiles

        corrupt = []
        entries = 0
        for key in list(self.keys()):
            entries += 1
            path = self._path(key)
            try:
                doc = json.loads(path.read_text())
            except (OSError, ValueError):
                corrupt.append(key)
                continue
            if self._unwrap(doc) is None:
                corrupt.append(key)
        if repair:
            for key in corrupt:
                self.evict(key)
            self.corrupt += len(corrupt)
        return {
            "entries": entries,
            "corrupt": corrupt,
            "tempfiles_removed": remove_stale_tempfiles(self.root),
        }

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        """Every cached key; tolerant of concurrent eviction.

        The shard directories and their entries are snapshotted before
        yielding, and shards that vanish mid-scan (another process
        evicting or clearing) are silently skipped — iteration never
        raises because the cache shrank underneath it.
        """
        try:
            shards = sorted(
                entry
                for entry in self.root.iterdir()
                if entry.is_dir() and len(entry.name) == 2
            )
        except FileNotFoundError:
            return
        for shard in shards:
            try:
                # isalnum() screens out `.tmp-*` files from an in-flight
                # (or crashed) atomic put — those are not entries.
                names = sorted(
                    p.stem for p in shard.glob("*.json") if p.stem.isalnum()
                )
            except FileNotFoundError:
                continue
            yield from names

    def evict(self, key: str) -> bool:
        """Drop one entry; True if it existed."""
        path = self._path(key)
        try:
            path.unlink()
            return True
        except OSError:
            return False

    def clear(self) -> int:
        """Drop every entry; returns the number removed.

        Keys are snapshotted up front and entries already evicted by a
        concurrent writer are simply not counted.
        """
        removed = 0
        for key in list(self.keys()):
            removed += self.evict(key)
        return removed


class NullCache:
    """The ``--no-cache`` object: always misses, never stores."""

    hits = 0

    def __init__(self) -> None:
        self.misses = 0

    def get(self, key: str) -> Optional[dict]:
        self.misses += 1
        return None

    def put(self, key: str, payload: dict) -> None:
        pass

    def __contains__(self, key: str) -> bool:
        return False
