"""The two-level result cache: per-process L1 over a disk L2.

PR 8's :class:`~repro.serve.cache.ResultCache` amortizes repeated
questions within one daemon process.  The *next* daemon, after a
restart or a crash, and any other daemon pointed at the same
directory, can share those warm answers too, because the canonical-key
+ bit-identity contracts make the cached payload a pure function of
the question — whichever process computed it.

So the cache becomes two levels:

* **L1** — the existing in-process LRU, unchanged semantics, one per
  process.  Hits cost a dict lookup.
* **L2** — :class:`DiskCacheL2`, a directory shared across restarts
  (and by any daemon given the same ``--cache-dir``): one file per canonical digest, written
  atomically (temp file in the same directory, then ``os.replace``),
  each carrying its own SHA-256 so a torn, truncated, or poisoned
  file is detected on read, unlinked, counted
  (``serve.cache_l2_poisoned``), and recomputed — never served.  An
  L2 hit is promoted into L1, so a process pays the disk read once
  per entry per process lifetime.

Crash-safety by construction, not coordination: there are no locks
and no index file.  Writers race by renaming complete files over each
other (same key ⇒ same bytes, so last-writer-wins is a no-op);
readers see either a complete old file, a complete new file, or
nothing.  Eviction is mtime-LRU under a byte budget — reads freshen
mtime, and an eviction racing a read at worst costs a recompute.

Neither a write nor a health probe lists the directory: each writer
keeps a running byte tally and entry count (one scan when it is built,
then ``len(blob)`` and one entry per put) and scans again only when the
tally crosses the high-water mark, ``max_bytes`` plus
``1/_HIGH_WATER_DIVISOR`` of it.  A writer sees other writers' bytes
only at its own scans, so several daemons sharing a directory can
overshoot the mark by what the others wrote since.
"""

from __future__ import annotations

import hashlib
import os
import string
from pathlib import Path
from typing import Any

from repro import obs
from repro.serve.cache import ResultCache

__all__ = ["DiskCacheL2", "TieredResultCache", "l2_stats"]

#: L2 entry filename suffix (the stem is the canonical digest).
_ENTRY_SUFFIX = ".rc"

#: In-flight write prefix — a crash can leak at most files matching
#: this pattern, and the chaos suite asserts even that never happens
#: on the supervised paths.
_TMP_PREFIX = ".tmp-"

_HEX = set(string.hexdigits.lower())

#: A put scans once the tally passes ``max_bytes + max_bytes //
#: _HIGH_WATER_DIVISOR``, so a writer scans at most once per that slack.
_HIGH_WATER_DIVISOR = 8


def _checked_key(key: str) -> str:
    """Validate that ``key`` is a lowercase hex digest.

    Keys become filenames, so anything else (path separators, ``..``)
    is a programming error worth failing loudly on, not a cache miss.
    """
    if not key or any(c not in _HEX for c in key):
        raise ValueError(f"cache key must be a hex digest, got {key!r}")
    return key


class DiskCacheL2:
    """File-backed shared result cache: one checksummed file per key.

    ``max_bytes`` bounds the *payload* directory size.  Building the
    cache scans the directory once for its byte tally and entry count;
    puts add to both, and once the tally passes the high-water mark a
    put scans again (every scan counts ``serve.cache_l2_scans``) and evicts
    least-recently-used entries (by mtime — refreshed on every hit)
    until the budget holds again (``serve.cache_l2_evictions``).  One
    writer's directory so never exceeds ``max_bytes * 9/8`` plus the
    entry being written.
    """

    def __init__(self, directory: "str | os.PathLike", *,
                 max_bytes: int = 64 << 20):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._high_water = max_bytes + max_bytes // _HIGH_WATER_DIVISOR
        #: Bytes and entries this writer believes the directory holds:
        #: exact after each scan.  A re-put of a present key counts
        #: twice until the next scan, which only brings that scan
        #: sooner.
        self._tally = 0
        self._entries = 0
        self._rescan()

    def _path(self, key: str) -> Path:
        return self.directory / (_checked_key(key) + _ENTRY_SUFFIX)

    def get(self, key: str) -> "str | None":
        """The payload stored under ``key``, or ``None``.

        Every load re-verifies the entry's own SHA-256; a mismatch
        (torn write, truncation, bit rot, hostile edit) unlinks the
        file and reports a miss — the recompute-not-serve contract of
        the L1 cache, extended to bytes that crossed a crash.
        """
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except (FileNotFoundError, OSError):
            obs.inc("serve.cache_l2_misses")
            return None
        newline = blob.find(b"\n")
        checksum, payload = blob[:newline], blob[newline + 1:]
        if newline != 64 or \
                hashlib.sha256(payload).hexdigest().encode() != checksum:
            obs.inc("serve.cache_l2_poisoned")
            try:
                path.unlink()
            except OSError:
                return None
            self._tally -= len(blob)
            self._entries -= 1
            return None
        try:
            # Freshen mtime: hits move an entry to the young end of
            # the eviction order (mtime-LRU).
            os.utime(path)
        except OSError:
            pass
        obs.inc("serve.cache_l2_hits")
        return payload.decode("utf-8")

    def put(self, key: str, payload: str) -> None:
        """Atomically store ``payload`` under ``key``.

        The complete entry (checksum line + payload) is written to a
        temp file in the same directory and renamed into place, so a
        reader can never observe a half-written entry under the real
        name — the worst a crash leaves behind is a temp file the
        checksum guard would refuse anyway.
        """
        path = self._path(key)
        body = payload.encode("utf-8")
        blob = hashlib.sha256(body).hexdigest().encode() + b"\n" + body
        tmp = self.directory / f"{_TMP_PREFIX}{key}.{os.getpid()}"
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError:
            # A full or read-only disk must degrade the cache, never
            # the service; drop the partial temp file if it landed.
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        obs.inc("serve.cache_l2_puts")
        self._entries += 1
        if self._tally + len(blob) <= self._high_water:
            self._tally += len(blob)
        else:
            self._evict_over_budget()

    def _rescan(self) -> list[tuple[Path, int, float]]:
        """List the directory; the tally and count become its truth."""
        obs.inc("serve.cache_l2_scans")
        entries = self._scan()
        self._tally = sum(size for _, size, _ in entries)
        self._entries = len(entries)
        return entries

    def _evict_over_budget(self) -> None:
        """Scan, then unlink oldest-mtime entries until the byte budget
        holds; the tally becomes the directory's remaining total."""
        entries = self._rescan()
        if self._tally <= self.max_bytes:
            return
        for path, size, _ in sorted(entries, key=lambda e: e[2]):
            try:
                path.unlink()
            except OSError:
                continue
            obs.inc("serve.cache_l2_evictions")
            self._tally -= size
            self._entries -= 1
            if self._tally <= self.max_bytes:
                return

    def _scan(self) -> list[tuple[Path, int, float]]:
        return _scan_entries(self.directory)

    def stats(self) -> dict[str, Any]:
        """Entry count and byte usage from the running counts (the
        ``/readyz`` section): no directory listing, whatever its size."""
        return {
            "directory": str(self.directory),
            "entries": self._entries,
            "bytes": self._tally,
            "max_bytes": int(self.max_bytes),
        }

    def clear(self) -> None:
        for path, _, _ in self._scan():
            try:
                path.unlink()
            except OSError:
                pass
        self._tally = 0
        self._entries = 0


def _scan_entries(directory: Path) -> list[tuple[Path, int, float]]:
    """Every complete entry as ``(path, size, mtime)``."""
    entries = []
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    for name in names:
        if not name.endswith(_ENTRY_SUFFIX):
            continue
        path = directory / name
        try:
            stat = path.stat()
        except OSError:
            continue        # raced an eviction/replace
        entries.append((path, stat.st_size, stat.st_mtime))
    return entries


def l2_stats(directory: "str | os.PathLike | None",
             max_bytes: "int | None" = None) -> dict[str, Any]:
    """The L2 stats dict for a directory that may not exist (doctor).

    Lists the directory (``repro doctor`` reads a cache no process of
    its own keeps counts for), and never creates it — probing a
    configured-but-unused cache dir must not leave one behind.
    """
    if directory is None:
        return {"directory": None, "entries": 0, "bytes": 0,
                "max_bytes": 0}
    path = Path(directory)
    entries = _scan_entries(path)   # [] unless a listable directory
    return {"directory": str(path), "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "max_bytes": int(max_bytes or 0)}


class TieredResultCache:
    """L1 (in-memory LRU) over an optional shared L2 (disk).

    ``get_with_tier`` names where a hit came from so the HTTP layer
    can mark responses ``hit`` (L1) / ``hit-l2`` without the bytes
    ever differing; a plain :meth:`get` keeps the L1-only call shape
    for callers that do not care.
    """

    def __init__(self, l1: ResultCache, l2: "DiskCacheL2 | None" = None):
        self.l1 = l1
        self.l2 = l2

    def get_with_tier(self, key: str) -> "tuple[str | None, str | None]":
        """``(payload, tier)`` — tier is ``"l1"``, ``"l2"`` or None.

        An L2 hit is promoted into L1 so this process serves the next
        repeat from memory; the promotion stores the exact payload
        bytes the disk file carried, so promotion can never change a
        response.
        """
        payload = self.l1.get(key)
        if payload is not None:
            return payload, "l1"
        if self.l2 is not None:
            payload = self.l2.get(key)
            if payload is not None:
                self.l1.put(key, payload)
                return payload, "l2"
        return None, None

    def get(self, key: str) -> "str | None":
        return self.get_with_tier(key)[0]

    def put(self, key: str, payload: str) -> None:
        """Store through both levels (L2 write is the shared one)."""
        self.l1.put(key, payload)
        if self.l2 is not None:
            self.l2.put(key, payload)

    def __len__(self) -> int:
        return len(self.l1)

    def clear(self) -> None:
        self.l1.clear()
        if self.l2 is not None:
            self.l2.clear()
