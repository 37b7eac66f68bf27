"""Checksum-validated result cache for the assessment daemon.

The daemon's amortization story: an identical request (same fleet
*content*, same canonical scenario lowering, same band parameters and
seed) must not re-run the sweep kernel.  Entries are keyed by a digest
of the canonical request — which includes a **content** hash of the
fleet's records, so two fleets that merely share a name can never
collide, and a mutated fleet naturally misses.

Crash-safety is the design center, not capacity: every stored payload
travels with its own SHA-256, re-verified on *every* load, so a
poisoned or torn entry is detected, counted
(``serve.cache_poisoned``), evicted, and recomputed — never served.
The ``cache-load`` fault point injects exactly that failure mode (plus
arbitrary load-time exceptions, which are treated as misses) in the
chaos suite.

Capacity is a bounded LRU; eviction is silent (a cache is allowed to
forget, never to lie).
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Any

from repro import obs
from repro.serve import faults

__all__ = ["ResultCache", "canonical_digest"]


def canonical_digest(parts: Any) -> str:
    """SHA-256 hex digest of a JSON-canonicalized structure.

    ``parts`` must be plain data (dicts/lists/scalars); dict keys are
    sorted so logically-equal requests digest identically regardless of
    construction order.

    Non-JSON types are a :class:`TypeError`, never a silent coercion:
    a ``default=str`` fallback would let logically-distinct values
    digest identically (two objects whose ``str()`` collide, or a
    value whose repr hides the distinguishing state) — and since these
    digests key the shared result cache, a collision is a wrong answer
    served with a straight face.  Callers with legitimately non-JSON
    values (enums, say) must canonicalize them *explicitly* before
    digesting, as :func:`repro.serve.batcher.fleet_content_hash` does.
    """
    try:
        blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"canonical_digest needs plain JSON data "
            f"(dicts/lists/str/int/float/bool/None): {exc}") from exc
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Bounded LRU of ``key → (payload JSON, checksum)``.

    Payloads are stored as the exact JSON text the response will carry
    (bit-identity extends to the serialized bytes: a cache hit returns
    byte-for-byte what the miss computed) together with its SHA-256.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, tuple[str, str]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> "str | None":
        """The cached payload JSON for ``key``, or ``None``.

        Consults the ``cache-load`` fault point first (a matching
        ``raise``/``fail`` rule raises :class:`InjectedFault`, which
        the caller treats as a miss), then re-verifies the stored
        checksum — a mismatch means the entry was corrupted after it
        was stored, so it is dropped and counted, never returned.
        """
        rule = faults.matching("cache-load")
        if rule is not None and rule.action in ("raise", "fail"):
            obs.inc("serve.cache_faults")
            raise faults.InjectedFault("cache-load", detail=f"key={key[:12]}")
        entry = self._entries.get(key)
        if entry is None:
            obs.inc("serve.cache_misses")
            return None
        payload, checksum = entry
        if hashlib.sha256(payload.encode("utf-8")).hexdigest() != checksum:
            obs.inc("serve.cache_poisoned")
            del self._entries[key]
            return None
        self._entries.move_to_end(key)
        obs.inc("serve.cache_hits")
        return payload

    def put(self, key: str, payload: str) -> None:
        """Store ``payload`` (JSON text) under ``key`` with its checksum."""
        checksum = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        self._entries[key] = (payload, checksum)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            obs.inc("serve.cache_evictions")

    def poison(self, key: str) -> bool:
        """Corrupt a stored entry *in place* (tests only).

        Returns True when the entry existed.  The corruption flips the
        payload while keeping the stale checksum — exactly the torn
        write :meth:`get` must refuse to serve.
        """
        entry = self._entries.get(key)
        if entry is None:
            return False
        payload, checksum = entry
        self._entries[key] = (payload + " ", checksum)
        return True

    def clear(self) -> None:
        self._entries.clear()
