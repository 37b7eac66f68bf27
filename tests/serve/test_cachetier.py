"""The shared L2 disk cache: crash-safety, eviction, and tiering.

The L2 contract is the L1 contract extended across processes and
crashes: a stored payload is returned byte-identically or not at all —
a torn, truncated, or poisoned file is detected by its own checksum,
unlinked, counted, and reported as a miss.  Concurrency is safe by
construction (atomic write-then-rename, same key ⇒ same bytes), which
the multi-process race test exercises with real subprocesses.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.serve.cache import ResultCache
from repro.serve.cachetier import DiskCacheL2, TieredResultCache, l2_stats

KEY = hashlib.sha256(b"question").hexdigest()
KEY2 = hashlib.sha256(b"other").hexdigest()
PAYLOAD = '{"totals": {"use": 1.25}, "fleet": "doe-like"}'


class TestDiskCacheL2:
    def test_roundtrip_byte_identical(self, tmp_path):
        cache = DiskCacheL2(tmp_path / "l2")
        assert cache.get(KEY) is None
        cache.put(KEY, PAYLOAD)
        assert cache.get(KEY) == PAYLOAD

    def test_survives_reopen(self, tmp_path):
        DiskCacheL2(tmp_path / "l2").put(KEY, PAYLOAD)
        # A brand-new instance (≈ a restarted daemon) sees the entry.
        assert DiskCacheL2(tmp_path / "l2").get(KEY) == PAYLOAD

    def test_rejects_non_hex_keys(self, tmp_path):
        cache = DiskCacheL2(tmp_path)
        with pytest.raises(ValueError):
            cache.put("../escape", PAYLOAD)
        with pytest.raises(ValueError):
            cache.get("")

    def test_torn_write_detected_unlinked_counted(self, tmp_path):
        cache = DiskCacheL2(tmp_path)
        cache.put(KEY, PAYLOAD)
        path = cache._path(KEY)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])     # truncation mid-payload
        before = obs.get_counter("serve.cache_l2_poisoned")
        assert cache.get(KEY) is None
        assert obs.get_counter("serve.cache_l2_poisoned") == before + 1
        assert not path.exists()                    # unlinked, not retried

    def test_stale_checksum_detected(self, tmp_path):
        cache = DiskCacheL2(tmp_path)
        cache.put(KEY, PAYLOAD)
        path = cache._path(KEY)
        checksum, _, _ = path.read_bytes().partition(b"\n")
        path.write_bytes(checksum + b"\n" + PAYLOAD.encode() + b" ")
        before = obs.get_counter("serve.cache_l2_poisoned")
        assert cache.get(KEY) is None
        assert obs.get_counter("serve.cache_l2_poisoned") == before + 1
        assert not path.exists()

    def test_garbage_file_is_a_poisoned_miss(self, tmp_path):
        cache = DiskCacheL2(tmp_path)
        cache._path(KEY).write_bytes(b"not a cache entry at all")
        assert cache.get(KEY) is None
        assert not cache._path(KEY).exists()

    def test_eviction_is_mtime_lru_under_byte_budget(self, tmp_path):
        entry_bytes = 65 + len(PAYLOAD)            # checksum + \n + payload
        cache = DiskCacheL2(tmp_path, max_bytes=2 * entry_bytes)
        cache.put(KEY, PAYLOAD)
        os.utime(cache._path(KEY), (time.time() - 100, time.time() - 100))
        cache.put(KEY2, PAYLOAD)
        before = obs.get_counter("serve.cache_l2_evictions")
        third = hashlib.sha256(b"third").hexdigest()
        cache.put(third, PAYLOAD)                  # over budget by one
        assert obs.get_counter("serve.cache_l2_evictions") == before + 1
        assert cache.get(KEY) is None              # the oldest went
        assert cache.get(KEY2) == PAYLOAD
        assert cache.get(third) == PAYLOAD

    def test_hit_freshens_mtime_so_hot_entries_survive(self, tmp_path):
        entry_bytes = 65 + len(PAYLOAD)
        cache = DiskCacheL2(tmp_path, max_bytes=2 * entry_bytes)
        cache.put(KEY, PAYLOAD)
        cache.put(KEY2, PAYLOAD)
        old = time.time() - 100
        os.utime(cache._path(KEY), (old, old))
        os.utime(cache._path(KEY2), (old - 100, old - 100))
        assert cache.get(KEY2) == PAYLOAD          # freshen the older one
        cache.put(hashlib.sha256(b"third").hexdigest(), PAYLOAD)
        assert cache.get(KEY) is None              # stale-unread evicted
        assert cache.get(KEY2) == PAYLOAD          # hot entry survived

    def test_stats_and_l2_stats_agree(self, tmp_path):
        cache = DiskCacheL2(tmp_path / "l2", max_bytes=1 << 20)
        cache.put(KEY, PAYLOAD)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == 65 + len(PAYLOAD)
        probe = l2_stats(tmp_path / "l2", 1 << 20)
        assert probe == stats

    def test_l2_stats_never_creates_the_directory(self, tmp_path):
        missing = tmp_path / "nope"
        stats = l2_stats(missing)
        assert stats["entries"] == 0 and stats["bytes"] == 0
        assert not missing.exists()
        assert l2_stats(None)["directory"] is None

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = DiskCacheL2(tmp_path)
        for i in range(20):
            cache.put(hashlib.sha256(str(i).encode()).hexdigest(), PAYLOAD)
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.startswith(".tmp-")]
        assert leftovers == []


def _entry_bytes(payload: str = PAYLOAD) -> int:
    return 65 + len(payload.encode("utf-8"))    # checksum + \n + payload


def _dir_bytes(directory) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory) if name.endswith(".rc"))


def _spy_scans(monkeypatch, cache) -> list:
    """Record every directory scan ``cache`` makes."""
    calls = []
    real = cache._scan

    def scan():
        calls.append(1)
        return real()

    monkeypatch.setattr(cache, "_scan", scan)
    return calls


def _key(i) -> str:
    return hashlib.sha256(f"entry-{i}".encode()).hexdigest()


class TestByteTally:
    """A put adds its size to a running tally and lists the directory
    only when the tally crosses ``max_bytes * 9/8``."""

    def test_puts_under_budget_scan_at_most_once(self, tmp_path,
                                                 monkeypatch):
        cache = DiskCacheL2(tmp_path, max_bytes=1 << 20)
        scans = _spy_scans(monkeypatch, cache)
        before = obs.get_counter("serve.cache_l2_scans")
        for i in range(50):
            cache.put(_key(i), PAYLOAD)
        assert len(scans) <= 1
        puts_scans = obs.get_counter("serve.cache_l2_scans") - before
        assert puts_scans == len(scans)
        cache.stats()                       # probes scan, uncounted
        assert obs.get_counter("serve.cache_l2_scans") - before == puts_scans

    def test_churn_scans_once_per_eighth_and_stays_bounded(
            self, tmp_path, monkeypatch):
        max_bytes = 16 * _entry_bytes()
        slack = max_bytes // 8
        cache = DiskCacheL2(tmp_path, max_bytes=max_bytes)
        for i in range(16):                 # a full cache
            cache.put(_key(i), PAYLOAD)
        assert _dir_bytes(tmp_path) == max_bytes
        scans = _spy_scans(monkeypatch, cache)
        before = obs.get_counter("serve.cache_l2_scans")
        evicted = obs.get_counter("serve.cache_l2_evictions")
        written = 0
        for i in range(16, 216):
            payload = PAYLOAD + " " * (i % 5)   # entries of mixed size
            cache.put(_key(i), payload)
            written += _entry_bytes(payload)
            assert _dir_bytes(tmp_path) <= \
                max_bytes + slack + _entry_bytes(payload)
        assert len(scans) <= -(-written // slack) + 1
        assert obs.get_counter("serve.cache_l2_scans") == before + len(scans)
        assert obs.get_counter("serve.cache_l2_evictions") > evicted

    def test_first_put_of_a_smaller_budget_evicts(self, tmp_path,
                                                  monkeypatch):
        """A warm restart with a smaller ``--cache-l2-bytes``: its first
        put trims the directory."""
        big = DiskCacheL2(tmp_path, max_bytes=1 << 20)
        for i in range(20):
            big.put(_key(i), PAYLOAD)
        max_bytes = 5 * _entry_bytes()
        small = DiskCacheL2(tmp_path, max_bytes=max_bytes)
        scans = _spy_scans(monkeypatch, small)
        assert _dir_bytes(tmp_path) == 20 * _entry_bytes()
        evicted = obs.get_counter("serve.cache_l2_evictions")
        small.put(_key(20), PAYLOAD)
        assert len(scans) == 1
        assert _dir_bytes(tmp_path) <= max_bytes
        assert obs.get_counter("serve.cache_l2_evictions") == evicted + 16

    def test_clear_zeroes_the_tally(self, tmp_path, monkeypatch):
        cache = DiskCacheL2(tmp_path, max_bytes=4 * _entry_bytes())
        for i in range(3):
            cache.put(_key(i), PAYLOAD)
        cache.clear()
        assert _dir_bytes(tmp_path) == 0
        scans = _spy_scans(monkeypatch, cache)
        for i in range(3, 7):               # exactly the budget again
            cache.put(_key(i), PAYLOAD)
        assert scans == []                  # a stale tally would scan
        assert _dir_bytes(tmp_path) == 4 * _entry_bytes()


    def test_stats_follow_puts_evictions_and_poison_without_scans(
            self, tmp_path, monkeypatch):
        cache = DiskCacheL2(tmp_path, max_bytes=4 * _entry_bytes())
        scans = _spy_scans(monkeypatch, cache)
        for i in range(3):
            cache.put(_key(i), PAYLOAD)
        assert cache.stats()["entries"] == 3
        assert cache.stats()["bytes"] == _dir_bytes(tmp_path)
        (tmp_path / (_key(0) + ".rc")).write_bytes(b"torn")
        assert cache.get(_key(0)) is None          # poisoned: unlinked
        assert cache.stats()["entries"] == 2
        assert scans == []
        for i in range(3, 9):                      # past the high water
            cache.put(_key(i), PAYLOAD)
        assert scans                               # a put evicted
        assert cache.stats()["entries"] == len(os.listdir(tmp_path))
        assert cache.stats()["bytes"] == _dir_bytes(tmp_path)
        cache.clear()
        assert cache.stats()["entries"] == cache.stats()["bytes"] == 0


_WORKER = """
import hashlib, sys
sys.path.insert(0, {src!r})
from repro.serve.cachetier import DiskCacheL2

cache = DiskCacheL2({directory!r})
key = {key!r}
payload = {payload!r}
for _ in range(300):
    cache.put(key, payload)
    got = cache.get(key)
    assert got in (None, payload), "torn read: %r" % (got,)
"""


class TestMultiProcessSharing:
    def test_two_replicas_race_without_torn_reads(self, tmp_path):
        """Two real processes hammer one key; no reader ever sees a
        payload that differs from what was written (atomic rename +
        checksum guard — no locks involved)."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        code = _WORKER.format(src=os.path.abspath(src),
                              directory=str(tmp_path), key=KEY,
                              payload=PAYLOAD)
        workers = [subprocess.Popen([sys.executable, "-c", code],
                                    stderr=subprocess.PIPE)
                   for _ in range(2)]
        cache = DiskCacheL2(tmp_path)
        deadline = time.monotonic() + 30
        while any(proc.poll() is None for proc in workers):
            got = cache.get(KEY)
            assert got in (None, PAYLOAD)
            assert time.monotonic() < deadline, "workers hung"
        for proc in workers:
            assert proc.wait() == 0, proc.stderr.read().decode()
        # The race leaves a complete entry and zero temp droppings.
        assert cache.get(KEY) == PAYLOAD
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.startswith(".tmp-")]
        assert leftovers == []


class TestTieredResultCache:
    def test_l2_hit_promotes_into_l1(self, tmp_path):
        shared = DiskCacheL2(tmp_path)
        shared.put(KEY, PAYLOAD)                   # another replica's work
        tier = TieredResultCache(ResultCache(max_entries=8), shared)
        payload, where = tier.get_with_tier(KEY)
        assert (payload, where) == (PAYLOAD, "l2")
        payload, where = tier.get_with_tier(KEY)
        assert (payload, where) == (PAYLOAD, "l1")  # promoted

    def test_put_reaches_both_levels(self, tmp_path):
        shared = DiskCacheL2(tmp_path)
        tier = TieredResultCache(ResultCache(max_entries=8), shared)
        tier.put(KEY, PAYLOAD)
        assert shared.get(KEY) == PAYLOAD
        assert tier.l1.get(KEY) == PAYLOAD

    def test_restart_byte_identity(self, tmp_path):
        """A new process lifetime (fresh L1) over the same L2 serves
        the exact bytes the previous lifetime computed."""
        first = TieredResultCache(ResultCache(max_entries=8),
                                  DiskCacheL2(tmp_path))
        first.put(KEY, PAYLOAD)
        reborn = TieredResultCache(ResultCache(max_entries=8),
                                   DiskCacheL2(tmp_path))
        payload, where = reborn.get_with_tier(KEY)
        assert (payload, where) == (PAYLOAD, "l2")

    def test_without_l2_behaves_like_l1(self):
        tier = TieredResultCache(ResultCache(max_entries=8), None)
        assert tier.get_with_tier(KEY) == (None, None)
        tier.put(KEY, PAYLOAD)
        assert tier.get_with_tier(KEY) == (PAYLOAD, "l1")
        assert len(tier) == 1
        tier.clear()
        assert len(tier) == 0
