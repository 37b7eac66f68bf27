"""The checksum-validated result cache: forget, never lie."""

from __future__ import annotations

import pytest

from repro import obs
from repro.serve import faults
from repro.serve.cache import ResultCache, canonical_digest


class TestCanonicalDigest:
    def test_key_order_does_not_matter(self):
        assert canonical_digest({"a": 1, "b": [2.0, 3]}) == \
            canonical_digest({"b": [2.0, 3], "a": 1})

    def test_values_do_matter(self):
        assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})

    def test_nested_structures(self):
        left = canonical_digest([{"x": (1, 2)}, "s"])
        right = canonical_digest([{"x": (1, 2)}, "s"])
        assert left == right

    def test_non_json_types_raise_never_coerce(self):
        """Regression: ``default=str`` used to silently stringify
        non-JSON values, so two logically-distinct objects whose
        ``str()`` collide would share a digest — a wrong answer served
        from the cache.  Now it's a loud TypeError at digest time."""
        class Opaque:
            def __str__(self):
                return "same"

        with pytest.raises(TypeError, match="plain JSON data"):
            canonical_digest({"x": Opaque()})
        with pytest.raises(TypeError, match="plain JSON data"):
            canonical_digest([object()])
        # Enums are the documented example: callers lower explicitly.
        import enum

        class Kind(enum.Enum):
            A = "a"

        with pytest.raises(TypeError, match="plain JSON data"):
            canonical_digest({"kind": Kind.A})

    def test_enum_lowering_in_fleet_content_hash(self):
        """The batcher's explicit enum lowering keeps record hashing
        working (and collision-free against plain strings)."""
        from repro.serve.batcher import _canonical_field_value
        import enum

        class Kind(enum.Enum):
            A = "a"

        lowered = _canonical_field_value(Kind.A)
        assert lowered == ["Kind", "A"]
        assert canonical_digest(lowered) != canonical_digest("Kind.A")
        assert _canonical_field_value("plain") == "plain"


class TestResultCache:
    def test_round_trip_is_verbatim(self):
        cache = ResultCache()
        cache.put("k", '{"total": 1.5}')
        assert cache.get("k") == '{"total": 1.5}'

    def test_miss_returns_none_and_counts(self):
        cache = ResultCache()
        before = obs.get_counter("serve.cache_misses")
        assert cache.get("absent") is None
        assert obs.get_counter("serve.cache_misses") == before + 1

    def test_lru_evicts_least_recently_used(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", "1")
        cache.put("b", "2")
        cache.get("a")          # refresh a — b is now the LRU entry
        before = obs.get_counter("serve.cache_evictions")
        cache.put("c", "3")
        assert obs.get_counter("serve.cache_evictions") == before + 1
        assert cache.get("b") is None
        assert cache.get("a") == "1"
        assert cache.get("c") == "3"

    def test_poisoned_entry_detected_evicted_never_served(self):
        cache = ResultCache()
        cache.put("k", '{"total": 1.5}')
        assert cache.poison("k")
        before = obs.get_counter("serve.cache_poisoned")
        assert cache.get("k") is None          # detected, not served
        assert obs.get_counter("serve.cache_poisoned") == before + 1
        assert len(cache) == 0                 # evicted
        cache.put("k", '{"total": 1.5}')       # recompute overwrites
        assert cache.get("k") == '{"total": 1.5}'

    def test_poison_missing_key_is_false(self):
        assert not ResultCache().poison("absent")

    def test_cache_load_fault_raises_injected(self, monkeypatch):
        cache = ResultCache()
        cache.put("k", "payload")
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "raise@cache-load")
        before = obs.get_counter("serve.cache_faults")
        with pytest.raises(faults.InjectedFault):
            cache.get("k")
        assert obs.get_counter("serve.cache_faults") == before + 1
        # Without the spec the entry is intact — the fault was in the
        # load path, never in the stored data.
        monkeypatch.delenv(faults.FAULT_SPEC_ENV)
        assert cache.get("k") == "payload"

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=0)
