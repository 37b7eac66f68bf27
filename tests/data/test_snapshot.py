"""The committed default-Top500 snapshot is the synthesized list, exactly.

``default_dataset()`` decodes ``repro/data/top500_default.json.gz``
instead of synthesizing the default seed.  These tests hold the decoded
dataset equal to ``generate_top500(DEFAULT_SEED)`` field by field (floats
by their bits), the file's JSON equal to what ``python -m
repro.data.snapshot`` writes (the gzip bytes around it depend on the
Python and zlib that compressed it), and every header or payload mismatch a :class:`ParseError`.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import math
import struct

import pytest

from repro.data import snapshot, top500
from repro.data.top500 import DEFAULT_SEED, TrueSystem, generate_top500
from repro.errors import ParseError


def _bits(value):
    """``value`` with floats replaced by their IEEE-754 bit patterns."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value), value)


@pytest.fixture(scope="module")
def committed() -> bytes:
    return snapshot.PATH.read_bytes()


@pytest.fixture(scope="module")
def decoded(committed):
    return snapshot.decode(committed)


def test_truths_equal_synthesis_bit_for_bit(decoded, dataset):
    assert len(decoded.truths) == len(dataset.truths) == 500
    for got, want in zip(decoded.truths, dataset.truths):
        for field in dataclasses.fields(TrueSystem):
            assert _bits(getattr(got, field.name)) == \
                _bits(getattr(want, field.name)), (want.rank, field.name)


def test_plan_equals_synthesis(decoded, dataset):
    got, want = decoded.plan, dataset.plan
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a == b, field.name
        if isinstance(b, dict):
            assert list(a) == list(b), field.name     # rank order kept
    assert decoded.seed == dataset.seed == DEFAULT_SEED
    assert decoded == dataset


def test_record_views_equal_synthesis(decoded, dataset):
    assert decoded.baseline_records() == dataset.baseline_records()
    assert decoded.public_records() == dataset.public_records()


def test_file_content_is_what_regeneration_writes(committed, dataset,
                                                  tmp_path):
    content = gzip.decompress(committed)
    assert gzip.decompress(snapshot.encode(dataset)) == content
    target = tmp_path / "snap.json.gz"
    assert snapshot.main([str(target)]) == 0
    assert gzip.decompress(target.read_bytes()) == content


def test_default_dataset_reads_the_snapshot(monkeypatch, dataset):
    def no_synthesis(seed):
        raise AssertionError("the default seed must not be synthesized")

    monkeypatch.setattr(top500, "generate_top500", no_synthesis)
    assert top500.default_dataset.__wrapped__(DEFAULT_SEED) == dataset


def test_other_seeds_are_synthesized():
    assert top500.default_dataset.__wrapped__(7) == generate_top500(7)


def _doc(raw: bytes) -> dict:
    return json.loads(gzip.decompress(raw))


def _pack(doc: dict) -> bytes:
    return gzip.compress(json.dumps(doc).encode(), mtime=0)


@pytest.mark.parametrize("key,value", [
    ("format", "something-else"),
    ("version", snapshot.VERSION + 1),
    ("seed", DEFAULT_SEED + 1),
    ("fields", list(snapshot._FIELDS[:-1])),
    ("fields", list(reversed(snapshot._FIELDS))),
])
def test_header_mismatch_raises(committed, key, value):
    doc = _doc(committed)
    doc["header"][key] = value
    with pytest.raises(ParseError, match=key):
        snapshot.decode(_pack(doc))


def test_seed_must_match_the_request(committed):
    with pytest.raises(ParseError, match="seed"):
        snapshot.decode(committed, seed=7)


@pytest.mark.parametrize("mutate", [
    lambda doc: doc["truths"][0].pop(),
    lambda doc: doc["truths"][3].__setitem__(
        snapshot._FIELDS.index("memory_type"), {"Bogus": "DDR5"}),
    lambda doc: doc["truths"][3].__setitem__(
        snapshot._FIELDS.index("memory_type"), {"MemoryType": "NOPE"}),
    lambda doc: doc["truths"].pop(),
    lambda doc: doc["plan"].pop("dark_ranks"),
    lambda doc: doc.pop("plan"),
], ids=["short-row", "enum-tag", "enum-name", "499-systems", "plan-key",
        "no-plan"])
def test_malformed_payload_raises(committed, mutate):
    doc = _doc(committed)
    mutate(doc)
    with pytest.raises(ParseError):
        snapshot.decode(_pack(doc))


@pytest.mark.parametrize("raw", [b"", b"not gzip", gzip.compress(b"[1, 2"),
                                 gzip.compress(b"[]")])
def test_unreadable_bytes_raise(raw):
    with pytest.raises(ParseError):
        snapshot.decode(raw)


def test_one_edited_value_is_caught(committed, dataset):
    doc = _doc(committed)
    column = snapshot._FIELDS.index("power_kw")
    value = doc["truths"][41][column]
    doc["truths"][41][column] = math.nextafter(value, math.inf)
    edited = snapshot.decode(_pack(doc))
    assert edited != dataset
    assert _bits(edited.truths[41].power_kw) != \
        _bits(dataset.truths[41].power_kw)
