"""The committed data files are what synthesis writes, exactly.

``default_dataset()`` decodes ``repro/data/top500_default.json.gz``
instead of synthesizing the default seed.  These tests hold the decoded
dataset equal to ``generate_top500(DEFAULT_SEED)`` field by field (floats
by their bits), the file's JSON equal to what ``python -m
repro.data.snapshot`` writes (the gzip bytes around it depend on the
Python and zlib that compressed it), and every header or payload mismatch a :class:`ParseError`.

``load_paper_table()`` reads the committed Table II stand-in
``repro/data/table2_standin.txt`` instead of synthesizing it; it must be
``table2_text()`` byte for byte.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import math
import struct

import pytest

from repro.data import paper_table, snapshot, table2_synth, top500
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
    target = tmp_path / "fresh"
    assert snapshot.main([str(target)]) == 0
    assert sorted(p.name for p in target.iterdir()) == \
        sorted([snapshot.PATH.name, paper_table.STANDIN_PATH.name])
    assert gzip.decompress((target / snapshot.PATH.name).read_bytes()) \
        == content
    assert (target / paper_table.STANDIN_PATH.name).read_bytes() == \
        paper_table.STANDIN_PATH.read_bytes()


def test_committed_table2_standin_is_the_synthesis():
    assert paper_table.STANDIN_PATH.read_text(encoding="utf-8") == \
        table2_synth.table2_text.__wrapped__()


def test_paper_table_reads_the_standin_and_never_synthesizes(monkeypatch):
    def no_synthesis():
        raise AssertionError("Table II must not be synthesized")

    monkeypatch.setattr(table2_synth, "table2_text", no_synthesis)
    monkeypatch.setattr(table2_synth, "_build_rows", no_synthesis)
    assert paper_table.load_paper_table.__wrapped__() == \
        paper_table.load_paper_table()


def test_a_transcription_takes_precedence(monkeypatch, tmp_path):
    transcription = tmp_path / "table2_raw.txt"
    transcription.write_text(
        paper_table.STANDIN_PATH.read_text(encoding="utf-8").replace(
            "1|El Capitan|", "1|El Capitan (transcribed)|"),
        encoding="utf-8")
    monkeypatch.setattr(paper_table, "TRANSCRIPTION_PATH", transcription)
    table = paper_table.load_paper_table.__wrapped__()
    assert table[0].name == "El Capitan (transcribed)"
    assert table[1:] == paper_table.load_paper_table()[1:]


def test_missing_standin_names_the_regeneration_command(monkeypatch,
                                                        tmp_path):
    monkeypatch.setattr(paper_table, "TRANSCRIPTION_PATH",
                        tmp_path / "table2_raw.txt")
    monkeypatch.setattr(paper_table, "STANDIN_PATH",
                        tmp_path / "table2_standin.txt")
    with pytest.raises(ParseError,
                       match=r"table2_standin\.txt.*"
                             r"`python -m repro\.data\.snapshot`"):
        paper_table.load_paper_table.__wrapped__()


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
