"""The committed snapshot of the default Top500 list.

Every cold study command (``repro scenarios``, ``shift``, ``project``,
``report``) works on the default seed's list.  Synthesizing it — the
missingness plan plus 500 seeded :class:`~repro.data.top500.TrueSystem`
draws — costs ~50 ms and imports ``numpy.random``; decoding this
snapshot costs ~10 ms.  :func:`repro.data.top500.default_dataset`
reads it for :data:`~repro.data.top500.DEFAULT_SEED`.

Synthesis stays the reference: ``python -m repro.data.snapshot``
rewrites the file from ``generate_top500(DEFAULT_SEED)``, and
``tests/data/test_snapshot.py`` holds the decoded dataset equal to a
fresh synthesis field by field (floats by their bits).

The same command rewrites the one other committed artifact, the Table
II stand-in ``table2_standin.txt`` that ``repro report`` reads (see
:mod:`repro.data.paper_table`), from
:func:`repro.data.table2_synth.table2_text`; it is plain text, compared
byte for byte.

The format is gzip'd JSON, never pickle.  The JSON holds:

* ``header`` — ``format``, ``version``, ``seed`` and ``fields`` (the
  ``TrueSystem`` field names, in order).  Any mismatch with this code
  raises :class:`~repro.errors.ParseError`; there is no silent
  fallback to synthesis.
* ``truths`` — one row per system, values in ``fields`` order.  Floats
  are written by ``repr`` (which round-trips exactly) and enums as an
  explicit ``{"MemoryType": name}`` tag.
* ``plan`` — the :class:`~repro.data.missingness.MissingnessPlan`:
  per-rank hidden-field lists for both scenarios (rank order kept) and
  the sorted rank sets.

The JSON is deterministic, byte for byte; the gzip stream around it is
not, since its header and deflate output depend on the Python and zlib
that wrote it (CPython 3.13 writes a different OS byte than 3.11).  So
"the file is current" means its *decompressed* JSON equals a
regeneration's, which is what the test and CI compare.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import sys
import zlib
from pathlib import Path

from repro import obs
from repro.data.missingness import MissingnessPlan
from repro.data.top500 import DEFAULT_SEED, Top500Dataset, TrueSystem
from repro.errors import ParseError
from repro.hardware.memory import MemoryType

FORMAT = "repro.top500-snapshot"
VERSION = 1

#: The committed file, next to this module.
PATH = Path(__file__).with_name("top500_default.json.gz")

_FIELDS = tuple(f.name for f in dataclasses.fields(TrueSystem))
#: The one enum-valued field, stored as ``{"MemoryType": member name}``.
_ENUM_COLUMN = _FIELDS.index("memory_type")
_RANK_SETS = ("accelerated_ranks", "flagship_ranks", "dark_ranks",
              "component_opaque_ranks")
_HIDDEN = ("hidden_baseline", "hidden_public")


def _cell(value: object) -> object:
    if isinstance(value, MemoryType):
        return {"MemoryType": value.name}
    if value is None or type(value) in (int, float, str):
        return value
    raise TypeError(f"cannot snapshot a {type(value).__name__} value")


def _truth(row: list) -> TrueSystem:
    (tag, name), = row[_ENUM_COLUMN].items()
    if tag != "MemoryType":
        raise ParseError(f"unknown enum tag {tag!r} in the snapshot")
    row[_ENUM_COLUMN] = MemoryType[name]
    return TrueSystem(*row)


def encode(dataset: Top500Dataset) -> bytes:
    """The snapshot file's bytes for ``dataset``: gzip'd JSON."""
    plan = dataset.plan
    doc = {
        "header": {"format": FORMAT, "version": VERSION,
                   "seed": dataset.seed, "fields": list(_FIELDS)},
        "truths": [[_cell(getattr(t, name)) for name in _FIELDS]
                   for t in dataset.truths],
        "plan": {
            **{key: [[rank, sorted(hidden)]
                     for rank, hidden in getattr(plan, key).items()]
               for key in _HIDDEN},
            **{key: sorted(getattr(plan, key)) for key in _RANK_SETS},
        },
    }
    text = json.dumps(doc, allow_nan=False, separators=(",", ":"))
    return gzip.compress(text.encode("utf-8"), compresslevel=9, mtime=0)


def decode(raw: bytes, seed: int = DEFAULT_SEED) -> Top500Dataset:
    """The dataset a snapshot file's bytes hold; ``seed`` must match."""
    try:
        doc = json.loads(gzip.decompress(raw))
        header, rows, plan = doc["header"], doc["truths"], doc["plan"]
    except (OSError, EOFError, zlib.error, ValueError, KeyError,
            TypeError) as exc:
        raise ParseError(f"unreadable Top500 snapshot: {exc}") from None
    expected = {"format": FORMAT, "version": VERSION, "seed": seed,
                "fields": list(_FIELDS)}
    if header != expected:
        wrong = sorted(k for k in expected.keys() | header.keys()
                       if header.get(k) != expected.get(k)) \
            if isinstance(header, dict) else ["header"]
        raise ParseError(
            f"Top500 snapshot header does not match this code "
            f"({', '.join(wrong)}); regenerate it with "
            f"`python -m repro.data.snapshot`")
    try:
        truths = tuple(map(_truth, rows))
        missingness = MissingnessPlan(
            **{key: {rank: frozenset(hidden) for rank, hidden in plan[key]}
               for key in _HIDDEN},
            **{key: frozenset(plan[key]) for key in _RANK_SETS})
        return Top500Dataset(truths=truths, plan=missingness, seed=seed)
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise ParseError(f"malformed Top500 snapshot: {exc}") from None


def load(path: Path = PATH, seed: int = DEFAULT_SEED) -> Top500Dataset:
    """Decode the snapshot at ``path`` (default: the committed file)."""
    with obs.span("data.load", seed=seed):
        return decode(Path(path).read_bytes(), seed)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.data.snapshot [DIR]``: rewrite both artifacts.

    Writes ``top500_default.json.gz`` and ``table2_standin.txt`` into
    ``DIR`` (created if missing; default: the package's data directory,
    where the committed files live).
    """
    from repro.data.paper_table import STANDIN_PATH
    from repro.data.table2_synth import table2_text
    from repro.data.top500 import generate_top500

    args = sys.argv[1:] if argv is None else argv
    directory = Path(args[0]) if args else PATH.parent
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in (
            (PATH.name, encode(generate_top500(DEFAULT_SEED))),
            (STANDIN_PATH.name, table2_text().encode("utf-8"))):
        (directory / name).write_bytes(data)
        print(f"wrote {directory / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
