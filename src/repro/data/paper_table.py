"""Parser for the paper's appendix Table II (embedded reference data).

Table II prints, for each of the 500 systems, the operational and
embodied carbon under three data scenarios — ``top500.org``,
``+public info``, ``+interpolated`` — leaving blank the cells a
scenario could not cover.  The data file preserves only the *printed*
values per row, so the parser must recover which of the six cells each
value belongs to.

Two structural invariants make this tractable (§6 of DESIGN.md):

1. **Monotone coverage** — adding public info never removes a
   top500.org estimate and interpolation completes every system, so
   per metric the only presence patterns are ``(T,P,I)``, ``(-,P,I)``,
   ``(-,-,I)``: 3, 2 or 1 printed values, and the *interpolated* cell
   is always printed.
2. **Interpolation copies** — for a system the scenario already covers,
   the interpolated column repeats the ``+public`` value, so in a
   3-value pattern the last two values are equal, and in a 2-value
   pattern both are equal.

Each row's value list is split between operational and embodied by
trying candidate splits in a fixed preference order and keeping the
first one whose halves satisfy the invariants.  The preference order
puts operational-heavier splits first because operational coverage
strictly dominates embodied coverage in the paper (391 vs 283 baseline,
490 vs 404 with public info), making e.g. ``(2,2)`` overwhelmingly more
likely than ``(1,3)`` when both parse.  Aggregate totals are validated
against the paper's printed numbers in
``tests/data/test_paper_table.py``.

Two files next to this module can hold the table, in the same
``rank|name|v1 v2 ...`` format (``#`` lines are comments); the first
one present is read:

1. ``table2_raw.txt`` — a transcription of the paper's appendix.  It is
   not redistributable, so the repository ships none.
2. ``table2_standin.txt`` — the committed, calibrated stand-in that
   :mod:`repro.data.table2_synth` synthesizes.  ``python -m
   repro.data.snapshot`` rewrites it, and
   ``tests/data/test_snapshot.py`` holds it equal to a fresh synthesis.

Nothing synthesizes at run time: with neither file present,
:func:`load_paper_table` raises :class:`~repro.errors.ParseError`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ParseError

#: A transcription of the paper's table; read first when present.
TRANSCRIPTION_PATH = Path(__file__).with_name("table2_raw.txt")
#: The committed synthesized stand-in, read when there is no transcription.
STANDIN_PATH = Path(__file__).with_name("table2_standin.txt")


@dataclass(frozen=True, slots=True)
class ScenarioValues:
    """One footprint (operational or embodied) across the three scenarios.

    ``None`` means the scenario could not cover the system.  By
    construction ``interpolated`` is never ``None``.
    """

    top500: float | None
    public: float | None
    interpolated: float

    def __post_init__(self) -> None:
        if self.top500 is not None and self.public is None:
            raise ParseError("monotone coverage violated: top500 without public")

    @property
    def interpolation_only(self) -> bool:
        """Covered only by interpolation (neither data scenario)."""
        return self.public is None


@dataclass(frozen=True, slots=True)
class PaperSystem:
    """One Table II row: a system's published carbon results."""

    rank: int
    name: str | None
    operational: ScenarioValues
    embodied: ScenarioValues


# Candidate (n_operational_values, n_embodied_values) splits, tried in
# order; operational-heavy first (see module docstring).
_SPLIT_PREFERENCE: tuple[tuple[int, int], ...] = (
    (3, 3), (3, 2), (2, 3), (2, 2), (3, 1), (1, 3), (2, 1), (1, 2), (1, 1),
)


def _values_to_scenario(values: list[float]) -> ScenarioValues | None:
    """Interpret 1-3 printed values as one metric's scenario triple.

    Returns ``None`` when the values violate the invariants (signals an
    invalid candidate split, not an error).
    """
    if len(values) == 3:
        if values[1] != values[2]:
            return None
        return ScenarioValues(top500=values[0], public=values[1], interpolated=values[2])
    if len(values) == 2:
        if values[0] != values[1]:
            return None
        return ScenarioValues(top500=None, public=values[0], interpolated=values[1])
    if len(values) == 1:
        return ScenarioValues(top500=None, public=None, interpolated=values[0])
    return None


def parse_row_values(values: list[float]) -> tuple[ScenarioValues, ScenarioValues]:
    """Split one row's printed values into (operational, embodied).

    Raises:
        ParseError: if no candidate split satisfies the invariants.
    """
    total = len(values)
    if not 2 <= total <= 6:
        raise ParseError(f"row has {total} values; expected 2-6")
    for n_op, n_emb in _SPLIT_PREFERENCE:
        if n_op + n_emb != total:
            continue
        op = _values_to_scenario(values[:n_op])
        emb = _values_to_scenario(values[n_op:])
        if op is not None and emb is not None:
            return op, emb
    raise ParseError(f"no valid split for values {values}")


def _parse_line(line: str) -> PaperSystem:
    parts = line.split("|")
    if len(parts) != 3:
        raise ParseError(f"malformed line (expected 3 fields): {line!r}")
    rank_text, name_text, values_text = parts
    try:
        rank = int(rank_text)
    except ValueError as exc:
        raise ParseError(f"bad rank in line: {line!r}") from exc
    name = name_text.strip() or None
    try:
        values = [float(tok) for tok in values_text.split()]
    except ValueError as exc:
        raise ParseError(f"bad value in line: {line!r}") from exc
    operational, embodied = parse_row_values(values)
    return PaperSystem(rank=rank, name=name,
                       operational=operational, embodied=embodied)


def _table_text() -> str:
    for path in (TRANSCRIPTION_PATH, STANDIN_PATH):
        try:
            return path.read_text(encoding="utf-8")
        except FileNotFoundError:
            continue
    raise ParseError(
        f"no Table II data in {STANDIN_PATH.parent}: neither "
        f"{TRANSCRIPTION_PATH.name} nor {STANDIN_PATH.name} exists; "
        f"regenerate the stand-in with `python -m repro.data.snapshot`")


@functools.cache
def load_paper_table() -> tuple[PaperSystem, ...]:
    """Load and parse the embedded Table II (cached; 500 rows).

    Reads ``table2_raw.txt`` if a transcription is present, otherwise
    the committed stand-in ``table2_standin.txt`` — same format, same
    printed aggregates and named anchors (see the module docstring).

    Raises:
        ParseError: on malformed data, duplicate or missing ranks, or
            when neither file is present.
    """
    systems: list[PaperSystem] = []
    for line in _table_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        systems.append(_parse_line(line))
    ranks = [s.rank for s in systems]
    if ranks != list(range(1, 501)):
        raise ParseError(
            f"expected ranks 1..500 exactly once, got {len(ranks)} rows "
            f"(first problem near rank {next((i + 1 for i, r in enumerate(ranks) if r != i + 1), '?')})")
    return tuple(systems)


# ---------------------------------------------------------------------------
# Convenience accessors used by analysis code and benchmarks
# ---------------------------------------------------------------------------

def by_name(name: str) -> PaperSystem:
    """First system with the given name (several names repeat).

    Raises:
        KeyError: if no system has that name.
    """
    for system in load_paper_table():
        if system.name == name:
            return system
    raise KeyError(name)


def operational_series(scenario: str) -> list[tuple[int, float | None]]:
    """(rank, value) series for one scenario: 'top500'|'public'|'interpolated'."""
    return [(s.rank, getattr(s.operational, scenario)) for s in load_paper_table()]


def embodied_series(scenario: str) -> list[tuple[int, float | None]]:
    """(rank, value) series for one scenario: 'top500'|'public'|'interpolated'."""
    return [(s.rank, getattr(s.embodied, scenario)) for s in load_paper_table()]


def coverage_counts() -> dict[str, int]:
    """Covered-system counts per footprint and scenario."""
    table = load_paper_table()
    return {
        "operational_top500": sum(s.operational.top500 is not None for s in table),
        "operational_public": sum(s.operational.public is not None for s in table),
        "operational_interpolated": len(table),
        "embodied_top500": sum(s.embodied.top500 is not None for s in table),
        "embodied_public": sum(s.embodied.public is not None for s in table),
        "embodied_interpolated": len(table),
    }


def totals_mt() -> dict[str, float]:
    """Aggregate totals (MT CO2e) per footprint and scenario."""
    table = load_paper_table()
    def total(getter):
        return sum(v for s in table if (v := getter(s)) is not None)
    return {
        "operational_top500": total(lambda s: s.operational.top500),
        "operational_public": total(lambda s: s.operational.public),
        "operational_interpolated": total(lambda s: s.operational.interpolated),
        "embodied_top500": total(lambda s: s.embodied.top500),
        "embodied_public": total(lambda s: s.embodied.public),
        "embodied_interpolated": total(lambda s: s.embodied.interpolated),
    }
