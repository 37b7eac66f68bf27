"""Batched Monte-Carlo band engine: one draw kernel for a whole cube.

After the deterministic paths were batched (the 2-D scenario sweep,
the factorized projection cube), the uncertainty bands were the last
per-scenario Python loop left: ``ScenarioCube.bands()`` and the
projection band tables called
:func:`~repro.core.uncertainty.total_with_uncertainty_arrays` once per
``(scenario[, year])`` cell, building a fresh
``np.random.default_rng`` and drawing ``n_samples × n`` normals each
time.  This module samples the entire stack in one shot.

The seed-stream contract
------------------------

Every per-cell reference call uses the *same* seed, so every cell
consumes a prefix of the *same* standard-normal stream:
``default_rng(seed).normal(loc=v, scale=s, size=(m, k))`` draws one
ziggurat standard normal per output element in C order and computes
``loc + scale·z`` elementwise — exactly ``v + s * z`` where ``z`` is
the first ``m·k`` values of ``default_rng(seed).standard_normal``.
The batched kernel therefore draws the stream **once**, to the longest
cell's length, and every cell slices its own prefix:

``totals[c] = clip(v_c + s_c · z[:m·k_c].reshape(m, k_c), 0).sum(1)``

which is bit-identical to the per-cell call whatever the batch shape —
a cell's band does not depend on which other cells ride along, on the
cell order, or on whether a worker process or the parent computed it.
``tests/uncertainty/test_mc_engine.py`` asserts all of this against
:func:`band_scalar_reference`, the frozen reference semantics.

Fan-out
-------

Cells are embarrassingly parallel (each regenerates its prefix from
the seed), so ``method="shm"`` ships contiguous cell blocks over the
persistent :mod:`repro.parallel.pool`: the value/uncertainty stack
crosses the process boundary as one shared-memory segment, workers
write their band statistics into a shared output segment, and both
segments are unlinked in ``finally`` — a crashing worker leaks
nothing.  Dispatch goes through
:func:`repro.parallel.resilience.supervised_map`, so a crashed or
hung worker costs one pool rebuild and a retry of the lost cell
blocks, and repeated shm-path failures latch the degradation ladder
down to the serial kernel — every path bit-identical (see
``docs/robustness.md``).  ``method="auto"`` engages the pool only
when the draw volume is worth a dispatch; every unavailability
(``REPRO_DISABLE_SHM``, ``REPRO_DISABLE_PROCESS_POOL``, single-core
hosts) degrades to the serial kernel with identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.uncertainty import (
    DEFAULT_MC_SAMPLES,
    DEFAULT_MC_SEED,
    UncertaintyBand,
)

__all__ = [
    "BandStack",
    "band_scalar_reference",
    "mc_band_stack",
    "sample_totals",
]

#: ``band ≈ 90 % normal interval``: the relative band half-width maps
#: to a normal σ through the 90 % two-sided z-score (shared with the
#: scalar reference — one constant, one float-op sequence).
_Z90 = 1.645

#: ``method="auto"`` takes the pool only past this many scalar draws
#: (cells × samples × mean covered count): below it, dispatch overhead
#: beats the arithmetic it would parallelize.  ``REPRO_MC_SHM_MIN_DRAWS``
#: overrides per host.
_SHM_MIN_DRAWS = 16_000_000

#: Environment override for :data:`_SHM_MIN_DRAWS`.
SHM_MIN_DRAWS_ENV = "REPRO_MC_SHM_MIN_DRAWS"


def _shm_min_draws() -> float:
    from repro.envflags import env_float

    return env_float(SHM_MIN_DRAWS_ENV, _SHM_MIN_DRAWS, minimum=0.0)

_METHODS = ("auto", "serial", "shm")
_KINDS = ("quantile", "normal")


# ---------------------------------------------------------------------------
# The frozen reference semantics (one cell, one RNG, one draw)
# ---------------------------------------------------------------------------

def band_scalar_reference(values_mt, uncertainty_fracs,
                          n_samples: int = DEFAULT_MC_SAMPLES,
                          seed: int = DEFAULT_MC_SEED) -> UncertaintyBand:
    """The per-fleet reference draw, frozen.

    This is the original
    :func:`~repro.core.uncertainty.total_with_uncertainty_arrays` body
    — fresh ``default_rng(seed)``, one ``(n_samples, n)`` normal draw,
    clip at zero, sum, percentiles — kept as the oracle the batched
    kernel must match bit-for-bit (the same role
    :func:`~repro.scenarios.sweep_scalar_reference` plays for the 2-D
    sweep).  Callers should use the engine; tests and benchmarks use
    this.
    """
    values, fracs = _validate_cell(values_mt, uncertainty_fracs, n_samples)
    sigmas = values * fracs / _Z90
    rng = np.random.default_rng(seed)
    draws = rng.normal(loc=values, scale=sigmas,
                       size=(n_samples, values.size))
    np.clip(draws, 0.0, None, out=draws)
    totals = draws.sum(axis=1)
    return _band_from_totals(totals, int(values.size), n_samples)


def _validate_cell(values_mt, uncertainty_fracs,
                   n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    values = np.asarray(values_mt, dtype=np.float64)
    fracs = np.asarray(uncertainty_fracs, dtype=np.float64)
    if values.shape != fracs.shape:
        raise ValueError(f"shape mismatch: values {values.shape} "
                         f"vs uncertainties {fracs.shape}")
    covered = ~np.isnan(values)
    values = values[covered]
    fracs = fracs[covered]
    if values.size == 0:
        raise ValueError("need at least one estimate")
    return values, fracs


def _band_from_totals(totals: np.ndarray, n_estimates: int,
                      n_samples: int) -> UncertaintyBand:
    p5, p50, p95 = np.percentile(totals, [5.0, 50.0, 95.0])
    return UncertaintyBand(
        mean_mt=float(totals.mean()),
        p5_mt=float(p5), p50_mt=float(p50), p95_mt=float(p95),
        n_samples=n_samples, n_estimates=n_estimates,
        std_mt=float(totals.std()),
    )


# ---------------------------------------------------------------------------
# The batched kernel
# ---------------------------------------------------------------------------

def _validate_stack(values, unc, n_samples: int,
                    ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Normalize a ``(..., n)`` stack to ``(n_cells, n)`` + cell shape."""
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    values = np.asarray(values, dtype=np.float64)
    unc = np.asarray(unc, dtype=np.float64)
    if values.shape != unc.shape:
        raise ValueError(f"shape mismatch: values {values.shape} "
                         f"vs uncertainties {unc.shape}")
    if values.ndim == 0:
        raise ValueError("values must have at least one axis (estimates)")
    cell_shape = values.shape[:-1]
    values2d = np.ascontiguousarray(values.reshape(-1, values.shape[-1]))
    unc2d = np.ascontiguousarray(unc.reshape(values2d.shape))
    return values2d, unc2d, cell_shape


def _cell_counts(values2d: np.ndarray) -> np.ndarray:
    counts = (~np.isnan(values2d)).sum(axis=1)
    if bool((counts == 0).any()):
        empty = np.flatnonzero(counts == 0)
        raise ValueError(
            f"need at least one estimate per cell; cells {empty.tolist()} "
            "have no covered system (same contract as the per-fleet call)")
    return counts


def _draw_stream(n_samples: int, k_max: int, seed: int) -> np.ndarray:
    """The shared standard-normal stream, to the longest cell's length.

    Drawn flat: ``standard_normal`` fills in C order element by
    element, so ``z[:m·k].reshape(m, k)`` is exactly the draw a
    ``(m, k)``-shaped call on a fresh generator would produce — the
    prefix property every cell's bit-identity rests on.
    """
    obs.inc("mc.draws", n_samples * k_max)
    with obs.span("mc.draw", n_samples=n_samples, k_max=k_max):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(n_samples * k_max)


#: Bytes per evaluation slab.  A cell's ``(rows, k)`` slab of the
#: stream is evaluated in one scratch buffer of at most this size, so
#: the multiply/add/clip/sum passes stay in a core's L2 (2 MiB per core
#: on a 2-core x86 container) instead of streaming a ~(1000, 5000)
#: matrix through memory four times.  256 KiB measured within 10 % of
#: this; 64 KiB (single-row slabs at 5,000 systems) lost to per-call
#: overhead.
_SLAB_BYTES = 1 << 20


def _slab_rows(n_samples: int, k: int) -> int:
    """Sample rows per slab for a cell with ``k`` covered systems."""
    return max(1, min(n_samples, _SLAB_BYTES // (8 * k)))


def _stream_and_scratch(values2d: np.ndarray, n_samples: int, seed: int,
                        counts: np.ndarray | None,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """A block's stream and the one scratch buffer its cells reuse.

    A cell with ``k ≤ k_max`` covered systems fills ``rows·k`` scratch
    slots: at most ``_SLAB_BYTES // 8`` (and its whole ``n_samples·k``
    draw), or one ``k``-wide row when a row alone outgrows the slab.
    """
    if counts is None:
        counts = _cell_counts(values2d)
    k_max = int(counts.max())
    scratch = np.empty(max(k_max, min(n_samples * k_max,
                                      _SLAB_BYTES // 8)))
    return _draw_stream(n_samples, k_max, seed), scratch


def _cell_totals(values_row: np.ndarray, unc_row: np.ndarray,
                 z: np.ndarray, n_samples: int, scratch: np.ndarray,
                 out: np.ndarray) -> None:
    """One cell's total draws from its stream prefix, into ``out``.

    The compressed ``v + s·z`` / clip / row-sum sequence of the
    reference draw — the one place the bit-identity-critical float ops
    live (both :func:`sample_totals` and the band statistics reduce
    over exactly this).  Evaluation walks the sample axis in slabs of
    at most :data:`_SLAB_BYTES`, each computed in place in ``scratch``
    (the same multiply, add, clip and row sum the reference makes,
    with no temporaries): every sample row is still computed and
    reduced whole, so each totals entry is bit-identical to the
    one-shot ``(n_samples, k)`` evaluation.  The per-cell inputs are
    built in place too (``u·v`` is ``v·u`` bit for bit), so a cell
    allocates only its ``k`` values and sigmas.
    """
    covered = ~np.isnan(values_row)
    v = values_row[covered]
    sigmas = unc_row[covered]
    np.multiply(sigmas, v, out=sigmas)
    np.divide(sigmas, _Z90, out=sigmas)
    k = v.size
    rows = _slab_rows(n_samples, k)
    for a in range(0, n_samples, rows):
        b = min(a + rows, n_samples)
        buf = scratch[:(b - a) * k].reshape(b - a, k)
        np.multiply(sigmas, z[a * k:b * k].reshape(b - a, k), out=buf)
        np.add(v, buf, out=buf)
        np.clip(buf, 0.0, None, out=buf)
        np.sum(buf, axis=1, out=out[a:b])


def _block_totals(values2d: np.ndarray, unc2d: np.ndarray,
                  n_samples: int, seed: int,
                  counts: np.ndarray | None = None) -> np.ndarray:
    """MC total draws for every cell of a ``(C, n)`` stack → ``(C, m)``.

    One stream draw for the whole block; per cell, the reference
    sequence of :func:`_cell_totals`, written straight into its row.
    """
    z, scratch = _stream_and_scratch(values2d, n_samples, seed, counts)
    totals = np.empty((values2d.shape[0], n_samples))
    for c in range(values2d.shape[0]):
        _cell_totals(values2d[c], unc2d[c], z, n_samples, scratch,
                     totals[c])
    return totals


def sample_totals(values, unc, n_samples: int = DEFAULT_MC_SAMPLES,
                  seed: int = DEFAULT_MC_SEED) -> np.ndarray:
    """Monte-Carlo fleet-total draws for a whole stack of fleets.

    The draw kernel underneath :func:`mc_band_stack`, exposed for
    statistical tests and custom reductions.

    Args:
        values: carbon values, shape ``(..., n)`` — any leading axes
            (``(S, n)`` scenario cubes, ``(S, Y, n)`` projection
            cubes); ``nan`` marks uncovered systems.
        unc: relative uncertainties, same shape (``nan`` where
            uncovered).
        n_samples: draws per cell.
        seed: the stream seed every cell's prefix is taken from.

    Returns:
        Total draws, shape ``(..., n_samples)``.  ``out[c]`` is
        bit-identical to the totals the per-fleet reference draw
        produces for cell ``c`` alone.

    Raises:
        ValueError: on shape mismatch, non-positive samples, or a cell
            with no covered system.
    """
    values2d, unc2d, cell_shape = _validate_stack(values, unc, n_samples)
    totals = _block_totals(values2d, unc2d, n_samples, seed)
    return totals.reshape(cell_shape + (n_samples,))


def _stats_for_block(values2d: np.ndarray, unc2d: np.ndarray,
                     n_samples: int, seed: int,
                     out: np.ndarray | None = None,
                     counts: np.ndarray | None = None) -> np.ndarray:
    """Band statistics for a block: ``(C, 5)`` mean/std/p5/p50/p95.

    Reduces cell by cell into one reused ``n_samples`` totals buffer —
    the same :func:`np.percentile` / ``mean`` / ``std`` calls the
    reference makes over the same :func:`_cell_totals` draws, so the
    statistics are bit-identical too.  Cell-outer order keeps only one
    cell's totals alive: a slab-outer loop would hold ``(C, n_samples)``
    of them, which a daemon answering band requests pays in RSS.
    """
    z, scratch = _stream_and_scratch(values2d, n_samples, seed, counts)
    totals = np.empty(n_samples)
    stats = out if out is not None else np.empty((values2d.shape[0], 5))
    with obs.span("mc.stats", n_cells=int(values2d.shape[0]),
                  n_samples=n_samples):
        for c in range(values2d.shape[0]):
            _cell_totals(values2d[c], unc2d[c], z, n_samples, scratch,
                         totals)
            p5, p50, p95 = np.percentile(totals, [5.0, 50.0, 95.0])
            stats[c, 0] = totals.mean()
            stats[c, 1] = totals.std()
            stats[c, 2] = p5
            stats[c, 3] = p50
            stats[c, 4] = p95
    return stats


# ---------------------------------------------------------------------------
# Shared-memory fan-out
# ---------------------------------------------------------------------------

def _band_block_worker(task: tuple) -> None:
    """Pool-worker body: band statistics for one contiguous cell block.

    Attaches the shared value/uncertainty stack zero-copy, regenerates
    its cells' stream prefixes from the (shipped) seed, and writes its
    statistics rows straight into the shared output segment.  Block
    boundaries cannot change a bit of output: every cell's prefix
    depends only on the seed and the cell's own covered count.
    """
    in_handle, out_handle, c0, c1, n_samples, seed = task
    from repro.parallel import shm as shm_mod

    arrays = shm_mod.attach(in_handle)
    out = shm_mod.attach(out_handle)
    _stats_for_block(np.array(arrays["values"][c0:c1]),
                     np.array(arrays["unc"][c0:c1]),
                     n_samples, seed, out=out["stats"][c0:c1])


def _stats_shm(values2d: np.ndarray, unc2d: np.ndarray, n_samples: int,
               seed: int, max_workers: int | None) -> np.ndarray | None:
    """The ``method="shm"`` path; ``None`` = take the serial kernel."""
    import os

    from repro.parallel import pool as pool_mod
    from repro.parallel import shm as shm_mod
    from repro.parallel.chunking import chunk_indices

    n_cells = values2d.shape[0]
    if n_cells < 2 or not shm_mod.shm_available() \
            or not pool_mod.pool_available(max_workers):
        return None
    workers = max_workers or os.cpu_count() or 1
    in_pack = shm_mod.SharedArrayPack.create(
        {"values": values2d, "unc": unc2d}, readonly=True)
    try:
        out_pack = shm_mod.SharedArrayPack.create(
            {"stats": np.empty((n_cells, 5))})
        try:
            tasks = [(in_pack.handle, out_pack.handle, c0, c1,
                      n_samples, seed)
                     for c0, c1 in chunk_indices(n_cells, workers)]
            from repro.parallel import resilience
            resilience.supervised_map(_band_block_worker, tasks,
                                      max_workers=max_workers,
                                      label="mc-bands")
            return np.array(out_pack.arrays()["stats"])
        finally:
            out_pack.unlink()
    finally:
        in_pack.unlink()


# ---------------------------------------------------------------------------
# The labeled result
# ---------------------------------------------------------------------------

_STACK_ARRAY_FIELDS = ("mean_mt", "std_mt", "p5_mt", "p50_mt", "p95_mt",
                       "n_estimates")


@dataclass(frozen=True, eq=False)
class BandStack:
    """Band statistics for every cell of a sampled stack.

    All arrays share the stack's *cell* shape — ``(S,)`` for a
    scenario cube's bands, ``(S, Y)`` for a whole projection cube.
    :meth:`band` views one cell as the familiar
    :class:`~repro.core.uncertainty.UncertaintyBand`, either as the
    sampled quantile band (bit-identical to the per-fleet reference
    call) or as the normal-approximation ``mean ± 1.645·σ`` band.
    Equality is element-wise over every statistic (the natural way to
    assert the whatever-the-method bit-identity contract); stacks are
    unhashable.
    """

    mean_mt: np.ndarray
    std_mt: np.ndarray
    p5_mt: np.ndarray
    p50_mt: np.ndarray
    p95_mt: np.ndarray
    n_estimates: np.ndarray
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        shape = self.mean_mt.shape
        for field_name in _STACK_ARRAY_FIELDS[1:]:
            arr = getattr(self, field_name)
            if arr.shape != shape:
                raise ValueError(f"{field_name} shape {arr.shape} != {shape}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, BandStack):
            return NotImplemented
        return (self.n_samples == other.n_samples
                and self.seed == other.seed
                and all(np.array_equal(getattr(self, f), getattr(other, f))
                        for f in _STACK_ARRAY_FIELDS))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mean_mt.shape

    def band(self, *idx, kind: str = "quantile") -> UncertaintyBand:
        """One cell's band.

        Args:
            idx: cell index along the stack's leading axes (none for a
                single-fleet stack).
            kind: ``"quantile"`` reports the sampled p5/p50/p95 (the
                reference semantics); ``"normal"`` reports the
                normal-approximation band ``mean ± 1.645·σ`` around the
                mean (floored at zero — carbon cannot go negative),
                which is what a correlated-error reading of the same σ
                would quantify.
        """
        if kind not in _KINDS:
            raise ValueError(f"unknown band kind {kind!r}; "
                             f"expected one of {_KINDS}")
        mean = float(self.mean_mt[idx])
        std = float(self.std_mt[idx])
        if kind == "normal":
            p5 = max(mean - _Z90 * std, 0.0)
            p50, p95 = mean, mean + _Z90 * std
        else:
            p5 = float(self.p5_mt[idx])
            p50 = float(self.p50_mt[idx])
            p95 = float(self.p95_mt[idx])
        return UncertaintyBand(
            mean_mt=mean, p5_mt=p5, p50_mt=p50, p95_mt=p95,
            n_samples=self.n_samples,
            n_estimates=int(self.n_estimates[idx]), std_mt=std)


def mc_band_stack(values, unc, *, n_samples: int = DEFAULT_MC_SAMPLES,
                  seed: int = DEFAULT_MC_SEED, method: str = "auto",
                  max_workers: int | None = None) -> BandStack:
    """Monte-Carlo bands for every cell of a value/uncertainty stack.

    The batched replacement for looping
    :func:`~repro.core.uncertainty.total_with_uncertainty_arrays` over
    scenarios (or scenario × year cells): one stream draw, every band.

    Args:
        values: carbon values, shape ``(..., n)``; ``nan`` = uncovered.
        unc: relative uncertainties, same shape.
        n_samples: draws per cell.
        seed: stream seed (``DEFAULT_MC_SEED`` reproduces every
            published band).
        method: ``"serial"`` computes in-process; ``"shm"`` fans cell
            blocks over the shared-memory pool (identical output,
            serial fallback when the substrate is unavailable);
            ``"auto"`` picks ``"shm"`` only for stacks whose draw
            volume repays the dispatch.
        max_workers: worker count for the pool path.

    Returns:
        A :class:`BandStack` with the stack's cell shape.  Every cell
        is bit-identical to the per-fleet reference draw with the same
        seed, whatever the batch shape or method.

    Raises:
        ValueError: on shape mismatch, non-positive samples, an
            unknown method, or a cell with no covered system.

    Worker crashes and hangs are handled by the supervised dispatcher
    (retry lost blocks, rebuild the pool, degrade to the serial kernel
    after repeated failures) — they do not escape this call, and no
    shared-memory segment is leaked.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; "
                         f"expected one of {_METHODS}")
    values2d, unc2d, cell_shape = _validate_stack(values, unc, n_samples)
    counts = _cell_counts(values2d)

    with obs.span("mc.band_stack", n_cells=int(values2d.shape[0]),
                  n_samples=n_samples, method=method):
        if method == "shm" or (
                method == "auto"
                and float(counts.sum()) * n_samples >= _shm_min_draws()):
            from repro.parallel import resilience
            stats = resilience.run_ladder(
                (("shm", lambda: _stats_shm(values2d, unc2d, n_samples,
                                            seed, max_workers)),
                 ("serial", lambda: _stats_for_block(values2d, unc2d,
                                                     n_samples, seed,
                                                     counts=counts))),
                label="mc-bands")
        else:
            stats = _stats_for_block(values2d, unc2d, n_samples, seed,
                                     counts=counts)

    return BandStack(
        mean_mt=stats[:, 0].reshape(cell_shape),
        std_mt=stats[:, 1].reshape(cell_shape),
        p5_mt=stats[:, 2].reshape(cell_shape),
        p50_mt=stats[:, 3].reshape(cell_shape),
        p95_mt=stats[:, 4].reshape(cell_shape),
        n_estimates=counts.reshape(cell_shape),
        n_samples=n_samples, seed=seed)
