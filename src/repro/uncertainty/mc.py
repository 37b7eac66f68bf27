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
The batched kernel therefore walks the stream **once**, to the longest
cell's length, and every cell reads its own prefix:

``totals[c] = clip(v_c + s_c · z[:m·k_c].reshape(m, k_c), 0).sum(1)``

which is bit-identical to the per-cell call whatever the batch shape —
a cell's band does not depend on which other cells ride along, on the
cell order, or on which thread computed it.  The stream is never
materialized whole: it is drawn in windows of about a megabyte, and
each cell evaluates the sample rows that lie wholly inside the current
window.  ``tests/uncertainty/test_mc_engine.py`` asserts all of this
against :func:`band_scalar_reference`, the frozen reference semantics.

Fan-out
-------

Cells are embarrassingly parallel (each regenerates its prefix from
the seed), so ``method="threads"`` runs contiguous cell blocks on a
``ThreadPoolExecutor``: each block walks its own stream and writes its
rows of one statistics array.  The kernel is numpy ufunc and RNG work
that releases the GIL, so no process, shared-memory segment or
supervisor is involved, and there is no worker that can die or hang.
``method="auto"`` fans out only when the draw volume repays the thread
start; ``"shm"``, the name of the retired process fan-out, is accepted
as a synonym of ``"threads"``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.uncertainty import (
    DEFAULT_MC_SAMPLES,
    DEFAULT_MC_SEED,
    UncertaintyBand,
)
from repro.deadline import check_deadline

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

#: ``method="auto"`` fans out to threads only past this many scalar
#: draws (cells × samples × mean covered count): below it, starting the
#: threads costs more than the arithmetic it would parallelize.
_FANOUT_MIN_DRAWS = 16_000_000

_METHODS = ("auto", "serial", "threads", "shm")
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


#: Bytes per stream window and per evaluation slab.  The seeded stream
#: is drawn one window of about this size at a time, and a cell's
#: ``(rows, k)`` slab of a window is evaluated in one scratch buffer of
#: at most this size, so the draw and the multiply/add/clip/sum passes
#: stay in a core's L2 (2 MiB per core on a 2-core x86 container)
#: instead of streaming a ~(1000, 5000) matrix through memory.  256 KiB
#: windows measured 15 % slower end to end (per-window, per-cell
#: overhead); 64 KiB slabs (single rows at 5,000 systems) lost to
#: per-call overhead.
_SLAB_BYTES = 1 << 20


#: Cells with fewer covered systems than this are evaluated column by
#: column.  numpy's pairwise sum adds fewer than 8 entries left to
#: right, so a row of ``k < 8`` draws sums to exactly what a running
#: sum over the ``k`` columns gives, and the ``(k, rows)`` layout spends
#: ``k`` long ufunc passes where the row layout spends ``rows`` inner
#: loops of length ``k`` (4,000 loops of 3 at a built-in fleet's
#: default band).  From 8 entries on numpy sums in blocks of eight
#: partial sums, so wider cells keep the row layout.
_COLUMN_MAX_K = 8


def _slab_rows(n_samples: int, k: int) -> int:
    """Sample rows per slab for a cell with ``k`` covered systems."""
    return max(1, min(n_samples, _SLAB_BYTES // (8 * k)))


def _window_len(n_samples: int, k_max: int) -> int:
    """Stream entries per window: about :data:`_SLAB_BYTES`, at least
    one row of the widest cell, at most the whole stream."""
    return min(n_samples * k_max, max(k_max, _SLAB_BYTES // 8))


def _cell_inputs(values_row: np.ndarray, unc_row: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """A cell's covered values and sigmas, built in place (``u·v`` is
    ``v·u`` bit for bit): ``k`` values and ``k`` sigmas, nothing more."""
    covered = ~np.isnan(values_row)
    v = values_row[covered]
    sigmas = unc_row[covered]
    np.multiply(sigmas, v, out=sigmas)
    np.divide(sigmas, _Z90, out=sigmas)
    return v, sigmas


def _cell_rows(v: np.ndarray, sigmas: np.ndarray, z: np.ndarray,
               rows: int, scratch: np.ndarray, out: np.ndarray) -> None:
    """Total draws of ``out.size`` consecutive sample rows, into ``out``.

    ``z`` holds exactly those rows' stream entries.  This is the
    compressed ``v + s·z`` / clip / row-sum sequence of the reference
    draw — the one place the bit-identity-critical float ops live
    (both :func:`sample_totals` and the band statistics reduce over
    exactly this).  The rows are evaluated ``rows`` at a time, each
    slab computed in place in ``scratch`` (the same multiply, add, clip
    and sum the reference makes, with no temporaries): every sample
    row is still computed and reduced whole, so each total is
    bit-identical to the one-shot ``(n_samples, k)`` evaluation.  A
    cell narrower than :data:`_COLUMN_MAX_K` lays its slab out as
    ``(k, rows)`` and sums down the columns, which adds each row's
    entries in the same left-to-right order numpy's row sum does.
    """
    k = v.size
    n = out.size
    columns = k < _COLUMN_MAX_K
    if columns:
        v = v[:, None]
        sigmas = sigmas[:, None]
    for a in range(0, n, rows):
        b = min(a + rows, n)
        zs = z[a * k:b * k].reshape(b - a, k)
        if columns:
            buf = scratch[:(b - a) * k].reshape(k, b - a)
            zs = zs.T
        else:
            buf = scratch[:(b - a) * k].reshape(b - a, k)
        np.multiply(sigmas, zs, out=buf)
        np.add(v, buf, out=buf)
        np.clip(buf, 0.0, None, out=buf)
        np.sum(buf, axis=0 if columns else 1, out=out[a:b])


def _walk_stream(values2d: np.ndarray, unc2d: np.ndarray, n_samples: int,
                 seed: int, counts: np.ndarray,
                 reduce: "Callable[[int, np.ndarray], None] | None" = None,
                 ) -> np.ndarray:
    """Every cell's total draws, from the seeded stream drawn in windows.

    The stream is ``default_rng(seed).standard_normal``, drawn window
    by window with ``out=``: chunked draws continue one generator, so
    the windows concatenate to exactly the one-shot stream.  A window
    holds stream entries ``[w0, w1)``; cell ``c`` evaluates the sample
    rows ``[a, b)`` whose entries ``[a·k_c, b·k_c)`` lie wholly inside
    it, and the entries of rows not yet complete (fewer than ``k_max``)
    carry over to the front of the next window.  A cell's inputs are
    built when it first has rows in a window and dropped when it
    completes.  The deadline scope is checked before every window.

    Without ``reduce`` the ``(C, n_samples)`` totals are returned.  With
    it, ``reduce(c, totals_row)`` runs as soon as cell ``c`` is
    complete; when the whole stream fits in one window every cell
    reuses one totals row, and only multi-window stacks hold
    ``(C, n_samples)`` totals (far less than the stream itself).
    """
    n_cells = values2d.shape[0]
    k_max = int(counts.max())
    n_stream = n_samples * k_max
    width = _window_len(n_samples, k_max)
    obs.inc("mc.draws", n_stream)
    reuse = reduce is not None and width == n_stream
    totals = np.empty((1 if reuse else n_cells, n_samples))
    window = np.empty(width)
    scratch = np.empty(width)
    rng = np.random.default_rng(seed)
    done = [0] * n_cells        # sample rows evaluated, per cell
    inputs: list = [None] * n_cells  # (v, sigmas) of a started cell
    w0 = w1 = 0                 # the window holds stream entries [w0, w1)
    while w1 < n_stream:
        check_deadline("mc-bands")
        held = w1 - w0
        w1 = min(w0 + width, n_stream)
        rng.standard_normal(out=window[held:w1 - w0])
        next_w0 = w1
        for c in range(n_cells):
            k = int(counts[c])
            a = done[c]
            b = min(n_samples, w1 // k)
            if b > a:
                if inputs[c] is None:
                    inputs[c] = _cell_inputs(values2d[c], unc2d[c])
                v, sigmas = inputs[c]
                row = totals[0 if reuse else c]
                _cell_rows(v, sigmas, window[a * k - w0:b * k - w0],
                           _slab_rows(n_samples, k), scratch, row[a:b])
                done[c] = b
                if b == n_samples:
                    inputs[c] = None
                    if reduce is not None:
                        reduce(c, row)
            if b < n_samples:
                next_w0 = min(next_w0, b * k)
        window[:w1 - next_w0] = window[next_w0 - w0:w1 - w0]
        w0 = next_w0
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
    totals = _walk_stream(values2d, unc2d, n_samples, seed,
                          _cell_counts(values2d))
    return totals.reshape(cell_shape + (n_samples,))


#: The band percentiles as fractions, exactly as :func:`np.percentile`
#: turns ``[5, 50, 95]`` into quantiles.
_BAND_QUANTILES = np.true_divide([5.0, 50.0, 95.0], 100)


def _linear_rule(n: int, quantiles: np.ndarray = _BAND_QUANTILES,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """numpy's ``linear`` percentile rule for ``n`` sorted samples.

    The virtual index ``(n-1)·q`` gives each quantile's lower and upper
    neighbour (both the last sample at or past ``n-1``) and its weight,
    in numpy's own float-op sequence; the last array says which side
    of numpy's two-sided interpolation each quantile takes.  It depends
    only on ``n``, so a block computes it once for all its cells.
    """
    virtual = (n - 1) * quantiles
    lower = np.floor(virtual)
    upper = lower + 1
    past_end = virtual >= n - 1
    lower[past_end] = -1
    upper[past_end] = -1
    gamma = virtual - lower
    return lower.astype(np.intp), upper.astype(np.intp), gamma, gamma >= 0.5


def _sorted_percentiles(ordered: np.ndarray, rule) -> np.ndarray:
    """``np.percentile`` of a sorted sample under a :func:`_linear_rule`.

    The same interpolation ``np.percentile`` makes after its partition
    (``a + (b-a)·t``, or ``b - (b-a)·(1-t)`` from ``t = 0.5`` on), so
    the result is bit-identical; a sample holding a NaN (sorted last)
    gives NaN everywhere, as numpy's does.
    """
    lower, upper, gamma, from_upper = rule
    a = ordered[lower]
    b = ordered[upper]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=from_upper)
    if np.isnan(ordered[-1]):
        out[:] = ordered[-1]
    return out


def _stats_for_block(values2d: np.ndarray, unc2d: np.ndarray,
                     n_samples: int, seed: int, counts: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """Band statistics for a block into ``out``: ``(C, 5)``
    mean/std/p5/p50/p95.

    ``mean`` and ``std`` reduce the draw-order totals, as the reference
    does; the totals are then sorted in place and the percentiles read
    with :func:`_sorted_percentiles`, which matches the reference's
    :func:`np.percentile` bit for bit without its per-call set-up.
    """
    rule = _linear_rule(n_samples)

    def reduce(c: int, totals: np.ndarray) -> None:
        out[c, 0] = totals.mean()
        out[c, 1] = totals.std()
        totals.sort()
        out[c, 2:] = _sorted_percentiles(totals, rule)

    with obs.span("mc.stats", n_cells=int(values2d.shape[0]),
                  n_samples=n_samples):
        _walk_stream(values2d, unc2d, n_samples, seed, counts, reduce)
    return out


# ---------------------------------------------------------------------------
# Thread fan-out
# ---------------------------------------------------------------------------

def _chunk_indices(n: int, n_chunks: int) -> list[tuple[int, int]]:
    """Half-open ``(start, stop)`` ranges covering ``range(n)`` in at most
    ``n_chunks`` contiguous, balanced blocks.

    Sizes differ by at most one (the first ``n % n_chunks`` blocks get
    the extra item), order is kept, and no block is empty: with
    ``n < n_chunks`` only ``n`` ranges return.

    Raises:
        ValueError: for negative ``n`` or non-positive ``n_chunks``.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n_chunks <= 0:
        raise ValueError(f"n_chunks must be positive, got {n_chunks}")
    n_chunks = min(n_chunks, n)
    if n_chunks == 0:
        return []
    base, extra = divmod(n, n_chunks)
    ranges = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def _stats_threads(values2d: np.ndarray, unc2d: np.ndarray, n_samples: int,
                   seed: int, counts: np.ndarray,
                   max_workers: int | None) -> np.ndarray:
    """The ``method="threads"`` path: one thread per contiguous cell block.

    Each block walks its own seeded stream and writes its slice of one
    ``(C, 5)`` statistics array.  The window kernel is numpy ufunc and
    RNG work that releases the GIL, so blocks on separate cores run
    concurrently.  Every block runs in its own copy of the caller's
    context, so the open ``mc.band_stack`` span and a serve deadline
    scope reach the pool threads.  A block's exception propagates
    unchanged.
    """
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    stats = np.empty((values2d.shape[0], 5))
    blocks = _chunk_indices(values2d.shape[0],
                            max_workers or os.cpu_count() or 1)
    obs.inc("fanout.blocks_dispatched", len(blocks))
    with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
        futures = [pool.submit(contextvars.copy_context().run,
                               _stats_for_block, values2d[c0:c1],
                               unc2d[c0:c1], n_samples, seed,
                               counts[c0:c1], stats[c0:c1])
                   for c0, c1 in blocks]
        for future in futures:
            future.result()
    return stats


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
    scenarios (or scenario × year cells): one stream walk, every band.

    Args:
        values: carbon values, shape ``(..., n)``; ``nan`` = uncovered.
        unc: relative uncertainties, same shape.
        n_samples: draws per cell.
        seed: stream seed (``DEFAULT_MC_SEED`` reproduces every
            published band).
        method: ``"serial"`` computes in the calling thread;
            ``"threads"`` fans contiguous cell blocks over a thread
            pool (``"shm"`` is a synonym); ``"auto"`` picks
            ``"threads"`` only for stacks whose draw volume repays the
            thread start.
        max_workers: thread count for the fan-out (default: the CPU
            count).

    Returns:
        A :class:`BandStack` with the stack's cell shape.  Every cell
        is bit-identical to the per-fleet reference draw with the same
        seed, whatever the batch shape or method.

    Raises:
        ValueError: on shape mismatch, non-positive samples, an
            unknown method, or a cell with no covered system.
        repro.errors.DeadlineExceededError: when an enclosing
            :func:`~repro.deadline.deadline_scope` runs out
            (checked before every stream window, on every method).
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; "
                         f"expected one of {_METHODS}")
    values2d, unc2d, cell_shape = _validate_stack(values, unc, n_samples)
    counts = _cell_counts(values2d)

    with obs.span("mc.band_stack", n_cells=int(values2d.shape[0]),
                  n_samples=n_samples, method=method):
        if method in ("threads", "shm") or (
                method == "auto"
                and float(counts.sum()) * n_samples >= _FANOUT_MIN_DRAWS):
            stats = _stats_threads(values2d, unc2d, n_samples, seed,
                                   counts, max_workers)
        else:
            stats = _stats_for_block(values2d, unc2d, n_samples, seed,
                                     counts, np.empty((counts.size, 5)))

    return BandStack(
        mean_mt=stats[:, 0].reshape(cell_shape),
        std_mt=stats[:, 1].reshape(cell_shape),
        p5_mt=stats[:, 2].reshape(cell_shape),
        p50_mt=stats[:, 3].reshape(cell_shape),
        p95_mt=stats[:, 4].reshape(cell_shape),
        n_estimates=counts.reshape(cell_shape),
        n_samples=n_samples, seed=seed)
