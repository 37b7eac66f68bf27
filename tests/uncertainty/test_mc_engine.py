"""Statistical property suite for the batched Monte-Carlo band engine.

Three layers of guarantees, in decreasing strictness:

* **Bit-identity** — every cell of a batched stack must equal the
  frozen per-fleet reference draw (an independent in-test copy of the
  pre-engine ``total_with_uncertainty_arrays`` body) bit for bit,
  whatever the batch shape, cell order, method, or thread.
  This is the seed-stream contract of ``docs/uncertainty.md``.
* **Cross-thread determinism** — the thread fan-out and the serial
  kernel must agree exactly, whatever the window and slab sizes.
* **Distributional sanity** — the sampled bands must behave like the
  statistics they claim to be: fleet-total halfwidths shrink ~1/√n
  with fleet size, percentile estimates stabilize ~1/√n_samples, and
  the quantile band brackets the mean and tracks the normal
  approximation on large fleets.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.uncertainty import (
    DEFAULT_MC_SAMPLES,
    DEFAULT_MC_SEED,
    fleet_bands,
    total_with_uncertainty_arrays,
)
from repro.uncertainty import mc
from repro.uncertainty.mc import (
    BandStack,
    band_scalar_reference,
    mc_band_stack,
    sample_totals,
)

WORKERS = 2


# ---------------------------------------------------------------------------
# The independent oracle: the pre-engine per-fleet draw, frozen in-test
# ---------------------------------------------------------------------------

def legacy_totals(values, fracs, n_samples, seed):
    """The original ``total_with_uncertainty_arrays`` draw, verbatim."""
    values = np.asarray(values, dtype=np.float64)
    fracs = np.asarray(fracs, dtype=np.float64)
    covered = ~np.isnan(values)
    values = values[covered]
    fracs = fracs[covered]
    sigmas = values * fracs / 1.645
    rng = np.random.default_rng(seed)
    draws = rng.normal(loc=values, scale=sigmas,
                       size=(n_samples, values.size))
    np.clip(draws, 0.0, None, out=draws)
    return draws.sum(axis=1)


def legacy_stats(values, fracs, n_samples, seed):
    totals = legacy_totals(values, fracs, n_samples, seed)
    p5, p50, p95 = np.percentile(totals, [5.0, 50.0, 95.0])
    return (float(totals.mean()), float(p5), float(p50), float(p95))


def random_stack(seed, n_cells, n, nan_frac=0.2):
    """A randomized (values, unc) stack with per-cell coverage holes."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.1, 5000.0, (n_cells, n))
    unc = rng.uniform(0.01, 1.5, (n_cells, n))
    mask = rng.random((n_cells, n)) < nan_frac
    # Keep at least one covered entry per cell.
    mask[:, rng.integers(0, n)] = False
    values[mask] = np.nan
    unc[mask] = np.nan
    return values, unc


# ---------------------------------------------------------------------------
# Bit-identity: batched == per-cell reference, any batch shape
# ---------------------------------------------------------------------------

class TestBitIdentity:
    @given(seed=st.integers(0, 2**32 - 1),
           n_cells=st.integers(1, 7),
           n=st.integers(1, 40),
           n_samples=st.integers(1, 300),
           stream_seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_every_cell_matches_reference_loop(self, seed, n_cells, n,
                                               n_samples, stream_seed):
        values, unc = random_stack(seed, n_cells, n)
        stack = mc_band_stack(values, unc, n_samples=n_samples,
                              seed=stream_seed, method="serial")
        totals = sample_totals(values, unc, n_samples=n_samples,
                               seed=stream_seed)
        for c in range(n_cells):
            ref = legacy_totals(values[c], unc[c], n_samples, stream_seed)
            assert np.array_equal(totals[c], ref)
            mean, p5, p50, p95 = legacy_stats(values[c], unc[c],
                                              n_samples, stream_seed)
            band = stack.band(c)
            assert (band.mean_mt, band.p5_mt, band.p50_mt, band.p95_mt) \
                == (mean, p5, p50, p95)

    def test_band_independent_of_batch_shape_and_companions(self):
        """A cell's band must not depend on which cells ride along."""
        values, unc = random_stack(11, 6, 50)
        alone = mc_band_stack(values[2:3], unc[2:3], n_samples=400)
        together = mc_band_stack(values, unc, n_samples=400)
        shuffled = mc_band_stack(values[::-1].copy(), unc[::-1].copy(),
                                 n_samples=400)
        assert together.band(2) == alone.band(0)
        assert shuffled.band(3) == together.band(2)

    def test_3d_stack_matches_2d_rows(self):
        values, unc = random_stack(7, 12, 30)
        v3 = values.reshape(3, 4, 30)
        u3 = unc.reshape(3, 4, 30)
        flat = mc_band_stack(values, unc, n_samples=250)
        cube = mc_band_stack(v3, u3, n_samples=250)
        assert cube.shape == (3, 4)
        for c in range(12):
            assert cube.band(c // 4, c % 4) == flat.band(c)

    def test_wrappers_delegate_to_the_same_draw(self):
        """The public per-fleet entry points are thin engine wrappers."""
        values, unc = random_stack(23, 1, 80)
        band = total_with_uncertainty_arrays(values[0], unc[0],
                                             n_samples=600, seed=9)
        assert band == band_scalar_reference(values[0], unc[0],
                                             n_samples=600, seed=9)
        mean, p5, p50, p95 = legacy_stats(values[0], unc[0], 600, 9)
        assert (band.mean_mt, band.p5_mt, band.p50_mt, band.p95_mt) \
            == (mean, p5, p50, p95)

    def test_fleet_bands_two_cell_stack_matches_per_call(self, study):
        op_band, emb_band = fleet_bands(list(study.public_records),
                                        n_samples=500)
        from repro.core import vectorized as vz
        frame = vz.fleet_frame(list(study.public_records))
        op = vz.operational_batch(frame, None)
        emb = vz.embodied_batch(frame, None)
        assert op_band == total_with_uncertainty_arrays(
            op.values_mt, op.uncertainty_frac, n_samples=500)
        assert emb_band == total_with_uncertainty_arrays(
            emb.values_mt, emb.uncertainty_frac, n_samples=500)


class TestCubeBitIdentity:
    """The rewired cube reductions against the per-scenario loop."""

    @pytest.fixture(scope="class")
    def cube(self, study):
        from repro import scenarios
        grid = scenarios.ScenarioGrid.cartesian(
            scenarios.aci_scale_axis((1.0, 0.8)),
            scenarios.pue_axis((1.0, 1.2)),
        )
        return study.scenario_sweep(grid)

    def test_scenario_bands_match_per_scenario_loop(self, cube):
        bands = cube.bands("operational", n_samples=400)
        for s, spec in enumerate(cube.specs):
            mean, p5, p50, p95 = legacy_stats(
                cube.operational_mt[s], cube.operational_unc[s],
                400, DEFAULT_MC_SEED)
            band = bands[spec.name]
            assert (band.mean_mt, band.p5_mt, band.p50_mt, band.p95_mt) \
                == (mean, p5, p50, p95)
            assert band == cube.band(s, "operational", n_samples=400)

    def test_64_scenario_acceptance_grid(self, study):
        """The acceptance grid: all 64 bands from one kernel equal the
        per-scenario reference loop bit-for-bit."""
        from repro import scenarios
        grid = scenarios.ScenarioGrid.cartesian(
            scenarios.aci_scale_axis((1.0, 0.9, 0.8, 0.7)),
            scenarios.pue_axis((1.0, 1.1, 1.2, 1.3)),
            scenarios.utilization_axis((0.5, 0.65, 0.8, 0.95)),
        )
        cube = study.scenario_sweep(grid)
        assert cube.n_scenarios == 64
        bands = cube.bands("operational", n_samples=200)
        for s, spec in enumerate(cube.specs):
            mean, p5, p50, p95 = legacy_stats(
                cube.operational_mt[s], cube.operational_unc[s],
                200, DEFAULT_MC_SEED)
            band = bands[spec.name]
            assert (band.mean_mt, band.p5_mt, band.p50_mt, band.p95_mt) \
                == (mean, p5, p50, p95)

    #: sha256 of the doe-like acceptance-grid operational and embodied
    #: band stacks (default samples and seed), recorded before the
    #: narrow-cell column layout and the sort-based percentiles.
    DOE_LIKE_GOLDEN = {
        "operational":
            "e2a15911a3435d8bd116b80f6447035cb755119dadf9c205d09b833760a63d9d",
        "embodied":
            "56aa3689616899b791541565a8d47da4bfe2c4f042db939a2623b2cd99f600ef",
    }

    @pytest.mark.parametrize("footprint", sorted(DOE_LIKE_GOLDEN))
    def test_doe_like_acceptance_grid_golden_digest(self, footprint):
        """The stack ``/v1/bands`` draws for a built-in fleet (three
        covered systems per cell), pinned to the byte."""
        import hashlib

        from repro import scenarios
        from repro.fleets import BUILTIN_FLEETS
        from repro.serve.batcher import ACCEPTANCE_GRID_AXES as axes

        grid = scenarios.ScenarioGrid.cartesian(
            scenarios.aci_scale_axis(axes["aci_scale"]),
            scenarios.pue_axis(axes["pue"]),
            scenarios.utilization_axis(axes["utilization"]))
        cube = scenarios.sweep(list(BUILTIN_FLEETS["doe-like"].systems),
                               grid.specs())
        stack = mc_band_stack(cube.values(footprint),
                              cube.uncertainty(footprint), method="serial")
        assert stack.shape == (64,) and set(stack.n_estimates) == {3}
        digest = hashlib.sha256()
        for name in ("mean_mt", "std_mt", "p5_mt", "p50_mt", "p95_mt"):
            digest.update(getattr(stack, name).astype("<f8").tobytes())
        digest.update(stack.n_estimates.astype("<i8").tobytes())
        assert digest.hexdigest() == self.DOE_LIKE_GOLDEN[footprint]

    def test_projection_band_table_matches_per_cell_loop(self, study):
        from repro import scenarios
        cube = study.project_sweep(
            scenarios.ScenarioGrid.cartesian(
                scenarios.growth_axis((0.05, 0.103))),
            years=(2024, 2026, 2028))
        stack = cube.band_stack("operational", n_samples=300)
        assert stack.shape == (cube.n_scenarios, cube.n_years)
        for s in range(cube.n_scenarios):
            for yi, year in enumerate(cube.years):
                assert stack.band(s, yi) == cube.band(
                    s, year, "operational", n_samples=300)
        series = cube.band_series(0, "operational", n_samples=300)
        assert series == {year: stack.band(0, yi)
                          for yi, year in enumerate(cube.years)}
        end = cube.bands("operational", n_samples=300)
        assert end == {spec.name: stack.band(s, cube.n_years - 1)
                       for s, spec in enumerate(cube.specs)}


# ---------------------------------------------------------------------------
# Cross-thread determinism and fan-out identity
# ---------------------------------------------------------------------------

class TestFanOut:
    def test_shm_matches_serial_bit_for_bit(self):
        values, unc = random_stack(5, 9, 120)
        serial = mc_band_stack(values, unc, n_samples=500, method="serial")
        pooled = mc_band_stack(values, unc, n_samples=500, method="shm",
                               max_workers=WORKERS)
        assert pooled == serial

    def test_stack_equality_is_elementwise(self):
        values, unc = random_stack(31, 3, 20)
        a = mc_band_stack(values, unc, n_samples=50)
        b = mc_band_stack(values, unc, n_samples=50)
        assert a == b and not (a != b)
        assert a != mc_band_stack(values, unc, n_samples=50, seed=1)
        assert a != "not a stack"
        with pytest.raises(TypeError):
            hash(a)

    def test_auto_past_threshold_fans_out_identically(self, monkeypatch):
        from repro import obs
        values, unc = random_stack(13, 4, 30)
        serial = mc_band_stack(values, unc, n_samples=200, method="serial")
        # Force the auto path onto the threads — output must be
        # identical.
        monkeypatch.setattr(mc, "_FANOUT_MIN_DRAWS", 1)
        dispatched = obs.get_counter("fanout.blocks_dispatched")
        assert mc_band_stack(values, unc, n_samples=200, method="auto",
                             max_workers=WORKERS) == serial
        assert obs.get_counter("fanout.blocks_dispatched") \
            == dispatched + WORKERS

    def test_single_cell_takes_serial_path(self):
        values, unc = random_stack(6, 1, 40)
        stack = mc_band_stack(values, unc, n_samples=200, method="shm")
        assert stack.band(0) == band_scalar_reference(values[0], unc[0],
                                                      n_samples=200)

    def test_auto_below_threshold_is_serial_and_identical(self):
        values, unc = random_stack(8, 4, 20)
        auto = mc_band_stack(values, unc, n_samples=100, method="auto")
        serial = mc_band_stack(values, unc, n_samples=100, method="serial")
        assert all(auto.band(c) == serial.band(c) for c in range(4))


# ---------------------------------------------------------------------------
# The slab loop: byte-sized windows and slabs, one reused scratch buffer
# ---------------------------------------------------------------------------

#: Slab sizes (bytes) that force the loop's edge cases on
#: :func:`slab_stack` (covered counts 20..40, ``SLAB_SAMPLES`` draws).
SLAB_CASES = {
    "many-ragged-slabs": 8 * 40 * 3,     # 3-6 rows, 97 % rows != 0
    "one-row-per-slab": 8,               # k > one slab: rows == 1
    "one-slab-per-cell": 1 << 30,        # rows == n_samples
    "window-carry": 8 * 64,              # 64-entry windows: every k carries
}
SLAB_SAMPLES = 97


@pytest.fixture(params=sorted(SLAB_CASES))
def slab_case(request, monkeypatch):
    """Patch the slab (and window) size; threads share the module
    constant."""
    monkeypatch.setattr(mc, "_SLAB_BYTES", SLAB_CASES[request.param])
    return request.param


def slab_stack():
    """Five cells of 40 systems with covered counts from 20 to 40."""
    values, unc = random_stack(17, 5, 40, nan_frac=0.0)
    for c, holes in enumerate((0, 20, 7, 13, 1)):
        values[c, :holes] = np.nan
        unc[c, :holes] = np.nan
    return values, unc


class TestSlabLoop:
    def test_case_exercises_its_slab_shape(self, slab_case):
        counts = (~np.isnan(slab_stack()[0])).sum(axis=1)
        rows = [mc._slab_rows(SLAB_SAMPLES, int(k)) for k in counts]
        if slab_case == "many-ragged-slabs":
            assert all(1 < r < SLAB_SAMPLES for r in rows)
            assert all(SLAB_SAMPLES % r for r in rows)
        elif slab_case == "one-row-per-slab":
            assert rows == [1] * len(rows)
        elif slab_case == "window-carry":
            width = mc._window_len(SLAB_SAMPLES, int(counts.max()))
            assert width < SLAB_SAMPLES * int(counts.min())
            assert all(width % int(k) for k in counts)
        else:
            assert rows == [SLAB_SAMPLES] * len(rows)
        assert len(set(counts.tolist())) == len(counts)

    def test_sample_totals_match_reference(self, slab_case):
        values, unc = slab_stack()
        totals = sample_totals(values, unc, n_samples=SLAB_SAMPLES, seed=3)
        for c in range(values.shape[0]):
            assert np.array_equal(
                totals[c], legacy_totals(values[c], unc[c], SLAB_SAMPLES, 3))

    @pytest.mark.parametrize("method", ["serial", "shm"])
    def test_band_stack_matches_reference(self, slab_case, method):
        values, unc = slab_stack()
        stack = mc_band_stack(values, unc, n_samples=SLAB_SAMPLES, seed=3,
                              method=method, max_workers=WORKERS)
        for c in range(values.shape[0]):
            band = stack.band(c)
            assert (band.mean_mt, band.p5_mt, band.p50_mt, band.p95_mt) \
                == legacy_stats(values[c], unc[c], SLAB_SAMPLES, 3)


def bits(x):
    """The int64 view of float data: ``array_equal`` treats -0.0 as 0.0,
    this does not."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def narrow_stack(k, seed=41):
    """Three cells of twelve systems with exactly ``k`` covered each;
    cell 1 covers a zero estimate (zero sigma), cell 2 a zero
    uncertainty."""
    values, unc = random_stack(seed, 3, 12, nan_frac=0.0)
    rng = np.random.default_rng(seed)
    for c in range(3):
        holes = rng.permutation(12)[k:]
        values[c, holes] = np.nan
        unc[c, holes] = np.nan
    covered = np.flatnonzero(~np.isnan(values[1]))
    values[1, covered[0]] = 0.0
    unc[2, np.flatnonzero(~np.isnan(values[2]))[-1]] = 0.0
    return values, unc


class TestNarrowCells:
    """Cells on both sides of the column-layout threshold
    (``mc._COLUMN_MAX_K``), in one window and in many small ones, match
    the one-shot reference draw to the bit."""

    @pytest.fixture(params=["single-window", "multi-window"])
    def window(self, request, monkeypatch):
        if request.param == "multi-window":
            monkeypatch.setattr(mc, "_SLAB_BYTES", 8 * 20)
        return request.param

    @pytest.mark.parametrize("n_samples", [1, 2, 97, 4000])
    @pytest.mark.parametrize("k", range(1, 10))
    def test_totals_and_stats_match_reference(self, k, n_samples, window):
        values, unc = narrow_stack(k)
        totals = sample_totals(values, unc, n_samples=n_samples, seed=5)
        stack = mc_band_stack(values, unc, n_samples=n_samples, seed=5,
                              method="serial")
        if window == "multi-window" and n_samples > 2:
            assert mc._window_len(n_samples, k) < n_samples * k
        for c in range(3):
            ref = legacy_totals(values[c], unc[c], n_samples, 5)
            assert np.array_equal(bits(totals[c]), bits(ref))
            expected = [ref.mean(), ref.std(),
                        *np.percentile(ref, [5.0, 50.0, 95.0])]
            got = [stack.mean_mt[c], stack.std_mt[c], stack.p5_mt[c],
                   stack.p50_mt[c], stack.p95_mt[c]]
            assert np.array_equal(bits(got), bits(expected))
            assert band_scalar_reference(values[c], unc[c], n_samples,
                                         5) == stack.band(c)


class TestPercentileRule:
    """The band statistics read percentiles off a sorted sample with
    numpy's ``linear`` rule; ``np.percentile`` is the oracle."""

    @given(sample=st.lists(
               st.floats(min_value=0.0, max_value=1e12) | st.sampled_from(
                   [0.0, 1.0, 2.5, 1e12, float("inf")]),
               min_size=1, max_size=5000),
           percents=st.lists(st.floats(min_value=0.0, max_value=100.0),
                             min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_np_percentile(self, sample, percents):
        # Totals are sums of values clipped at +0.0, so they hold no
        # -0.0 (whose order against 0.0 a sort leaves open); NaN is
        # covered below.
        x = np.array(sample)
        rule = mc._linear_rule(x.size, np.true_divide(percents, 100))
        with np.errstate(invalid="ignore"):     # inf - inf, as numpy's
            got = mc._sorted_percentiles(np.sort(x), rule)
            expected = np.percentile(x, percents)
        assert np.array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 4000, 4001])
    def test_band_percentiles_with_ties_and_nan(self, n):
        x = np.round(np.random.default_rng(n).normal(10.0, 3.0, n))
        rule = mc._linear_rule(n)
        assert np.array_equal(
            bits(mc._sorted_percentiles(np.sort(x), rule)),
            bits(np.percentile(x, [5.0, 50.0, 95.0])))
        x[n // 2] = np.nan
        assert np.array_equal(mc._sorted_percentiles(np.sort(x), rule),
                              np.percentile(x, [5.0, 50.0, 95.0]),
                              equal_nan=True)


class TestKernelAllocation:
    """The kernel allocates one stream window, one scratch slab and
    per-cell inputs — never a per-slab temporary, and every cell's
    totals only when the stream spans several windows.

    numpy reports its data buffers to ``tracemalloc``, so the traced
    peak of a serial band build is the kernel's working set.  Cell 0
    is fully covered (it sets the stream length); the others have
    holes, so both cell shapes run.
    """

    N_SAMPLES = 200

    @staticmethod
    def stack(n):
        values, unc = random_stack(29, 8, n)
        full_values, full_unc = random_stack(30, 1, n, nan_frac=0.0)
        values[0], unc[0] = full_values[0], full_unc[0]
        return values, unc

    @staticmethod
    def peak_bytes(values, unc, n_samples):
        mc_band_stack(values, unc, n_samples=n_samples,
                      method="serial")      # warm any one-time state
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mc_band_stack(values, unc, n_samples=n_samples,
                          method="serial")
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_single_window_peak_is_stream_plus_one_slab(self):
        values, unc = self.stack(500)
        m, (n_cells, k) = self.N_SAMPLES, values.shape
        stream = m * k * 8
        assert stream <= mc._SLAB_BYTES       # one window holds it all
        scratch = min(m * k, mc._SLAB_BYTES // 8) * 8
        cell_inputs = 2 * k * 8 + 2 * k      # values, sigmas, masks
        ufunc_buffer = np.getbufsize() * 8   # one ufunc iterator buffer
        samples = 8 * m * 8                  # totals, percentile work
        peak = self.peak_bytes(values, unc, m)
        assert peak <= stream + scratch + cell_inputs + ufunc_buffer \
            + samples
        # Totals are per cell: two cells or all eight, same working set
        # (a (C, n_samples) totals array would add 6 x 1600 bytes here).
        assert peak - self.peak_bytes(values[:2], unc[:2], m) \
            < (n_cells - 2) * m * 8 // 2

    def test_multi_window_peak_is_far_below_the_stream(self):
        values, unc = self.stack(5000)
        m, (n_cells, k) = self.N_SAMPLES, values.shape
        stream = m * k * 8
        peak = self.peak_bytes(values, unc, m)
        assert peak < stream // 2
        # Doubling the draws grows only the (C, n_samples) totals.
        grown = self.peak_bytes(values, unc, 2 * m) - peak
        assert grown <= n_cells * m * 8 + np.getbufsize() * 8


# ---------------------------------------------------------------------------
# Distributional sanity
# ---------------------------------------------------------------------------

class TestDistribution:
    def test_halfwidth_shrinks_like_inverse_sqrt_fleet_size(self):
        """Independent errors cancel: the fleet-total halfwidth of n
        identical systems shrinks ~1/sqrt(n)."""
        def halfwidth(n):
            values = np.full(n, 100.0)
            unc = np.full(n, 0.3)
            return total_with_uncertainty_arrays(
                values, unc, n_samples=DEFAULT_MC_SAMPLES).halfwidth_frac

        ratio = halfwidth(400) / halfwidth(100)
        assert 0.4 < ratio < 0.62          # ideal 0.5, MC noise allowed

    def test_percentile_estimates_stabilize_like_inverse_sqrt_samples(self):
        """The p50 estimator's spread across independent streams shrinks
        ~1/sqrt(n_samples): 16x the draws => ~4x tighter."""
        values = np.full(50, 100.0)
        unc = np.full(50, 0.4)

        def p50_spread(n_samples):
            p50s = [total_with_uncertainty_arrays(
                values, unc, n_samples=n_samples, seed=seed).p50_mt
                for seed in range(24)]
            return float(np.std(p50s))

        ratio = p50_spread(250) / p50_spread(4000)
        assert 2.0 < ratio < 8.0           # ideal 4.0

    def test_quantile_band_brackets_mean_and_tracks_normal_kind(self):
        values, unc = random_stack(3, 1, 400, nan_frac=0.0)
        stack = mc_band_stack(values, unc, n_samples=DEFAULT_MC_SAMPLES)
        quantile = stack.band(0)
        normal = stack.band(0, kind="normal")
        assert quantile.p5_mt <= quantile.mean_mt <= quantile.p95_mt
        assert normal.p50_mt == normal.mean_mt == quantile.mean_mt
        assert normal.std_mt == quantile.std_mt
        # On a 400-system fleet the total is near-normal: the sampled
        # percentiles and the mean ± 1.645σ reading agree closely.
        assert normal.p5_mt == pytest.approx(quantile.p5_mt, rel=0.02)
        assert normal.p95_mt == pytest.approx(quantile.p95_mt, rel=0.02)

    def test_zero_uncertainty_collapses_all_kinds(self):
        values = np.array([[10.0, 20.0, 30.0]])
        unc = np.zeros((1, 3))
        stack = mc_band_stack(values, unc, n_samples=100)
        for kind in ("quantile", "normal"):
            band = stack.band(0, kind=kind)
            assert band.p5_mt == pytest.approx(60.0)
            assert band.p95_mt == pytest.approx(60.0)

    def test_normal_kind_floors_at_zero(self):
        stack = mc_band_stack(np.array([[1.0]]), np.array([[2.0]]),
                              n_samples=2000)
        assert stack.band(0, kind="normal").p5_mt == 0.0


# ---------------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------------

class TestValidation:
    def test_empty_cell_rejected(self):
        values = np.array([[1.0, 2.0], [np.nan, np.nan]])
        unc = np.array([[0.1, 0.1], [np.nan, np.nan]])
        with pytest.raises(ValueError, match="at least one estimate"):
            mc_band_stack(values, unc, n_samples=10)
        with pytest.raises(ValueError, match="at least one estimate"):
            mc_band_stack(values, unc, n_samples=10, method="shm")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mc_band_stack(np.ones((2, 3)), np.ones((2, 4)), n_samples=10)

    def test_bad_samples_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            mc_band_stack(np.ones((1, 2)), np.ones((1, 2)), n_samples=0)

    def test_scalar_values_rejected(self):
        with pytest.raises(ValueError, match="at least one axis"):
            mc_band_stack(np.float64(1.0), np.float64(0.1))

    def test_unknown_method_and_kind_rejected(self):
        values, unc = random_stack(1, 2, 5)
        with pytest.raises(ValueError, match="unknown method"):
            mc_band_stack(values, unc, method="gpu")
        stack = mc_band_stack(values, unc, n_samples=10)
        with pytest.raises(ValueError, match="unknown band kind"):
            stack.band(0, kind="percentile-ish")

    def test_band_stack_shape_consistency_enforced(self):
        good = dict(mean_mt=np.zeros(3), std_mt=np.zeros(3),
                    p5_mt=np.zeros(3), p50_mt=np.zeros(3),
                    p95_mt=np.zeros(3),
                    n_estimates=np.zeros(3, dtype=np.int64),
                    n_samples=10, seed=0)
        BandStack(**good)
        with pytest.raises(ValueError, match="p95_mt shape"):
            BandStack(**{**good, "p95_mt": np.zeros(4)})
