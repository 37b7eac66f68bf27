"""Counters and the warn-once reset hook."""

from __future__ import annotations

import warnings

import pytest

from repro import obs
from repro.core.vectorized import clear_frame_cache, fleet_frame
from repro.data.synth_fleet import synth_fleet
from repro.serve import faults


class TestCounters:
    def test_inc_and_get(self):
        name = "test.counter_a"
        base = obs.get_counter(name)
        obs.inc(name)
        obs.inc(name, 2.5)
        assert obs.get_counter(name) == pytest.approx(base + 3.5)

    def test_unknown_counter_is_zero(self):
        assert obs.get_counter("test.never_touched") == 0

    def test_snapshot_is_a_sorted_copy(self):
        obs.inc("test.zz_last")
        obs.inc("test.aa_first")
        snap = obs.metrics_snapshot()
        names = list(snap)
        assert names == sorted(names)
        snap["test.aa_first"] = -1  # mutating the copy ...
        assert obs.get_counter("test.aa_first") >= 1  # ... changes nothing


class TestReset:
    def test_reset_metrics_clears_counters(self):
        obs.inc("test.reset_probe")
        obs.reset_metrics()
        try:
            assert obs.get_counter("test.reset_probe") == 0
        finally:
            # This registry is process-lifetime state other tests (and
            # doctor) read; leave a trace that the suite ran.
            obs.inc("test.reset_probe")

    def test_reset_warnings_rearms_fault_parser(self):
        spec = "totally@bogus-point"
        with pytest.warns(RuntimeWarning, match="malformed entry"):
            faults.FaultPlan.parse(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            faults.FaultPlan.parse(spec)
        obs.reset_warnings()
        with pytest.warns(RuntimeWarning, match="malformed entry"):
            faults.FaultPlan.parse(spec)


class TestEngineCounters:
    """The engines actually feed the registry (doctor's activity)."""

    def test_frame_cache_hit_and_miss_are_counted(self):
        records = synth_fleet(40, seed=11)
        clear_frame_cache()
        misses0 = obs.get_counter("cache.frame_misses")
        hits0 = obs.get_counter("cache.frame_hits")
        fleet_frame(records)
        assert obs.get_counter("cache.frame_misses") == misses0 + 1
        fleet_frame(records)
        assert obs.get_counter("cache.frame_hits") == hits0 + 1

    def test_kernel_cells_counted_per_assessment(self):
        from repro.core.vectorized import batch_operational_mt
        records = synth_fleet(25, seed=12)
        frame = fleet_frame(records)
        cells0 = obs.get_counter("kernel.cells")
        batch_operational_mt(records, frame=frame)
        assert obs.get_counter("kernel.cells") == cells0 + 25

    def test_mc_draws_counted(self):
        import numpy as np
        from repro.uncertainty import mc
        values = np.full((3, 4), 100.0)
        unc = np.full((3, 4), 0.1)
        draws0 = obs.get_counter("mc.draws")
        mc.mc_band_stack(values, unc, n_samples=64, method="serial")
        assert obs.get_counter("mc.draws") > draws0
