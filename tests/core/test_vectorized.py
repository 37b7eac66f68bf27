"""Vectorized batch engine: exact equivalence with the scalar model."""

import numpy as np
import pytest

from repro.core.embodied import EmbodiedModel
from repro.core.operational import OperationalModel
from repro.core.vectorized import (
    _OP_COMPONENT,
    FleetFrame,
    batch_embodied_mt,
    batch_operational_mt,
    clear_frame_cache,
    embodied_batch,
    fleet_frame,
    operational_batch,
)
from repro.errors import InsufficientDataError, UnknownDeviceError
from repro.hardware.catalog import DEFAULT_CATALOG, UnknownDevicePolicy


def scalar_reference(records, model):
    out = np.full(len(records), np.nan)
    for i, record in enumerate(records):
        try:
            out[i] = model.estimate(record).value_mt
        except InsufficientDataError:
            pass
    return out


class TestEquivalence:
    """Scalar model is the semantics; the batch path must match it
    record-for-record on every scenario view."""

    @pytest.mark.parametrize("scenario", ["baseline", "public", "true"])
    def test_batch_matches_scalar(self, dataset, scenario):
        records = {
            "baseline": dataset.baseline_records,
            "public": dataset.public_records,
            "true": dataset.true_records,
        }[scenario]()
        model = OperationalModel()
        batch = batch_operational_mt(records, model)
        reference = scalar_reference(records, model)
        assert batch.shape == reference.shape
        both_nan = np.isnan(batch) & np.isnan(reference)
        close = np.isclose(batch, reference, rtol=1e-9, equal_nan=False)
        assert np.all(both_nan | close)

    def test_total_matches_scalar_sum(self, dataset):
        records = dataset.public_records()
        model = OperationalModel()
        total = float(np.nansum(batch_operational_mt(records, model)))
        assert total == pytest.approx(
            float(np.nansum(scalar_reference(records, model))))

    def test_custom_model_semantics_propagate(self, dataset):
        records = dataset.public_records()
        tweaked = OperationalModel(measured_power_utilization=0.6)
        batch = batch_operational_mt(records, tweaked)
        reference = scalar_reference(records, tweaked)
        covered = ~np.isnan(reference)
        assert np.allclose(batch[covered], reference[covered], rtol=1e-9)


class TestArrays:
    def test_extraction_shapes(self, dataset):
        records = dataset.baseline_records()
        frame = fleet_frame(records)
        assert frame.n == 500
        assert frame.power_kw.shape == (500,)
        # Power is hidden for some systems: nan there.
        assert np.isnan(frame.power_kw).sum() > 0

    def test_reuse_of_extracted_arrays(self, dataset):
        records = dataset.public_records()
        model = OperationalModel()
        frame = FleetFrame.from_records(records)
        a = batch_operational_mt(records, model, frame=frame)
        b = batch_operational_mt(records, model)
        assert np.array_equal(a, b, equal_nan=True)

    def test_length_mismatch_rejected(self, dataset):
        records = dataset.public_records()
        frame = FleetFrame.from_records(records[:10])
        with pytest.raises(ValueError):
            batch_operational_mt(records, frame=frame)


class TestFleetFrame:
    def test_extraction_is_model_independent(self, dataset):
        """One frame serves any model configuration."""
        records = dataset.public_records()
        frame = FleetFrame.from_records(records)
        default = batch_operational_mt(records, OperationalModel(),
                                       frame=frame)
        tweaked = batch_operational_mt(
            records, OperationalModel(measured_power_utilization=0.7),
            frame=frame)
        covered = ~np.isnan(default)
        assert np.all(tweaked[covered] <= default[covered])

    def test_dictionary_encoding_is_compact(self, dataset):
        frame = FleetFrame.from_records(dataset.public_records())
        # A 500-system list resolves to a handful of unique devices and
        # locations — that is what makes per-model resolution cheap.
        assert 0 < len(frame.processors) < 40
        assert 0 < len(frame.accelerators) < 30
        assert 0 < len(frame.locations) < 80

    def test_cache_reuses_frames(self, dataset):
        clear_frame_cache()
        records = dataset.public_records()   # memoized record objects
        assert fleet_frame(records) is fleet_frame(dataset.public_records())

    def test_distinct_fleets_get_distinct_frames(self, dataset):
        records = dataset.public_records()
        assert fleet_frame(records[:20]) is not fleet_frame(records[:30])

    def test_length_mismatch_rejected_for_frame(self, dataset):
        records = dataset.public_records()
        frame = FleetFrame.from_records(records[:10])
        with pytest.raises(ValueError):
            batch_embodied_mt(records, frame=frame)


class TestEmbodiedBatch:
    def scalar_reference(self, records, model):
        out = np.full(len(records), np.nan)
        for i, record in enumerate(records):
            try:
                out[i] = model.estimate(record).value_mt
            except InsufficientDataError:
                pass
        return out

    @pytest.mark.parametrize("scenario", ["baseline", "public", "true"])
    def test_batch_matches_scalar(self, dataset, scenario):
        records = {
            "baseline": dataset.baseline_records,
            "public": dataset.public_records,
            "true": dataset.true_records,
        }[scenario]()
        model = EmbodiedModel()
        batch = batch_embodied_mt(records, model)
        reference = self.scalar_reference(records, model)
        both_nan = np.isnan(batch) & np.isnan(reference)
        assert np.all(both_nan | (batch == reference))

    def test_model_sweep_reuses_frame(self, dataset):
        """The ablation pattern: one frame, many model configurations."""
        records = dataset.public_records()
        frame = fleet_frame(records)
        totals = []
        for fab_yield in (0.7, 0.875, 0.95):
            values = batch_embodied_mt(records, EmbodiedModel(fab_yield=fab_yield),
                                       frame=frame)
            totals.append(float(np.nansum(values)))
        assert totals[0] > totals[1] > totals[2]   # better yield, less scrap

    def test_strict_policy_matches_scalar_raise(self, frontier_like):
        """Strict-catalog failures propagate exactly like the scalar
        model's (the proxy/component fallback path)."""
        import dataclasses
        strict = EmbodiedModel(
            catalog=DEFAULT_CATALOG.with_policy(UnknownDevicePolicy.STRICT))
        record = dataclasses.replace(frontier_like, accelerator="Novel NPU 9000")
        with pytest.raises(UnknownDeviceError):
            strict.estimate(record)
        with pytest.raises(UnknownDeviceError):
            batch_embodied_mt([record], strict)

    def test_strict_cpu_failure_beats_missing_accelerator(self):
        """The scalar model resolves catalog.cpu before the accelerator
        checks, so a strict-policy CPU failure must raise even for a
        record that would otherwise be uncovered (accelerated without a
        GPU count)."""
        from repro.core.record import SystemRecord
        strict = EmbodiedModel(
            catalog=DEFAULT_CATALOG.with_policy(UnknownDevicePolicy.STRICT))
        record = SystemRecord(
            rank=42, rmax_tflops=1e4, rpeak_tflops=2e4, country="Japan",
            processor="Mystery CPU 3000", n_cpus=100,
            accelerator="NVIDIA H100", n_gpus=None)
        with pytest.raises(UnknownDeviceError):
            strict.estimate(record)
        with pytest.raises(UnknownDeviceError):
            batch_embodied_mt([record], strict)

    def test_uncertainty_array_matches_scalar(self, dataset):
        records = dataset.public_records()
        emb = embodied_batch(fleet_frame(records), EmbodiedModel())
        model = EmbodiedModel()
        for i, record in enumerate(records):
            try:
                expected = model.estimate(record).uncertainty_frac
            except InsufficientDataError:
                assert np.isnan(emb.uncertainty_frac[i])
                continue
            assert emb.uncertainty_frac[i] == expected


class TestOperationalBatchMetadata:
    def test_uncertainty_array_matches_scalar(self, dataset):
        records = dataset.public_records()
        model = OperationalModel()
        batch = operational_batch(fleet_frame(records), model)
        for i, record in enumerate(records):
            try:
                expected = model.estimate(record).uncertainty_frac
            except InsufficientDataError:
                assert np.isnan(batch.uncertainty_frac[i])
                continue
            assert batch.uncertainty_frac[i] == expected


class TestComponentPathVectorized:
    """The component-power path runs through the array kernel — the
    ROADMAP's last scalar residue in the study hot loop."""

    def test_no_scalar_fallback_on_study_fleet(self, dataset):
        records = dataset.public_records()
        frame = fleet_frame(records)
        batch = operational_batch(frame, OperationalModel())
        is_comp = frame.op_path == _OP_COMPONENT
        assert is_comp.sum() > 0          # the path is actually exercised
        assert batch.scalar_idx.size == 0  # ...and fully vectorized
        # Component records with a grid location are covered via arrays.
        covered = ~np.isnan(batch.values_mt)
        assert (covered & is_comp).sum() > 0

    def test_component_estimates_identical_to_scalar(self, cpu_only_record):
        """Full assessment metadata — method, breakdown, assumptions,
        uncertainty — matches the scalar model on a component record."""
        from repro.core.easyc import EasyC
        records = [cpu_only_record]
        vectorized = EasyC().assess_fleet(records,
                                          frame=FleetFrame.from_records(records))
        scalar = EasyC().assess_fleet(records, engine="scalar")
        assert vectorized == scalar
        estimate = vectorized[0].operational
        assert estimate.method.value == "component_power"
        assert estimate.assumptions      # defaults were noted

    def test_out_of_domain_default_utilization_falls_back(self, cpu_only_record):
        """A model whose component_utilization the scalar path would
        reject routes those records to the scalar fallback (which
        raises), not to silent array arithmetic."""
        bad = OperationalModel(component_utilization=2.0)
        records = [cpu_only_record]
        with pytest.raises(ValueError):
            bad.estimate(cpu_only_record)
        with pytest.raises(ValueError):
            batch_operational_mt(records, bad,
                                 frame=FleetFrame.from_records(records))


class TestSpeed:
    def test_batch_is_faster_for_sweeps(self, dataset):
        """On repeated evaluation of a mostly-measured-power fleet the
        array path should clearly beat per-record dispatch."""
        import time
        records = dataset.public_records()
        model = OperationalModel()
        frame = fleet_frame(records)

        start = time.perf_counter()
        for _ in range(10):
            batch_operational_mt(records, model, frame=frame)
        batch_time = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(10):
            scalar_reference(records, model)
        scalar_time = time.perf_counter() - start

        assert batch_time < scalar_time


class TestHourAci:
    def test_flat_db_rows_repeat_annual_aci(self, dataset):
        from repro.grid.intervals import default_interval_db

        frame = fleet_frame(dataset.public_records())
        db = default_interval_db(amplitude=0.0)
        hourly = frame.hour_aci(db)
        assert hourly.shape == (24, len(frame.records))
        flat = frame.aci(db)
        for h in range(24):
            np.testing.assert_array_equal(hourly[h], flat)

    def test_diurnal_db_means_back_to_annual(self, dataset):
        from repro.grid.intervals import default_interval_db

        frame = fleet_frame(dataset.public_records())
        db = default_interval_db(amplitude=0.3)
        hourly = frame.hour_aci(db)
        annual = frame.aci(db)
        # Hour rows vary, but their unweighted mean recovers the
        # annual scalar (the profile's factors average to ~1).
        assert not np.array_equal(hourly[3], hourly[19], equal_nan=True)
        np.testing.assert_allclose(np.nanmean(hourly, axis=0), annual,
                                   rtol=1e-12)

    def test_missing_location_is_nan_every_hour(self):
        from repro.core.record import SystemRecord
        from repro.grid.intervals import default_interval_db

        record = SystemRecord(rank=1, rmax_tflops=1000.0,
                              rpeak_tflops=1500.0, name="nowhere",
                              country=None)
        frame = fleet_frame([record])
        hourly = frame.hour_aci(default_interval_db())
        assert np.isnan(hourly).all()
