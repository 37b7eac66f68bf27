"""EasyC facade + estimate-type tests."""

import pytest

from repro.core.easyc import EasyC
from repro.core.estimate import CarbonEstimate, CarbonKind, EstimateMethod
from repro.core.record import SystemRecord


def make(**kw):
    base = dict(rank=10, rmax_tflops=1000.0, rpeak_tflops=1500.0)
    base.update(kw)
    return SystemRecord(**base)


class TestCarbonEstimate:
    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            CarbonEstimate(kind=CarbonKind.OPERATIONAL, value_mt=-1.0,
                           method=EstimateMethod.MEASURED_POWER)

    def test_uncertainty_band(self):
        estimate = CarbonEstimate(kind=CarbonKind.OPERATIONAL, value_mt=100.0,
                                  method=EstimateMethod.MEASURED_POWER,
                                  uncertainty_frac=0.25)
        assert estimate.low_mt == pytest.approx(75.0)
        assert estimate.high_mt == pytest.approx(125.0)

    def test_band_clamps_at_zero(self):
        estimate = CarbonEstimate(kind=CarbonKind.OPERATIONAL, value_mt=10.0,
                                  method=EstimateMethod.MEASURED_POWER,
                                  uncertainty_frac=1.5)
        assert estimate.low_mt == 0.0

    def test_with_assumption_widens_band(self):
        estimate = CarbonEstimate(kind=CarbonKind.OPERATIONAL, value_mt=10.0,
                                  method=EstimateMethod.MEASURED_POWER,
                                  uncertainty_frac=0.1)
        widened = estimate.with_assumption("guessed memory", 0.05)
        assert widened.uncertainty_frac == pytest.approx(0.15)
        assert "guessed memory" in widened.assumptions
        assert estimate.uncertainty_frac == pytest.approx(0.1)  # original intact


class TestAssess:
    def test_fully_covered_system(self, easyc, frontier_like):
        assessment = easyc.assess(frontier_like)
        assert assessment.covered_operational
        assert assessment.covered_embodied
        assert assessment.rank == frontier_like.rank
        assert assessment.name == "Frontier"

    def test_uncovered_returns_none_not_exception(self, easyc, bare_record):
        assessment = easyc.assess(bare_record)
        assert assessment.operational is None
        assert assessment.embodied is None

    def test_partial_coverage(self, easyc):
        # Power only: operational yes, embodied no.
        record = make(country="Japan", power_kw=1000.0)
        assessment = easyc.assess(record)
        assert assessment.covered_operational
        assert not assessment.covered_embodied


class TestAssessFleet:
    def test_preserves_order_and_length(self, easyc, dataset):
        records = dataset.baseline_records()
        assessments = easyc.assess_fleet(records)
        assert [a.rank for a in assessments] == [r.rank for r in records]


class TestCoverageCheckConsistency:
    def test_predicate_agrees_with_models(self, easyc, dataset):
        """The cheap requirement probe must agree with actual
        evaluability for every record in both scenarios."""
        for records in (dataset.baseline_records(), dataset.public_records()):
            for record in records:
                op_check, emb_check = easyc.coverage_check(record)
                assessment = easyc.assess(record)
                assert bool(op_check) == assessment.covered_operational, record.rank
                assert bool(emb_check) == assessment.covered_embodied, record.rank
