"""Request canonicalization and the coalescing bit-identity contract.

The load-bearing assertion lives here: a request evaluated inside a
coalesced group yields the *same JSON string* as the same request
evaluated alone — the serving layer's correctness rides entirely on
this, and it holds because every cube row (and every band-stack row)
is independent of which other rows share the batch.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import DeadlineExceededError
from repro.fleets import BUILTIN_FLEETS
from repro.deadline import deadline_scope
from repro.serve.batcher import (
    ACCEPTANCE_GRID_AXES,
    RequestError,
    build_specs,
    cache_key,
    evaluate_group,
    fleet_content_hash,
    fleet_records,
    parse_request,
)


def parse(kind, body):
    return parse_request(kind, body, default_deadline_s=30.0,
                         max_deadline_s=300.0)


class TestParseValidation:
    @pytest.mark.parametrize("body,match", [
        ({}, "exactly one of"),
        ({"fleet": "doe-like", "systems": []}, "exactly one of"),
        ({"fleet": "nope"}, "unknown fleet"),
        ({"fleet": "doe-like", "bogus": 1}, "unknown field"),
        ({"fleet": "doe-like", "deadline_s": 0}, "deadline_s"),
        ({"fleet": "doe-like", "deadline_s": 1e9}, "deadline_s"),
        ({"fleet": "doe-like", "deadline_s": "soon"}, "deadline_s"),
        ({"fleet": "doe-like", "footprint": "imaginary"},
         "unknown footprint"),
    ])
    def test_common_rejections(self, body, match):
        with pytest.raises(RequestError, match=match):
            parse("assess", body)

    def test_assess_takes_no_axes(self):
        with pytest.raises(RequestError, match="no scenario axes"):
            parse("assess", {"fleet": "doe-like", "axes": {"pue": [1.0]}})

    def test_sweep_needs_axes_or_grid(self):
        with pytest.raises(RequestError, match="needs 'axes'"):
            parse("sweep", {"fleet": "doe-like"})

    def test_unknown_axis_rejected(self):
        with pytest.raises(RequestError, match="unknown axis"):
            parse("sweep", {"fleet": "doe-like",
                            "axes": {"voltage": [1.0]}})

    def test_zip_needs_equal_lengths(self):
        with pytest.raises(RequestError, match="equal-length"):
            parse("sweep", {"fleet": "doe-like", "mode": "zip",
                            "axes": {"pue": [1.0, 1.1],
                                     "utilization": [0.5]}})

    def test_band_params_only_for_bands(self):
        with pytest.raises(RequestError, match="only apply"):
            parse("sweep", {"fleet": "doe-like",
                            "axes": {"pue": [1.0]}, "seed": 3})
        parsed = parse("bands", {"fleet": "doe-like",
                                 "axes": {"pue": [1.0]},
                                 "n_samples": 100, "seed": 3})
        assert (parsed.n_samples, parsed.seed) == (100, 3)

    def test_acceptance_grid_expands_to_64(self):
        parsed = parse("sweep", {"fleet": "doe-like", "grid": "acceptance"})
        assert len(build_specs(parsed)) == 64
        assert dict(parsed.axes) == ACCEPTANCE_GRID_AXES

    def test_specs_are_memoized_per_grid(self):
        """Equal grids share one spec tuple, whatever the fleet or kind;
        mode and the sign of a zero still tell grids apart."""
        grid = build_specs(parse("sweep", {"fleet": "doe-like",
                                           "grid": "acceptance"}))
        assert build_specs(parse("bands", {"fleet": "access-like",
                                           "grid": "acceptance",
                                           "seed": 9})) is grid
        axes = {"pue": [1.0, 1.2], "utilization": [0.5, 0.8]}
        cartesian = build_specs(parse("sweep", {"fleet": "doe-like",
                                                "axes": axes}))
        zipped = build_specs(parse("sweep", {"fleet": "doe-like",
                                             "axes": axes, "mode": "zip"}))
        assert (len(cartesian), len(zipped)) == (4, 2)
        names = [build_specs(parse("sweep", {"fleet": "doe-like",
                                             "axes": {"pue": [zero]}}))[0].name
                 for zero in (0.0, -0.0, 0.0)]
        assert names == ["pue=0", "pue=-0", "pue=0"]
        with pytest.raises(RequestError, match="must be positive"):
            build_specs(parse("sweep", {"fleet": "doe-like",
                                        "axes": {"lifetime": [-1.0]}}))

    def test_inline_systems_validated(self):
        with pytest.raises(RequestError, match="unknown field"):
            parse("assess", {"systems": [{"warp_factor": 9}]})
        parsed = parse("assess", {"systems": [
            {"rank": 1, "name": "s", "country": "Germany",
             "rmax_tflops": 900.0, "rpeak_tflops": 1200.0,
             "power_kw": 800.0}]})
        records = fleet_records(parsed)
        assert len(records) == 1 and records[0].name == "s"


class TestCanonicalization:
    def test_axis_body_order_is_irrelevant(self):
        left = parse("sweep", {"fleet": "doe-like",
                               "axes": {"pue": [1.0, 1.2],
                                        "aci_scale": [1.0, 0.8]}})
        right = parse("sweep", {"fleet": "doe-like",
                                "axes": {"aci_scale": [1.0, 0.8],
                                         "pue": [1.0, 1.2]}})
        assert left == right
        assert cache_key(left, "fh") == cache_key(right, "fh")

    def test_cache_key_separates_distinct_questions(self):
        base = {"fleet": "doe-like", "axes": {"pue": [1.0, 1.2]}}
        a = parse("sweep", base)
        b = parse("sweep", {**base, "footprint": "embodied"})
        c = parse("bands", base)
        keys = {cache_key(p, "fh") for p in (a, b, c)}
        assert len(keys) == 3

    def test_deadline_does_not_shape_the_cache_key(self):
        a = parse("assess", {"fleet": "doe-like"})
        b = parse("assess", {"fleet": "doe-like", "deadline_s": 5})
        assert cache_key(a, "fh") == cache_key(b, "fh")

    def test_inline_fleet_key_ignores_key_order(self):
        item = {"rank": 1, "name": "s", "country": "Germany",
                "rmax_tflops": 900.0, "rpeak_tflops": 1200.0,
                "power_kw": 800.0}
        left = parse("assess", {"systems": [item]})
        right = parse("assess", {"systems": [dict(reversed(item.items()))]})
        assert left.fleet_key == right.fleet_key
        assert left.fleet_key.startswith("inline:")
        changed = parse("assess", {"systems": [dict(item, power_kw=801.0)]})
        assert changed.fleet_key != left.fleet_key
        assert parse("assess", {"fleet": "doe-like"}).fleet_key == "doe-like"

    def test_fleet_content_hash_is_value_based(self):
        records = BUILTIN_FLEETS["doe-like"].systems
        copies = tuple(dataclasses.replace(r) for r in records)
        assert fleet_content_hash(records) == fleet_content_hash(copies)
        mutated = (dataclasses.replace(records[0], power_kw=1.0),
                   *records[1:])
        assert fleet_content_hash(records) != fleet_content_hash(mutated)


class TestCoalescingBitIdentity:
    """Grouped evaluation ≡ lone evaluation, as exact JSON strings."""

    @pytest.fixture()
    def records(self):
        return BUILTIN_FLEETS["doe-like"].systems

    @pytest.fixture()
    def mixed_requests(self):
        return [
            parse("assess", {"fleet": "doe-like"}),
            parse("sweep", {"fleet": "doe-like",
                            "axes": {"pue": [1.0, 1.15, 1.3]}}),
            parse("bands", {"fleet": "doe-like",
                            "axes": {"utilization": [0.5, 0.8]},
                            "n_samples": 150, "seed": 11}),
            parse("sweep", {"fleet": "doe-like",
                            "axes": {"aci_scale": [1.0, 0.8],
                                     "pue": [1.0, 1.2]},
                            "footprint": "embodied"}),
        ]

    def test_group_equals_lone_serial(self, records, mixed_requests):
        grouped = evaluate_group(records, mixed_requests,
                                 serial_only=True, budget_s=None)
        for parsed, payload in zip(mixed_requests, grouped):
            lone = evaluate_group(records, [parsed],
                                  serial_only=True, budget_s=None)
            assert payload == lone[0]       # byte-identical JSON text

    def test_ladder_path_equals_serial_floor(self, records, mixed_requests):
        serial = evaluate_group(records, mixed_requests,
                                serial_only=True, budget_s=None)
        laddered = evaluate_group(records, mixed_requests,
                                  serial_only=False, budget_s=None)
        assert laddered == serial

    def test_order_within_the_batch_is_irrelevant(self, records,
                                                  mixed_requests):
        forward = evaluate_group(records, mixed_requests,
                                 serial_only=True, budget_s=None)
        backward = evaluate_group(records, mixed_requests[::-1],
                                  serial_only=True, budget_s=None)
        assert forward == backward[::-1]

    def test_payloads_are_valid_json_with_expected_shape(self, records,
                                                         mixed_requests):
        payloads = [json.loads(p) for p in evaluate_group(
            records, mixed_requests, serial_only=True, budget_s=None)]
        assert payloads[0]["kind"] == "assess"
        assert set(payloads[0]["footprints"]) == {
            "operational", "embodied", "embodied_annualized"}
        assert payloads[1]["n_scenarios"] == 3
        assert all("band" in row for row in payloads[2]["scenarios"])
        assert {"mean_mt", "std_mt", "p5_mt", "p50_mt", "p95_mt"} == set(
            payloads[2]["scenarios"][0]["band"])
        assert payloads[3]["footprint"] == "embodied"

    def test_spent_budget_raises_deadline_error(self, records):
        parsed = parse("sweep", {"fleet": "doe-like",
                                 "axes": {"pue": [1.0, 1.2]}})
        with deadline_scope(1e-9):
            with pytest.raises(DeadlineExceededError) as excinfo:
                evaluate_group(records, [parsed],
                               serial_only=True, budget_s=1e-9)
        assert excinfo.value.code == "deadline-exceeded"
        assert excinfo.value.label == "serve-batch"
