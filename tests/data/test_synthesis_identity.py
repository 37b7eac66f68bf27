"""Bit-identity pins for the deterministic synthesis fast paths.

The Top500 generator draws its categorical fields from cached CDFs
instead of ``Generator.choice``, and the Table II stand-in places its
holes with an outward neighbour walk instead of a per-rank sort.  Both
must reproduce the original definitions exactly: the same random
stream, the same picks, the same float sums.  The golden digests below
were taken from the ``Generator.choice`` / sort-based implementations.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import numpy as np
import pytest

from repro.data import table2_synth
from repro.data.top500 import DEFAULT_SEED, generate_top500
from repro.data.truth import (
    COUNTRY_WEIGHTS,
    CPU_MIX,
    GPU_MIX,
    SEGMENT_WEIGHTS,
    VENDORS,
    _uniform_choice,
    _weighted_choice,
)

#: sha256 of ``table2_text()``.
TABLE2_SHA256 = "e3e320180a98c7bf43d703b1f6574f2ccc111fcf567534207a7d56404866754b"

#: sha256 of the canonical JSON of each record view of the default list.
VIEW_SHA256 = {
    "truths": "0d23b2291b0bb5cf90197fa870c1023252aa57fd47efb35fb567755a41854fbe",
    "baseline": "7c917bf7359e2fbef5a4202a2eca64172e1155ac1c94d0e866e78dd9b78c7340",
    "public": "b05ee877e5ff8287dc9d178f0ce2ceed7b2caaf8ecd22b62ec12017354ff5c32",
}


def _canonical(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    return value


def _digest(objects) -> str:
    rows = [[(f.name, _canonical(getattr(obj, f.name)))
             for f in dataclasses.fields(obj)] for obj in objects]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def _sorted_proxy_reference(pub_est, skip):
    """The original definition: stable-sort every peer by distance."""
    ranks = [r for r in range(1, 501) if r not in skip]
    out = {}
    for r in range(1, 501):
        peers = sorted((q for q in ranks if q != r), key=lambda q: abs(q - r))
        nearest = peers[:10]
        out[r] = sum(pub_est[q] for q in nearest) / len(nearest)
    return out


class TestChoiceEquivalence:
    @pytest.mark.parametrize("table", [COUNTRY_WEIGHTS, CPU_MIX, GPU_MIX,
                                       SEGMENT_WEIGHTS])
    def test_cached_cdf_draw_matches_generator_choice(self, table):
        names = [n for n, _ in table]
        weights = np.array([w for _, w in table], dtype=float)
        weights = weights / weights.sum()
        for seed in range(200):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                assert _weighted_choice(ours, table) == \
                    str(ref.choice(names, p=weights))
            # Same number of draws consumed: the streams stay in step.
            assert ours.random() == ref.random()

    @pytest.mark.parametrize("seq", [VENDORS, (4, 4, 4, 8),
                                     (256.0, 384.0, 512.0, 768.0, 1024.0),
                                     ("fi-hydro-contract",)])
    def test_uniform_pick_matches_generator_choice(self, seq):
        for seed in range(200):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                assert _uniform_choice(ours, seq) == ref.choice(list(seq))
            assert ours.random() == ref.random()


class TestProxyInterp:
    @pytest.mark.parametrize("skip", [set(), {1, 2, 3, 250, 251, 499, 500},
                                      set(range(5, 500, 7))])
    def test_matches_sorted_reference_exactly(self, skip):
        rng = np.random.default_rng(11)
        pub_est = {r: float(v) for r, v in
                   zip(range(1, 501), rng.lognormal(3.0, 2.0, 500))}
        assert table2_synth._proxy_interp(pub_est, skip) == \
            _sorted_proxy_reference(pub_est, skip)


class TestGoldenDigests:
    def test_table2_text(self):
        text = table2_synth.table2_text()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TABLE2_SHA256

    def test_record_views(self):
        dataset = generate_top500(DEFAULT_SEED)
        assert _digest(dataset.truths) == VIEW_SHA256["truths"]
        assert _digest(dataset.baseline_records()) == VIEW_SHA256["baseline"]
        assert _digest(dataset.public_records()) == VIEW_SHA256["public"]
