"""Scaling: the Monte-Carlo band fan-out, serial kernel vs threads.

Not a paper figure — the engineering benchmark for the one fan-out
this codebase keeps.  Every other fleet-scale pass (batch assessment,
scenario sweeps, projections, hour-window shifts) runs in-process,
because a recorded fan-out lost to serial at every size measured
(``docs/performance.md``).  The band stack is the exception: its cells
are embarrassingly parallel, each costs ``n_samples × covered
systems`` draws, and the windowed kernel is numpy ufunc and RNG work
that releases the GIL.

This times :func:`repro.uncertainty.mc.mc_band_stack` with
``method="serial"`` against ``method="threads"`` (contiguous cell
blocks on a thread pool) at two stack shapes:

* ``fleet-batch`` — the shape the fleet-batch workload draws: the
  64-scenario acceptance grid over a 5,000-system ``synth_fleet``,
  1,000 draws per cell;
* ``small`` — 16 scenarios over 1,000 systems, 1,000 draws per cell,
  where the fixed thread-start cost weighs more.

Bit-identity of the two methods is asserted at both shapes.  The
measured points are written to ``results/BENCH_scaling.json``;
``benchmarks/check_throughput_regression.py`` gates the recorded
``threads_vs_serial`` ratio at the ``fleet-batch`` shape against the
committed value (a same-run, machine-normalized ratio).
"""

import json
import os
import time

from repro import scenarios
from repro.core.vectorized import clear_frame_cache
from repro.data.synth_fleet import synth_fleet
from repro.uncertainty import mc

#: Fan-out comparisons need at least two threads even on small hosts;
#: the recorded JSON carries both this and the host cpu count.
WORKERS = max(2, min(4, os.cpu_count() or 1))

N_SAMPLES = 1_000

#: The shape the regression gate reads.
GATE_SHAPE = "fleet-batch"


def _acceptance_grid():
    return scenarios.ScenarioGrid.cartesian(
        scenarios.aci_scale_axis((1.0, 0.9, 0.8, 0.7)),
        scenarios.pue_axis((1.0, 1.1, 1.2, 1.3)),
        scenarios.utilization_axis((0.5, 0.65, 0.8, 0.95)),
    )


def _small_grid():
    return scenarios.ScenarioGrid.cartesian(
        scenarios.aci_scale_axis((1.0, 0.9, 0.8, 0.7)),
        scenarios.pue_axis((1.0, 1.1, 1.2, 1.3)),
    )


def _stack(n_systems: int, grid):
    """A real operational value/uncertainty stack (nan = uncovered)."""
    cube = scenarios.sweep(synth_fleet(n_systems, seed=20241118), grid)
    return cube.operational_mt, cube.operational_unc


def _bands(values, unc, method: str, n_samples: int = N_SAMPLES):
    return mc.mc_band_stack(values, unc, n_samples=n_samples,
                            method=method, max_workers=WORKERS)


def _best_of(fn, rounds):
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_scaling_identity_smoke():
    """Both methods are bit-identical on a small stack."""
    values, unc = _stack(300, _small_grid())
    assert _bands(values, unc, "threads", 200) == _bands(
        values, unc, "serial", 200)


def test_scaling_curve(save_artifact):
    """Time both methods at both shapes, assert bit-identity, and record
    the points as the ``BENCH_scaling.json`` baseline for the CI gate."""
    shapes = (("small", 1_000, _small_grid()),
              (GATE_SHAPE, 5_000, _acceptance_grid()))
    curve = []
    for name, n_systems, grid in shapes:
        values, unc = _stack(n_systems, grid)
        serial = _bands(values, unc, "serial")       # warm + reference
        assert _bands(values, unc, "threads") == serial, \
            f"threads != serial at the {name} shape"
        serial_s = _best_of(lambda: _bands(values, unc, "serial"), 3)
        threads_s = _best_of(lambda: _bands(values, unc, "threads"), 3)
        curve.append({
            "shape": name,
            "n_cells": int(values.shape[0]),
            "n_systems": n_systems,
            "n_samples": N_SAMPLES,
            "draws": int(serial.n_estimates.sum()) * N_SAMPLES,
            "serial_ms": serial_s * 1e3,
            "threads_ms": threads_s * 1e3,
            "threads_vs_serial": serial_s / threads_s,
        })

    # Span-summary sidecar: one traced threaded pass at the gate shape,
    # aggregated per span name.  The timed rounds above ran untraced.
    from repro import obs
    with obs.capture() as trace:
        _bands(values, unc, "threads")
    span_sidecar = {
        "benchmark": "bench_scaling",
        "traced_pass": f"threaded band stack ({values.shape[0]} cells x "
                       f"{values.shape[1]} systems x {N_SAMPLES} draws)",
        "spans": obs.summarize(trace.records),
    }
    clear_frame_cache()

    baseline = {
        "benchmark": "bench_scaling",
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "gate_shape": GATE_SHAPE,
        "curve": curve,
        "note": ("one pass = mc_band_stack over an operational "
                 "(scenario x system) stack of a synth_fleet; speedups "
                 "are same-run, machine-normalized ratios.  "
                 "threads_vs_serial needs multiple physical cores to "
                 "exceed 1.0."),
    }
    save_artifact("BENCH_scaling.json", json.dumps(baseline, indent=2))
    save_artifact("BENCH_scaling_spans.json",
                  json.dumps(span_sidecar, indent=2))
