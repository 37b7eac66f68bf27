"""Throughput: fleet assessment and the end-to-end study, per engine.

Not a paper figure — an engineering benchmark for the library itself:
assessing one 500-system list is the pipeline's hot loop (ablation
grids re-run it hundreds of times), so its cost is tracked here for
both engines, and a machine-readable baseline
(``results/BENCH_throughput.json``) is emitted so future changes can
be compared against it.

Engine notes:

* ``engine="vectorized"`` (the default) routes everything through the
  columnar :class:`~repro.core.vectorized.FleetFrame`; the end-to-end
  study additionally reuses per-dataset record views, frames, and the
  enrichment pass, so steady-state runs are dominated by array math.
* ``engine="scalar"`` loops the reference models per record — the
  semantics both engines must (and, per ``tests/properties``, do)
  agree on.
"""

import json
import statistics
import time

import numpy as np

from repro import scenarios
from repro.core.easyc import EasyC
from repro.core.embodied import EmbodiedModel
from repro.core.operational import OperationalModel
from repro.core.vectorized import (
    batch_embodied_mt,
    batch_operational_mt,
    fleet_frame,
)


def test_throughput_serial_fleet(benchmark, study):
    ez = EasyC()
    records = list(study.public_records)
    assessments = benchmark(ez.assess_fleet, records)
    assert len(assessments) == 500


def test_throughput_scalar_fleet(benchmark, study):
    ez = EasyC()
    records = list(study.public_records)
    assessments = benchmark(ez.assess_fleet, records, engine="scalar")
    assert len(assessments) == 500


def _scenario_grid_64():
    """The acceptance sweep: 4 ACI x 4 PUE x 4 utilization = 64."""
    return scenarios.ScenarioGrid.cartesian(
        scenarios.aci_scale_axis((1.0, 0.9, 0.8, 0.7)),
        scenarios.pue_axis((1.0, 1.1, 1.2, 1.3)),
        scenarios.utilization_axis((0.5, 0.65, 0.8, 0.95)),
    ).specs()


def test_throughput_scenario_sweep_64(benchmark, study):
    """64 scenarios over the 500-system study as one 2-D kernel."""
    records = list(study.public_records)
    frame = fleet_frame(records)
    specs = _scenario_grid_64()

    cube = benchmark(lambda: scenarios.sweep(records, specs, frame=frame))
    assert cube.operational_mt.shape == (64, 500)
    assert cube.n_covered(0, "operational") == 490


def test_throughput_mc_bands(benchmark, study):
    """The whole 64-scenario band table from one batched draw.

    Pinned to ``method="serial"`` so the timing measures the in-process
    kernel on every host (the same machine-normalization reasoning as
    the gated ``mc_bands`` metric below).
    """
    records = list(study.public_records)
    cube = scenarios.sweep(records, _scenario_grid_64(),
                           frame=fleet_frame(records))
    stack = benchmark(lambda: cube.band_stack("operational",
                                              n_samples=1000,
                                              method="serial"))
    assert stack.shape == (64,)


def test_throughput_study_end_to_end(benchmark, dataset):
    from repro.study import Top500CarbonStudy

    def run():
        result = Top500CarbonStudy().run(dataset)
        # Force the lazily derived aggregates too.
        result.fig7
        result.op_sensitivity
        return result

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.public_coverage.operational.n_covered == 490


def test_throughput_engine_speedup(dataset, save_artifact, results_dir):
    """The acceptance guard: the vectorized study beats the scalar
    reference path, and the measured numbers are emitted as the
    ``BENCH_throughput.json`` baseline for future PRs."""
    from repro.study import Top500CarbonStudy

    def run(engine):
        result = Top500CarbonStudy(engine=engine).run(dataset)
        result.fig7
        result.op_sensitivity
        return result

    def best_of(engine, rounds=7):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            run(engine)
            times.append(time.perf_counter() - start)
        return min(times), statistics.median(times)

    run("vectorized")              # warm caches (views, frames, enrichment)
    run("scalar")
    vec_min, vec_med = best_of("vectorized")
    sca_min, sca_med = best_of("scalar")
    speedup = sca_min / vec_min

    # --- scenario-sweep acceptance: 64 scenarios, one 2-D kernel -------
    study = Top500CarbonStudy().run(dataset)
    records = list(study.public_records)
    frame = fleet_frame(records)
    specs = _scenario_grid_64()
    base_op, base_emb = OperationalModel(), EmbodiedModel()

    def batch_loop():
        """The status quo ante: a Python loop over batch_*_mt calls."""
        op = [batch_operational_mt(records, s.operational_model(base_op),
                                   frame=frame) for s in specs]
        emb = [batch_embodied_mt(records, s.embodied_model(base_emb),
                                 frame=frame) for s in specs]
        return np.stack(op), np.stack(emb)

    cube = scenarios.sweep(records, specs, frame=frame)   # warm
    loop_op, loop_emb = batch_loop()
    assert np.array_equal(cube.operational_mt, loop_op, equal_nan=True)
    assert np.array_equal(cube.embodied_mt, loop_emb, equal_nan=True)

    def best_of_fn(fn, rounds=7):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    kernel_s = best_of_fn(lambda: scenarios.sweep(records, specs,
                                                  frame=frame))
    loop_s = best_of_fn(batch_loop)
    sweep_speedup = loop_s / kernel_s

    # --- MC band acceptance: 64 scenarios x 7 years, one draw kernel ---
    from repro.projection.engine import project_sweep
    from repro.uncertainty.mc import band_scalar_reference

    proj = project_sweep(records, specs, frame=frame)
    mc_samples = 4000

    def band_loop():
        """The status quo ante: one RNG setup and one (S, n) value
        materialization per (scenario, year) band — what the Fig. 10
        band tables and ``ScenarioCube.bands()`` did before the
        batched engine."""
        return [band_scalar_reference(proj.values("operational", year)[s],
                                      proj.uncertainty("operational")[s],
                                      n_samples=mc_samples)
                for s in range(proj.n_scenarios) for year in proj.years]

    def band_kernel():
        # method="serial": the gated ratio isolates the batching win
        # (one stream walk + fused per-cell arithmetic) from thread
        # parallelism, so it stays machine-normalized like the other
        # gated speedups — docs/uncertainty.md makes the same claim.
        return proj.band_stack("operational", n_samples=mc_samples,
                               method="serial")

    stack = band_kernel()                                # warm
    loop_bands = band_loop()
    for s in range(proj.n_scenarios):                    # bit-identity
        for yi in range(proj.n_years):
            assert stack.band(s, yi) == loop_bands[s * proj.n_years + yi]

    bands_kernel_s = best_of_fn(band_kernel, rounds=3)
    bands_loop_s = best_of_fn(band_loop, rounds=2)
    mc_speedup = bands_loop_s / bands_kernel_s

    # BENCH_throughput.json is shared with bench_projection.py (the
    # "projection_sweep" key): merge over the existing file so neither
    # bench clobbers the other's recorded metrics.
    existing_path = results_dir / "BENCH_throughput.json"
    baseline = {}
    if existing_path.exists():
        baseline = json.loads(existing_path.read_text(encoding="utf-8"))
    baseline |= {
        "benchmark": "test_throughput_study_end_to_end",
        "n_systems": 500,
        "vectorized_study_ms": {"min": vec_min * 1e3, "median": vec_med * 1e3},
        "scalar_study_ms": {"min": sca_min * 1e3, "median": sca_med * 1e3},
        "speedup_vs_scalar_engine": speedup,
        "scenario_sweep": {
            "n_scenarios": len(specs),
            "kernel_ms": kernel_s * 1e3,
            "batch_loop_ms": loop_s * 1e3,
            "speedup_vs_batch_loop": sweep_speedup,
        },
        "mc_bands": {
            "n_scenarios": proj.n_scenarios,
            "n_years": proj.n_years,
            "n_samples": mc_samples,
            "kernel_ms": bands_kernel_s * 1e3,
            "band_loop_ms": bands_loop_s * 1e3,
            "speedup_vs_band_loop": mc_speedup,
        },
        "note": ("scalar engine here already shares the interned audit "
                 "notes and memoized record views; against the original "
                 "per-record path (pre-FleetFrame) the same workload "
                 "measured ~5x.  scenario_sweep compares the repro."
                 "scenarios 2-D kernel against the per-scenario loop "
                 "over batch_*_mt it replaced; mc_bands compares the "
                 "batched Monte-Carlo band kernel against the "
                 "per-(scenario, year) reference draw loop on the "
                 "64x7 projection band table."),
    }
    save_artifact("BENCH_throughput.json", json.dumps(baseline, indent=2))

    # Span-summary sidecar: one traced pass of each measured kernel,
    # aggregated per span name — the per-stage breakdown behind the
    # headline ratios (tracing observes only; the timed rounds above
    # all ran untraced).
    from repro import obs
    with obs.capture() as trace:
        scenarios.sweep(records, specs, frame=frame)
        proj.band_stack("operational", n_samples=mc_samples,
                        method="serial")
    save_artifact("BENCH_throughput_spans.json", json.dumps({
        "benchmark": "bench_throughput",
        "traced_pass": "scenario sweep (64 specs) + serial band stack "
                       "(64x7 cells x 4000 draws)",
        "spans": obs.summarize(trace.records),
    }, indent=2))

    # The columnar engine must clearly beat per-record dispatch on the
    # study, the 2-D sweep kernel must clearly beat the per-scenario
    # batch loop, and the batched band kernel must clearly beat the
    # per-cell draw loop.  Typically measured ~3x / ~5x / ~5x; the
    # asserted floors are generous because this also runs in CI's
    # --benchmark-disable smoke step on noisy shared runners — the real
    # numbers live in the JSON baseline (the ISSUE-5 >=5x acceptance is
    # recorded there and regression-gated by
    # check_throughput_regression.py).
    assert speedup > 1.5, baseline
    assert sweep_speedup > 1.5, baseline
    assert mc_speedup > 1.5, baseline
