"""The warm process of workload ``fleet-batch``.

Run as ``python perfbench/fleet_worker.py CONFIG_JSON RESULT_PATH`` with the
program on ``PYTHONPATH``.  It sets up (imports, the Top500 dataset and
study, the first worker-pool build), then runs passes in a closed loop
until its time is up.  Each pass takes a fresh seeded portfolio from
``repro.data.synth_fleet`` (untimed input generation) and runs:

1. ``repro.scenarios.sweep`` over the 64-scenario acceptance grid;
2. ``repro.projection.project_sweep`` over 64 scenarios x 7 years;
3. ``repro.scenarios.shift_sweep`` over a load-shifting family;
4. ``repro.uncertainty.mc.mc_band_stack`` with the default method;
5. table rendering through ``repro.reporting.figures``;
6. ``save_npz`` + ``load_npz`` of the scenario cube.

With ``trace`` set, passes alternate between running without and with
spans, so the tracing overhead can be reported.  After the loop it
checks a fixed slice of the last pass against the scalar references.
Results go to RESULT_PATH as JSON.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import Tracer, children_of, cpu_seconds  # noqa: E402

#: Systems checked against the scalar references after the loop.
CHECK_SLICE = 48
#: Band cells checked against the per-cell reference draw.
CHECK_CELLS = (0, 21, 63)
#: Monte-Carlo draws per band cell.
N_SAMPLES = 1000
YEARS = tuple(range(2024, 2031))

#: Program counters whose per-pass deltas feed the per-layer metrics.
COUNTERS = ("cache.frame_misses", "cache.lowering_hits",
            "cache.lowering_misses", "fanout.blocks_dispatched",
            "fanout.blocks_retried", "pool.rebuilds", "shm.bytes_placed")


def main() -> int:
    config = json.loads(sys.argv[1])
    out_path = Path(sys.argv[2])
    spawn_wall = float(config["spawn_wall"])

    import numpy as np

    import repro.data
    import repro.study
    from repro import obs, scenarios
    from repro.core import vectorized
    from repro.grid.intervals import synthetic_diurnal
    from repro.projection import project_scalar_reference, project_sweep
    from repro.reporting import figures
    from repro.uncertainty import mc

    repro.data.default_dataset()
    repro.study.run_default_study()
    # The first pool build, through the public band engine.
    mc.mc_band_stack(np.ones((2, 4)), np.full((2, 4), 0.1), n_samples=8,
                     method="shm")
    setup_s = time.time() - spawn_wall
    result = {"setup_s": setup_s, "passes": []}
    if config.get("setup_only"):
        out_path.write_text(json.dumps(result))
        return 0

    accept = scenarios.ScenarioGrid.cartesian(
        scenarios.aci_scale_axis((1.0, 0.9, 0.8, 0.7)),
        scenarios.pue_axis((1.0, 1.1, 1.2, 1.3)),
        scenarios.utilization_axis((0.5, 0.65, 0.8, 0.95))).specs()
    family = (scenarios.baseline_spec(),
              *scenarios.greenest_hours_axis((6, 12)),
              *scenarios.offpeak_shift_axis((0.25, 0.5)))
    shift_specs = scenarios.ScenarioGrid.cartesian(
        scenarios.aci_scale_axis((1.0, 0.8)), family).specs()
    profile = synthetic_diurnal(1.0, amplitude=0.25, peak_hour=19.0)
    npz_path = Path(os.environ.get("TMPDIR", ".")) / "fleet-cube.npz"

    n = int(config["n"])
    seconds = float(config["seconds"])
    min_passes = int(config.get("min_passes", 1))
    max_passes = int(config.get("max_passes", 10 ** 6))
    trace = bool(config.get("trace"))
    tracer = Tracer(True)

    last = None
    loop_start = time.monotonic()
    i = 0
    while i < max_passes and (i < min_passes
                              or time.monotonic() - loop_start < seconds):
        records = repro.data.synth_fleet(n, seed=int(config["seed"]) * 7919 + i)
        traced = trace and i % 2 == 1
        tracer.enabled = traced
        tracer.op = i
        before = obs.metrics_snapshot()
        cpu0 = cpu_seconds(os.getpid())
        t0 = time.perf_counter()
        with tracer.span("fleet.pass"):
            with tracer.span("frame.extract"):
                frame = vectorized.fleet_frame(records)
            with tracer.span("sweep.kernel"):
                cube = scenarios.sweep(records, accept, frame=frame)
            with tracer.span("project.sweep"):
                pcube = project_sweep(records, accept, years=YEARS,
                                      frame=frame)
            with tracer.span("shift.sweep"):
                scube = scenarios.shift_sweep(records, shift_specs,
                                              profile=profile, frame=frame)
            with tracer.span("mc.band_stack"):
                values = cube.values("operational")
                unc = cube.uncertainty("operational")
                stack = mc.mc_band_stack(values, unc, n_samples=N_SAMPLES)
            with tracer.span("render.table"):
                figures.cube_table(cube, ("operational", "embodied"))
                figures.figure10_cube(pcube)
                figures.shift_table(scube)
            with tracer.span("persist.npz"):
                cube.save_npz(npz_path)
                loaded = scenarios.ScenarioCube.load_npz(npz_path)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds(os.getpid()) - cpu0
        after = obs.metrics_snapshot()
        delta = {k: after.get(k, 0) - before.get(k, 0) for k in COUNTERS}
        covered = (~np.isnan(values)).sum(axis=1)
        result["passes"].append({
            "wall_s": wall, "cpu_s": cpu, "traced": traced,
            "counters": delta, "children": len(children_of(os.getpid())),
            "draws": int(covered.sum()) * N_SAMPLES,
            "n_cells_sweep": len(accept) * n,
            "npz_equal": bool(np.array_equal(loaded.values("operational"),
                                             values, equal_nan=True)),
        })
        last = (records, cube, pcube, scube, stack)
        i += 1

    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["spans"] = tracer.spans
    result["self_times"] = tracer.self_times()

    # -- output checks against the scalar references (untimed)
    records, cube, pcube, scube, stack = last
    part = records[:CHECK_SLICE]
    checks = {}
    ref = scenarios.sweep_scalar_reference(part, accept)
    checks["sweep"] = all(
        np.array_equal(cube.values(fp)[:, :CHECK_SLICE], ref.values(fp),
                       equal_nan=True)
        and np.array_equal(cube.uncertainty(fp)[:, :CHECK_SLICE],
                           ref.uncertainty(fp), equal_nan=True)
        for fp in ("operational", "embodied"))
    pref = project_scalar_reference(part, accept, years=YEARS)
    checks["project"] = (
        np.array_equal(pcube.values("operational")[..., :CHECK_SLICE],
                       pref.operational_mt, equal_nan=True)
        and np.array_equal(pcube.values("embodied")[..., :CHECK_SLICE],
                           pref.embodied_mt, equal_nan=True))
    sref = scenarios.shift_scalar_reference(part, shift_specs,
                                            profile=profile)
    checks["shift"] = (
        np.array_equal(scube.values("operational")[..., :CHECK_SLICE],
                       sref.operational_mt, equal_nan=True)
        and np.array_equal(scube.values("embodied")[..., :CHECK_SLICE],
                           sref.embodied_mt, equal_nan=True))
    values = cube.values("operational")
    unc = cube.uncertainty("operational")
    checks["bands"] = all(
        stack.band(c) == mc.band_scalar_reference(values[c], unc[c],
                                                  n_samples=N_SAMPLES)
        for c in CHECK_CELLS)
    checks["npz"] = all(p["npz_equal"] for p in result["passes"])
    result["checks"] = checks
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
