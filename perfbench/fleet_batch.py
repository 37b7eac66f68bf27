"""Workload ``fleet-batch``: a planner evaluating a large portfolio.

Closed loop in one warm process (``fleet_worker.py``): every pass takes
a fresh seeded portfolio of ``FLEET_N`` systems (about ten times the
Top500) and runs the sweep, projection, shift, Monte-Carlo band and
rendering layers over it.  The kernels, the band engine and the worker
pool do the work; imports and HTTP do none.
"""

from __future__ import annotations

import json
import time

from common import Ctx, Result, describe, median, python, tail

FLEET_N = 5000
SMOKE_N = 300


def _spawn_worker(ctx: Ctx, config: dict, name: str, timeout: float):
    out = ctx.runenv.dir / f"{name}.json"
    config = dict(config, spawn_wall=time.time())
    code, wall, _, _ = ctx.runenv.procs.run(
        [python(), "perfbench/fleet_worker.py", json.dumps(config), str(out)],
        env=ctx.runenv.env(), cwd=ctx.root, timeout=timeout)
    if code != 0:
        return None
    try:
        return json.loads(out.read_text())
    except (OSError, ValueError):
        return None


def run(ctx: Ctx) -> Result:
    res = Result()
    n = SMOKE_N if ctx.smoke else FLEET_N
    base = {"n": n, "seed": ctx.seed, "trace": ctx.trace}

    # -- setup: fresh interpreter to "first pass can start", several times
    setups = []
    for k in range(1 if ctx.smoke else 2):
        got = _spawn_worker(ctx, dict(base, setup_only=True), f"setup-{k}",
                            timeout=60.0)
        res.attempted += 1
        if got is None:
            res.failed += 1
        else:
            setups.append(got["setup_s"])

    config = dict(base, seconds=0 if ctx.smoke else ctx.seconds,
                  min_passes=2 if ctx.smoke else (4 if ctx.trace else 3),
                  max_passes=2 if ctx.smoke else 10 ** 6)
    got = _spawn_worker(ctx, config, "worker",
                        timeout=max(ctx.time_left() - 10.0, 5.0))
    if got is None:
        res.attempted += 1
        res.failed += 1
        res.check("worker-completed", False)
        res.e2e["setup_s"] = median(setups)
        return res
    setups.append(got["setup_s"])
    res.e2e["setup_s"] = median(setups)

    passes = got["passes"]
    res.attempted += len(passes)
    for name, ok in got["checks"].items():
        res.check(name, ok)
    timed = [p for p in passes if not p["traced"]]
    ms = [p["wall_s"] * 1e3 for p in timed]
    res.e2e["latency_p50_ms"] = median(ms)
    res.e2e["latency_tail_ms"] = tail(ms)[0]
    res.e2e["cpu_ms_per_op"] = median([p["cpu_s"] * 1e3 for p in timed])
    res.e2e["peak_rss_mb"] = got["peak_rss_mb"]
    res.info["latency"] = describe(ms)
    res.info["passes"] = len(passes)
    res.info["setup_samples_s"] = setups

    if ctx.trace:
        traced = [p for p in passes if p["traced"]]
        selfs = got["self_times"]
        for span, key in (("frame.extract", "frame.extract_ms"),
                          ("sweep.kernel", "sweep.kernel_ms"),
                          ("project.sweep", "project.sweep_ms"),
                          ("shift.sweep", "shift.sweep_ms"),
                          ("mc.band_stack", "mc.band_stack_ms"),
                          ("render.table", "render.table_ms"),
                          ("persist.npz", "persist.npz_ms"),
                          ("fleet.pass", "fleet.unattributed_ms")):
            res.layers[key] = median(selfs.get(span, [])) * 1e3
        res.layers["fleet.trace_overhead_ms"] = (
            median([p["wall_s"] for p in traced])
            - median([p["wall_s"] for p in timed])) * 1e3

        def per_pass(fn):
            return median([fn(p) for p in traced])

        sweep_ms = res.layers["sweep.kernel_ms"]
        res.layers["sweep.ns_per_cell"] = (
            sweep_ms * 1e6 / traced[0]["n_cells_sweep"])
        res.layers["cache.frame_misses"] = per_pass(
            lambda p: p["counters"]["cache.frame_misses"])
        res.layers["cache.lowering_hit_ratio"] = per_pass(
            lambda p: p["counters"]["cache.lowering_hits"] / max(
                p["counters"]["cache.lowering_hits"]
                + p["counters"]["cache.lowering_misses"], 1))
        draws = per_pass(lambda p: p["draws"])
        res.layers["mc.draws"] = draws
        res.layers["mc.ns_per_draw"] = (
            res.layers["mc.band_stack_ms"] * 1e6 / draws)
        # Computed: every draw is one float64 written by the generator and
        # touched by the multiply, add, clip and row-sum passes.
        res.layers["mc.bytes_moved_mb"] = draws * 8 * 5 / 1e6
        res.layers["fanout.blocks_dispatched"] = per_pass(
            lambda p: p["counters"]["fanout.blocks_dispatched"])
        res.layers["fanout.retry_ratio"] = per_pass(
            lambda p: p["counters"]["fanout.blocks_retried"] / max(
                p["counters"]["fanout.blocks_dispatched"], 1))
        res.layers["pool.rebuilds"] = sum(
            p["counters"]["pool.rebuilds"] for p in passes)
        res.layers["shm.bytes_placed"] = per_pass(
            lambda p: p["counters"]["shm.bytes_placed"])
        res.layers["parallel.children"] = max(p["children"] for p in passes)
        spans_out = ctx.root / ".bench_tmp" / "traces" / f"fleet-batch-seed{ctx.seed}.jsonl"
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_out, "w") as fh:
            for s in got["spans"]:
                fh.write(json.dumps(s) + "\n")
    return res
