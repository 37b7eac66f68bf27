"""Workload ``cli-cold``: what an analyst waits for.

Closed loop, one client.  Every operation is a fresh interpreter
running ``python -m repro <command>`` over the Top500 study; each cycle
runs ``CYCLE`` in an order drawn from the seed.  Only whole cycles are
run, so every command keeps its weight in the percentiles whatever the
host speed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

from common import Ctx, Result, describe, median, python, tail

COMMANDS: dict[str, list[str]] = {
    "help": ["--help"],
    "fleet": ["fleet", "doe-like"],
    "scenarios": ["scenarios", "--grid", "acceptance"],
    "project": ["project", "--scenarios", "--op-growth", "0.05,0.103",
                "--decarbonize", "0,0.05"],
    "shift": ["shift"],
    "report": ["report"],
}

#: One cycle of the closed loop.  ``scenarios --grid acceptance`` (the
#: headline sweep) runs twice: with an odd count of operations per cycle
#: the median falls inside one command's samples instead of between the
#: third- and fourth-fastest commands, whose order the host's speed
#: drift can swap.
CYCLE = ("help", "fleet", "scenarios", "scenarios", "project", "shift",
         "report")

#: The command a fresh run environment starts with (``setup_s``).
SETUP_COMMAND = "scenarios"

#: Strings the ``report`` output must contain (the paper's anchors).
REPORT_ANCHORS = ("1,369.9", "+670,481", "El Capitan")

OP_TIMEOUT_S = 60.0


def _invoke(ctx: Ctx, name: str, env, out_path, traced: bool):
    """One cold invocation; returns (code, wall_s, cpu_s, rss_mb, spans)."""
    spans_path = out_path.with_suffix(".spans.json")
    if traced:
        argv = [python(), "perfbench/cli_probe.py", str(spans_path)]
    else:
        argv = [python(), "-m", "repro"]
    argv += COMMANDS[name]
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        code, wall, cpu, rss = ctx.runenv.procs.run(
            argv, env=env, cwd=ctx.root, stdout=out,
            timeout=min(OP_TIMEOUT_S, max(ctx.time_left() - 5.0, 1.0)))
    spans = None
    if traced and code == 0:
        try:
            spans = json.loads(spans_path.read_text())
        except (OSError, ValueError):
            spans = None
    return code, wall, cpu, rss, start, spans


def _interp_floor(ctx: Ctx, env, snippet: str, n: int) -> float:
    walls = []
    for _ in range(n):
        code, wall, _, _ = ctx.runenv.procs.run(
            [python(), "-c", snippet], env=env, cwd=ctx.root, timeout=30.0)
        if code == 0:
            walls.append(wall)
    return median(walls) * 1e3


def run(ctx: Ctx) -> Result:
    res = Result()
    rng = random.Random(ctx.seed)
    outdir = ctx.runenv.fresh_dir("cli-out")
    tracer = ctx.tracer

    # -- setup: the first invocation in each of several fresh environments
    n_setup = 1 if ctx.smoke else 5
    setups = []
    env = None
    for k in range(n_setup):
        env = ctx.runenv.env(ctx.runenv.fresh_dir(f"setup-{k}"))
        code, wall, _, _, _, _ = _invoke(ctx, SETUP_COMMAND, env,
                                         outdir / f"setup-{k}.txt", False)
        res.attempted += 1
        if code != 0:
            res.failed += 1
        setups.append(wall)
    res.e2e["setup_s"] = median(setups)

    # -- the measured loop, in the last (now warm) environment
    digests: dict[str, set] = {name: set() for name in COMMANDS}
    walls: dict[str, list[float]] = {name: [] for name in COMMANDS}
    all_walls: list[float] = []
    cpus: list[float] = []
    rss_peak = 0.0
    overheads: list[float] = []
    layer_self: dict[str, list[float]] = {}
    unattributed: list[float] = []
    report_text = ""
    start = time.monotonic()
    cycles = 0
    budget = 1 if ctx.smoke else None
    while True:
        if budget is not None and cycles >= budget:
            break
        if budget is None and cycles and (
                time.monotonic() - start >= ctx.seconds
                or ctx.time_left() < 40.0):
            break
        order = list(CYCLE)
        rng.shuffle(order)
        for slot, name in enumerate(order):
            modes = [False, True] if ctx.trace else [False]
            if ctx.trace and rng.random() < 0.5:
                modes.reverse()
            pair = {}
            for traced in modes:
                path = outdir / f"{cycles}-{slot}-{int(traced)}.txt"
                tracer.op += 1
                code, wall, cpu, rss, t_start, spans = _invoke(
                    ctx, name, env, path, traced)
                if not traced:
                    res.attempted += 1
                ok = code == 0
                data = path.read_bytes() if ok else b""
                digest = hashlib.sha256(data).hexdigest()
                digests[name].add(digest)
                if not ok:
                    res.failed += int(not traced)
                    res.check(f"exit0:{name}", False)
                    continue
                if traced:
                    pair[True] = wall
                    root = tracer.add("cli.op", t_start, t_start + wall)
                    probe = spans or {"t0": t_start, "spans": []}
                    covered = 0.0
                    # Spawn to the probe's first statement: process start
                    # and interpreter initialization.
                    for sname, s0, s1 in ([["interp.start", t_start,
                                            probe["t0"]]] + probe["spans"]):
                        tracer.add(sname, s0, s1, parent=root)
                        layer_self.setdefault(sname, []).append(s1 - s0)
                        covered += s1 - s0
                    unattributed.append(wall - covered)
                    continue
                pair[False] = wall
                walls[name].append(wall)
                all_walls.append(wall)
                cpus.append(cpu)
                rss_peak = max(rss_peak, rss)
                if name == "report":
                    report_text = data.decode("utf-8", "replace")
            if len(pair) == 2:
                overheads.append(pair[True] - pair[False])
        cycles += 1

    # -- output checks (untimed)
    for name, seen in digests.items():
        res.check(f"deterministic:{name}", len(seen) <= 1)
    res.check("report-anchors",
              all(anchor in report_text for anchor in REPORT_ANCHORS))

    ms = [w * 1e3 for w in all_walls]
    res.e2e["latency_p50_ms"] = median(ms)
    res.e2e["latency_tail_ms"] = tail(ms)[0]
    res.e2e["cpu_ms_per_op"] = (sum(cpus) / len(cpus) * 1e3) if cpus else float("nan")
    res.e2e["peak_rss_mb"] = rss_peak
    res.info["latency"] = describe(ms)
    res.info["cycles"] = cycles
    res.info["setup_samples_s"] = setups
    res.info["per_command_ms"] = {n: median(w) * 1e3 for n, w in walls.items()}
    res.info["digests"] = {n: sorted(d)[0][:16] if d else None
                           for n, d in digests.items()}

    if ctx.trace:
        floor_env = env
        n = 1 if ctx.smoke else 3
        res.layers["interp.startup_ms"] = _interp_floor(ctx, floor_env, "pass", n)
        res.layers["import.numpy_ms"] = _interp_floor(
            ctx, floor_env, "import numpy", n) - res.layers["interp.startup_ms"]
        for sname, key in (("cli.import", "cli.import_ms"),
                           ("cli.dispatch", "cli.dispatch_ms"),
                           ("data.generate", "data.generate_ms"),
                           ("study.run", "study.run_ms")):
            res.layers[key] = median(layer_self.get(sname, [])) * 1e3
        res.layers["cli.unattributed_ms"] = median(unattributed) * 1e3
        for name, w in walls.items():
            res.layers[f"cli.{name}_ms"] = median(w) * 1e3
        res.layers["cli.trace_overhead_ms"] = median(overheads) * 1e3
    return res
