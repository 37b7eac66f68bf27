"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {cli-cold,fleet-batch,serve-mixed}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the repository root.  Informational lines (host facts, sample
counts, tail percentiles, leak counts) start with ``#``; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  ``--smoke`` runs a minimal size of the workload.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

WORKLOADS = ("cli-cold", "fleet-batch", "serve-mixed")

#: Hard wall limit for one run; operations still running then fail.
WALL_LIMIT_S = 170.0

#: End-to-end metrics every workload reports (``--trace 0``).
E2E_UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "cpu_ms_per_op": "ms", "peak_rss_mb": "MB",
}

#: End-to-end metrics only ``serve-mixed`` has.  Every workload's
#: untraced output must hold the same metric set, so these print on the
#: ``# info`` line of an untraced run and as per-layer metrics of a
#: traced one.
SERVE_UNITS = {
    "cached_p50_ms": "ms", "cached_tail_ms": "ms",
    "computed_p50_ms": "ms", "computed_tail_ms": "ms",
    "max_rate_rps": "req/s",
}


def layer_unit(name: str) -> str:
    """Per-layer units follow the metric name's suffix."""
    if name in SERVE_UNITS:
        return SERVE_UNITS[name]
    if name == "error_rate":
        return "ratio"
    for suffix, unit in (("_ms", "ms"), ("_per_req", "ms"), ("_s", "s"),
                         ("_mb", "MB"), ("ns_per_cell", "ns"),
                         ("ns_per_draw", "ns"), ("_ratio", "ratio"),
                         ("_mean", "ratio"), ("bytes_placed", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def _module(workload: str):
    import cli_cold
    import fleet_batch
    import serve_mixed
    return {"cli-cold": cli_cold, "fleet-batch": fleet_batch,
            "serve-mixed": serve_mixed}[workload]


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool, deadline: float):
    """One workload in its own fresh run environment; returns its Result."""
    env = common.RunEnv(root, workload)
    ctx = common.Ctx(root, seed, seconds, trace, smoke, env, deadline)
    try:
        res = _module(workload).run(ctx)
    finally:
        leaks = env.leaks()
        if ctx.tracer.spans:
            ctx.tracer.write(root / ".bench_tmp" / "traces"
                             / f"{workload}-seed{seed}-client.jsonl")
        env.remove()
    res.info["leaks"] = leaks
    res.layers.update(leaks)
    res.layers["error_rate"] = res.failed / max(res.attempted, 1)
    serve_only = {k: res.e2e.pop(k) for k in SERVE_UNITS if k in res.e2e}
    if serve_only:
        res.info["serve_metrics"] = serve_only
        res.layers.update(serve_only)
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal-size run (the benchmark's own test)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root "
              "(src/repro not found)", file=sys.stderr)
        return 2
    try:
        import numpy  # noqa: F401
    except ImportError:
        print("perfbench: numpy is required", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    start = time.monotonic()
    deadline = start + WALL_LIMIT_S

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded its {WALL_LIMIT_S:.0f} s wall limit")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(int(WALL_LIMIT_S) + 5)
    signal.signal(signal.SIGTERM, lambda s, f: on_alarm(s, f))

    facts = common.host_facts(root)
    cpu_before = common.cpu_times()
    # Bytecode is compiled once, untimed: users run installed packages.
    subprocess.run([common.python(), "-m", "compileall", "-q", "src"],
                   cwd=root, timeout=120.0, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)

    res = run_workload(root, args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke, deadline)
    if args.trace:
        # The other workloads' layers, from minimal-size traced runs.
        for other in WORKLOADS:
            if other == args.workload:
                continue
            extra = run_workload(root, other, args.seed, args.seconds,
                                 True, True, deadline)
            for name, value in extra.layers.items():
                if name.startswith("leak."):
                    res.layers[name] += value
                else:
                    res.layers.setdefault(name, value)
            res.checks.update({f"{other}:{k}": v
                               for k, v in extra.checks.items()})
            res.valid &= extra.valid
    signal.alarm(0)

    facts["loadavg_end"] = os.getloadavg()
    facts["cpu_steal_share"] = common.steal_share(cpu_before,
                                                  common.cpu_times())
    print("# host " + json.dumps(facts))
    print("# info " + json.dumps(res.info, default=str))
    print("# checks " + json.dumps(res.checks))
    attempted = max(res.attempted, 1)
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(res.layers.items())}
    else:
        metrics = {name: {"value": res.e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items() if name in res.e2e}
        print("# error_rate " + json.dumps(res.failed / attempted))
    print(json.dumps({"correct": res.correct, "attempted": attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
