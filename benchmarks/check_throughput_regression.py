"""Fail CI when the throughput or scaling baselines regress.

Compares a freshly measured ``BENCH_throughput.json`` against the
committed baseline.  Raw wall-clock differs across runner hardware, so
the gate uses the *machine-normalized* metrics — speedup ratios
measured within one process on one machine:

* ``speedup_vs_scalar_engine`` — the vectorized study against the
  scalar reference engine;
* ``scenario_sweep.speedup_vs_batch_loop`` — the 2-D sweep kernel
  against the per-scenario batch loop it replaced;
* ``projection_sweep.speedup_vs_per_year_loop`` — the temporal
  projection engine (one base sweep + factorized year axis) against
  re-running the 2-D sweep per projected year;
* ``shift_sweep.speedup_vs_per_window_loop`` — the hour-axis
  load-shifting engine (one base sweep + factorized hour-window axis)
  against re-running the 2-D sweep per hour window;
* ``mc_bands.speedup_vs_band_loop`` — the batched Monte-Carlo band
  kernel (one stream draw for the whole (scenario × year) stack)
  against the per-cell reference draw loop it replaced.

A metric fails when it drops more than ``--max-regression`` (default
20 %) below the committed value.  Metrics absent from the committed
baseline are reported but never fail (so new metrics can land in the
same PR that introduces them).

Every current file must be a fresh measurement: the gate fails when a
current file is missing or not JSON, lacks a gated metric, or is
byte-identical to its baseline (a benchmark that failed before writing
leaves the committed file in place, which would otherwise be compared
with itself and pass).

With ``--scaling-baseline``/``--scaling-current`` the gate also reads
``BENCH_scaling.json`` (the Monte-Carlo band fan-out, serial kernel vs
threads) and checks ``threads_vs_serial`` at the curve's gate shape
(recorded as ``gate_shape``) against the committed value only
(``--scaling-max-regression``, default 50 % — cross-machine ratio
variance is larger than same-engine variance; the ratio exceeds 1.0
only on multi-core runners, so an absolute floor would be machine
policy, not a regression check).  Scaling checks are skipped
(reported, not failed) when the measuring runner had fewer than two
CPUs.

With ``--serve-baseline``/``--serve-current`` the gate also reads
``BENCH_serve.json`` (the ``repro serve`` daemon benchmark) and checks
four machine-normalized ratios against the committed values, at
``--serve-max-regression`` tolerance (default 50 % — these ratios mix
HTTP overhead with kernel time, so cross-machine variance is wide):

* ``warm_vs_cold_speedup`` — a cached response against the cold
  kernel run that produced it;
* ``coalesced.speedup_vs_serial`` — N concurrent coalesced requests
  against the same N issued back-to-back;
* ``keepalive.speedup_vs_close`` — one persistent connection against
  a fresh connection per request (also held to an *absolute* 1.3x
  floor, the scale-out acceptance criterion);
* ``l2_warm_restart.speedup_vs_cold`` — a restarted daemon's shared-L2
  hit against the cold kernel run (plus a lower-is-better latency
  ceiling on ``l2_warm_restart.hit_ms.p50``).

Usage::

    python benchmarks/check_throughput_regression.py \
        baseline.json results/BENCH_throughput.json \
        [--max-regression 0.20] \
        [--scaling-baseline scaling_baseline.json \
         --scaling-current results/BENCH_scaling.json] \
        [--serve-baseline serve_baseline.json \
         --serve-current results/BENCH_serve.json]
"""

from __future__ import annotations

import argparse
import json
import sys


def _metric(data: dict, dotted: str) -> float | None:
    node = data
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


METRICS = (
    "speedup_vs_scalar_engine",
    "scenario_sweep.speedup_vs_batch_loop",
    "projection_sweep.speedup_vs_per_year_loop",
    "shift_sweep.speedup_vs_per_window_loop",
    "mc_bands.speedup_vs_band_loop",
)

SERVE_METRICS = (
    "warm_vs_cold_speedup",
    "coalesced.speedup_vs_serial",
    "keepalive.speedup_vs_close",
    "l2_warm_restart.speedup_vs_cold",
)

#: Absolute floor for keep-alive vs per-request connections — the
#: scale-out acceptance criterion, enforced regardless of the
#: committed value (the benchmark itself asserts it too).
KEEPALIVE_FLOOR = 1.3


def _check_ratios(baseline: dict, current: dict, metrics: tuple[str, ...],
                  max_regression: float, prefix: str,
                  failures: list[str]) -> None:
    for name in metrics:
        base = _metric(baseline, name)
        new = _metric(current, name)
        label = f"{prefix}{name}"
        if new is None:
            failures.append(f"{label}: missing from current measurement")
            continue
        if base is None:
            print(f"  {label}: no committed baseline (current: {new}) — skip")
            continue
        floor = base * (1.0 - max_regression)
        status = "OK" if new >= floor else "REGRESSION"
        print(f"  {label}: baseline {base:.2f} -> current {new:.2f} "
              f"(floor {floor:.2f}) {status}")
        if new < floor:
            failures.append(
                f"{label} regressed >{max_regression:.0%}: "
                f"{base:.2f} -> {new:.2f}")


def _check_serve_floors(current: dict, max_regression: float,
                        baseline: dict, failures: list[str]) -> None:
    """Serve checks beyond simple ratio regression.

    * ``keepalive.speedup_vs_close`` has an *absolute* floor
      (:data:`KEEPALIVE_FLOOR`) — persistent connections that no
      longer beat per-request connections mean the keep-alive loop is
      broken, whatever the committed baseline says.
    * ``l2_warm_restart.hit_ms.p50`` is lower-is-better, so the ratio
      gate cannot express it: it fails when the restart-hit latency
      *grows* past ``1 / (1 - max_regression)`` of the committed value.
    """
    keepalive = _metric(current, "keepalive.speedup_vs_close")
    if keepalive is not None:   # its absence already failed the ratios
        status = "OK" if keepalive >= KEEPALIVE_FLOOR else "BELOW FLOOR"
        print(f"  serve.keepalive.speedup_vs_close: {keepalive:.2f} "
              f"(absolute floor {KEEPALIVE_FLOOR:.2f}) {status}")
        if keepalive < KEEPALIVE_FLOOR:
            failures.append(
                f"serve: keepalive speedup {keepalive:.2f} is below the "
                f"{KEEPALIVE_FLOOR:.1f}x acceptance floor")

    committed_ms = _metric(baseline, "l2_warm_restart.hit_ms.p50")
    measured_ms = _metric(current, "l2_warm_restart.hit_ms.p50")
    if measured_ms is None:
        failures.append("serve: l2_warm_restart.hit_ms.p50 missing from "
                        "current measurement")
    elif committed_ms is None:
        print(f"  serve.l2_warm_restart.hit_ms.p50: no committed baseline "
              f"(current: {measured_ms}) — skip")
    else:
        ceiling = committed_ms / (1.0 - max_regression)
        status = "OK" if measured_ms <= ceiling else "REGRESSION"
        print(f"  serve.l2_warm_restart.hit_ms.p50: baseline "
              f"{committed_ms:.2f}ms -> current {measured_ms:.2f}ms "
              f"(ceiling {ceiling:.2f}ms) {status}")
        if measured_ms > ceiling:
            failures.append(
                f"serve: L2 warm-restart hit latency grew "
                f"{committed_ms:.2f}ms -> {measured_ms:.2f}ms "
                f"(ceiling {ceiling:.2f}ms)")


def _curve_point(data: dict, shape: str) -> dict | None:
    for point in data.get("curve", ()):
        if point.get("shape") == shape:
            return point
    return None


def _check_scaling(baseline: dict, current: dict, max_regression: float,
                   failures: list[str]) -> None:
    """Gate the band fan-out's threads-vs-serial ratio at its gate shape."""
    if (current.get("cpu_count") or 1) < 2:
        print("  scaling: runner has fewer than two CPUs — skip")
        return
    shape = current.get("gate_shape")
    cur = _curve_point(current, shape)
    if cur is None:
        failures.append(f"scaling: no {shape!r} point in current curve")
        return
    committed = (_curve_point(baseline, shape) or {}).get(
        "threads_vs_serial")
    measured = cur.get("threads_vs_serial")
    label = f"scaling.threads_vs_serial@{shape}"
    if measured is None:
        failures.append(f"{label}: missing from current measurement")
        return
    if committed is None:
        print(f"  {label}: no committed baseline (current: {measured}) "
              "— skip")
        return
    limit = committed * (1.0 - max_regression)
    status = "OK" if measured >= limit else "REGRESSION"
    print(f"  {label}: baseline {committed:.2f} -> current {measured:.2f} "
          f"(floor {limit:.2f}) {status}")
    if measured < limit:
        failures.append(
            f"{label} regressed >{max_regression:.0%}: "
            f"{committed:.2f} -> {measured:.2f}")


def _read_pair(baseline_path: str | None, current_path: str, label: str,
               failures: list[str]) -> tuple[dict, dict] | None:
    """``(baseline, current)`` JSON, or None once ``failures`` says why
    the current file is no fresh measurement."""
    try:
        with open(current_path, "rb") as fh:
            current_raw = fh.read()
        current = json.loads(current_raw)
    except (OSError, ValueError) as exc:
        failures.append(f"{label}: no readable current result at "
                        f"{current_path} ({exc})")
        return None
    baseline = {}
    if baseline_path:
        with open(baseline_path, "rb") as fh:
            baseline_raw = fh.read()
        if baseline_raw == current_raw:
            failures.append(f"{label}: {current_path} is byte-identical to "
                            f"the baseline {baseline_path}; the benchmark "
                            "wrote no fresh result")
            return None
        baseline = json.loads(baseline_raw)
    return baseline, current


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_throughput.json")
    parser.add_argument("current", help="freshly measured BENCH_throughput.json")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="tolerated fractional drop (default 0.20)")
    parser.add_argument("--scaling-baseline",
                        help="committed BENCH_scaling.json")
    parser.add_argument("--scaling-current",
                        help="freshly measured BENCH_scaling.json")
    parser.add_argument("--scaling-max-regression", type=float, default=0.50,
                        help="tolerated fractional drop for scaling "
                             "speedups (default 0.50)")
    parser.add_argument("--serve-baseline",
                        help="committed BENCH_serve.json")
    parser.add_argument("--serve-current",
                        help="freshly measured BENCH_serve.json")
    parser.add_argument("--serve-max-regression", type=float, default=0.50,
                        help="tolerated fractional drop for serve "
                             "speedups (default 0.50)")
    args = parser.parse_args(argv)

    failures: list[str] = []
    pair = _read_pair(args.baseline, args.current, "throughput", failures)
    if pair is not None:
        _check_ratios(*pair, METRICS, args.max_regression, "", failures)

    if args.serve_current:
        pair = _read_pair(args.serve_baseline, args.serve_current, "serve",
                          failures)
        if pair is not None:
            serve_baseline, serve_current = pair
            _check_ratios(serve_baseline, serve_current, SERVE_METRICS,
                          args.serve_max_regression, "serve.", failures)
            _check_serve_floors(serve_current, args.serve_max_regression,
                                serve_baseline, failures)

    if args.scaling_current:
        pair = _read_pair(args.scaling_baseline, args.scaling_current,
                          "scaling", failures)
        if pair is not None:
            _check_scaling(*pair, args.scaling_max_regression, failures)

    if failures:
        print("\nthroughput regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("throughput regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
