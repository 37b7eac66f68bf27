"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``report``    — regenerate every table/figure (both paths) to stdout.
* ``assess``    — assess one system from command-line metrics.
* ``fleet``     — assess a built-in named fleet (access-like, doe-like,
  eurohpc-like).
* ``project``   — the 2024-2030 projection table; with ``--scenarios``
  a temporal sweep (growth-rate axes × decarbonization trajectories ×
  refresh schedules) through the (scenario × year × system) engine,
  over the Top500 study or a built-in fleet, with optional
  Monte-Carlo bands (``--bands``).
* ``scenarios`` — declarative scenario sweep (cartesian or zipped axes
  over ACI scale, PUE, utilization, lifetime, decarbonization years)
  through the 2-D kernel, over the Top500 study or a built-in fleet;
  renders whole cubes (``--footprint all``, ``--bands``) and persists
  or reloads them (``--save`` / ``--load``).
* ``shift``     — carbon-aware load-shifting sweep through the
  (scenario × hour-window × system) engine: synthetic or CSV-derived
  hour profiles, greenest-k / off-peak placement axes, optional
  Monte-Carlo bands; with a flat profile it reproduces ``scenarios``
  bit-identically (the annual-mean path).
* ``doctor``    — health report: the active fault plan, the L2 result
  cache and the process-lifetime activity counters; ``--json`` emits
  the stable machine schema the daemon's ``/readyz`` embeds.
* ``serve``     — the warm assessment daemon: coalescing HTTP service
  over the same kernels, with deadlines, backpressure, a circuit
  breaker, result caching, and graceful drain (``docs/serving.md``).
* ``profile``   — run any other subcommand under the span tracer and
  print the per-stage self/cumulative time table
  (``repro profile -- scenarios --grid acceptance``); ``scenarios``
  and ``project`` also take ``--trace PATH`` to stream span records
  as JSON-lines while printing the same table.

The CLI is a thin veneer over the library; everything it prints comes
from the same functions the benchmarks assert against.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import __version__, obs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Carbon footprint of HPC: Top 500 + EasyC reproduction")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("report", help="regenerate every table and figure")

    assess = sub.add_parser("assess", help="assess one system with EasyC")
    assess.add_argument("--name", default="system")
    assess.add_argument("--country", required=True)
    assess.add_argument("--region", default=None)
    assess.add_argument("--rmax-tflops", type=float, required=True)
    assess.add_argument("--rpeak-tflops", type=float, default=None)
    assess.add_argument("--power-kw", type=float, default=None)
    assess.add_argument("--nodes", type=int, default=None)
    assess.add_argument("--processor", default=None)
    assess.add_argument("--accelerator", default=None)
    assess.add_argument("--gpus", type=int, default=None)
    assess.add_argument("--memory-gb", type=float, default=None)
    assess.add_argument("--memory-type", default=None,
                        help="ddr3|ddr4|ddr5|hbm2|hbm2e|hbm3")
    assess.add_argument("--ssd-gb", type=float, default=None)
    assess.add_argument("--utilization", type=float, default=None)

    fleet = sub.add_parser("fleet", help="assess a built-in named fleet")
    fleet.add_argument("name", choices=["access-like", "doe-like",
                                        "eurohpc-like"])

    def floats(text: str) -> list[float]:
        return [float(part) for part in text.split(",") if part]

    def ints(text: str) -> list[int]:
        return [int(part) for part in text.split(",") if part]

    project = sub.add_parser(
        "project",
        help="temporal projection: 2024-2030 totals, or a scenario "
             "sweep through the (scenario x year x system) engine")
    project.add_argument("--op-rate", type=float, default=None,
                         help="annual operational growth for the totals "
                              "table (default 0.103)")
    project.add_argument("--emb-rate", type=float, default=None,
                         help="annual embodied growth for the totals "
                              "table (default 0.02)")
    project.add_argument("--scenarios", action="store_true",
                         help="sweep scenario axes over the per-record "
                              "temporal engine instead of projecting "
                              "two pre-aggregated totals")
    project.add_argument("--fleet", default=None,
                         choices=["access-like", "doe-like", "eurohpc-like"],
                         help="project a built-in fleet instead of the "
                              "Top500 study (with --scenarios)")
    project.add_argument("--op-growth", type=floats, default=None,
                         metavar="G1,G2,...",
                         help="operational growth-rate axis "
                              "(0.103 = the paper's)")
    project.add_argument("--emb-growth", type=floats, default=None,
                         metavar="G1,G2,...",
                         help="embodied growth-rate axis (0.02 = paper)")
    project.add_argument("--decarbonize", type=floats, default=None,
                         metavar="R1,R2,...",
                         help="grid decarbonization trajectory axis "
                              "(annual decline rates, resolved per year)")
    project.add_argument("--refresh", type=floats, default=None,
                         metavar="L1,L2,...",
                         help="refresh-horizon axis (years; embodied "
                              "re-spend on each system's schedule)")
    project.add_argument("--aci-scale", type=floats, default=None,
                         metavar="S1,S2,...",
                         help="grid-intensity scale axis")
    project.add_argument("--end-year", type=int, default=2030,
                         help="last projected year (default 2030)")
    project.add_argument("--base-year", type=int, default=2024,
                         help="base year (default 2024)")
    project.add_argument("--zip", action="store_true", dest="zip_axes",
                         help="pair axes positionally instead of crossing")
    project.add_argument("--footprint", default="operational",
                         choices=["operational", "embodied",
                                  "embodied_annualized"],
                         help="which footprint the table reports")
    project.add_argument("--bands", action="store_true",
                         help="append end-year Monte-Carlo p5-p95 bands")
    project.add_argument("--mc-samples", type=int, default=None,
                         metavar="N",
                         help="Monte-Carlo draws per band (default: the "
                              "library-wide DEFAULT_MC_SAMPLES)")
    project.add_argument("--band-kind", default=None,
                         choices=["quantile", "normal"],
                         help="band flavor: sampled percentiles, or the "
                              "mean +/- 1.645 sigma normal approximation")
    project.add_argument("--trace", default=None, metavar="PATH",
                         help="stream span records to PATH as JSON-lines "
                              "and print the per-stage time table")

    scen = sub.add_parser(
        "scenarios",
        help="sweep model scenarios through the 2-D kernel")
    scen.add_argument("--fleet", default=None,
                      choices=["access-like", "doe-like", "eurohpc-like"],
                      help="sweep a built-in fleet instead of the Top500 study")
    scen.add_argument("--aci-scale", type=floats, default=None,
                      metavar="S1,S2,...",
                      help="grid-intensity scale axis (1.0 = baseline)")
    scen.add_argument("--pue", type=floats, default=None, metavar="P1,P2,...",
                      help="measured-power PUE axis")
    scen.add_argument("--utilization", type=floats, default=None,
                      metavar="U1,U2,...",
                      help="component-path utilization axis")
    scen.add_argument("--lifetime", type=floats, default=None,
                      metavar="Y1,Y2,...",
                      help="hardware-lifetime axis (years; annualizes embodied)")
    scen.add_argument("--decarbonize", type=float, default=None,
                      metavar="RATE",
                      help="annual grid decline rate for a year axis")
    scen.add_argument("--years", type=ints, default=None, metavar="Y1,Y2,...",
                      help="target years for --decarbonize")
    scen.add_argument("--base-year", type=int, default=2024,
                      help="trajectory base year (default 2024)")
    scen.add_argument("--zip", action="store_true", dest="zip_axes",
                      help="pair axes positionally instead of crossing them")
    scen.add_argument("--footprint", default="operational",
                      choices=["operational", "embodied",
                               "embodied_annualized", "all"],
                      help="which footprint(s) the table reports "
                           "('all' renders the whole cube)")
    scen.add_argument("--bands", action="store_true",
                      help="append per-scenario Monte-Carlo p5-p95 bands")
    scen.add_argument("--mc-samples", type=int, default=None, metavar="N",
                      help="Monte-Carlo draws per band (default: the "
                           "library-wide DEFAULT_MC_SAMPLES)")
    scen.add_argument("--band-kind", default=None,
                      choices=["quantile", "normal"],
                      help="band flavor: sampled percentiles, or the "
                           "mean +/- 1.645 sigma normal approximation")
    scen.add_argument("--save", default=None, metavar="PATH",
                      help="persist the swept cube to PATH(.npz)")
    scen.add_argument("--load", default=None, metavar="PATH",
                      help="render a previously saved cube instead of "
                           "sweeping (axis flags are ignored)")
    scen.add_argument("--grid", default=None, choices=["acceptance"],
                      help="a named grid instead of explicit axes: "
                           "'acceptance' is the 64-scenario "
                           "aci-scale x PUE x utilization benchmark grid")
    scen.add_argument("--trace", default=None, metavar="PATH",
                      help="stream span records to PATH as JSON-lines "
                           "and print the per-stage time table")

    shift = sub.add_parser(
        "shift",
        help="carbon-aware load-shifting sweep through the "
             "(scenario x hour-window x system) engine")
    shift.add_argument("--fleet", default=None,
                       choices=["access-like", "doe-like", "eurohpc-like"],
                       help="sweep a built-in fleet instead of the "
                            "Top500 study")
    shift.add_argument("--amplitude", type=float, default=0.25,
                       metavar="A",
                       help="synthetic diurnal profile amplitude "
                            "(0 = flat = the paper-default annual-mean "
                            "path; default 0.25)")
    shift.add_argument("--peak-hour", type=float, default=19.0,
                       metavar="H",
                       help="dirtiest hour of the synthetic profile "
                            "(default 19 — the evening peak)")
    shift.add_argument("--ci-csv", default=None, metavar="PATH",
                       help="derive the hour profile from an "
                            "Ichnos-style carbon-intensity CSV instead "
                            "of the synthetic generator")
    shift.add_argument("--greenest", type=ints, default=None,
                       metavar="K1,K2,...",
                       help="greenest-k placement axis: run only in "
                            "the k cleanest hours (default family: 6,12)")
    shift.add_argument("--offpeak", type=floats, default=None,
                       metavar="X1,X2,...",
                       help="off-peak shift axis: move fraction x of a "
                            "uniform load into the 8 greenest hours "
                            "(default family: 0.25,0.5)")
    shift.add_argument("--load-hours", type=ints, default=None,
                       metavar="H1,H2,...",
                       help="one fixed-placement scenario restricted "
                            "to these hours of day")
    shift.add_argument("--aci-scale", type=floats, default=None,
                       metavar="S1,S2,...",
                       help="cross a grid-intensity scale axis with "
                            "the placement family")
    shift.add_argument("--hourly", action="store_true",
                       help="24 single-hour windows instead of the "
                            "all-hours + day-part blocks")
    shift.add_argument("--footprint", default="operational",
                       choices=["operational", "embodied"],
                       help="which footprint the table reports "
                            "(embodied is hour-invariant)")
    shift.add_argument("--bands", action="store_true",
                       help="append per-scenario Monte-Carlo p5-p95 "
                            "bands at the first window")
    shift.add_argument("--mc-samples", type=int, default=None, metavar="N",
                       help="Monte-Carlo draws per band (default: the "
                            "library-wide DEFAULT_MC_SAMPLES)")
    shift.add_argument("--band-kind", default=None,
                       choices=["quantile", "normal"],
                       help="band flavor: sampled percentiles, or the "
                            "mean +/- 1.645 sigma normal approximation")
    shift.add_argument("--save", default=None, metavar="PATH",
                       help="persist the swept cube to PATH(.npz)")
    shift.add_argument("--load", default=None, metavar="PATH",
                       help="render a previously saved cube instead of "
                            "sweeping (axis flags are ignored)")
    shift.add_argument("--trace", default=None, metavar="PATH",
                       help="stream span records to PATH as JSON-lines "
                            "and print the per-stage time table")

    doctor = sub.add_parser(
        "doctor",
        help="report the fault plan, the L2 result cache and the "
             "process counters")
    doctor.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the stable machine-readable report "
                             "(the same schema /readyz embeds) instead "
                             "of the human table")
    doctor.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="L2 result-cache directory to inspect "
                             "(default: REPRO_SERVE_CACHE_DIR)")

    srv = sub.add_parser(
        "serve",
        help="run the warm assessment daemon (HTTP: /v1/assess, "
             "/v1/sweep, /v1/bands, /healthz, /readyz, /metrics)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8321,
                     help="listen port (0 = ephemeral; default 8321)")
    srv.add_argument("--queue-depth", type=int, default=64,
                     help="admission bound before shed-oldest (default 64)")
    srv.add_argument("--batch-max", type=int, default=16,
                     help="max requests coalesced per batch (default 16)")
    srv.add_argument("--default-deadline-s", type=float, default=30.0,
                     help="per-request deadline when the body names none "
                          "(default 30)")
    srv.add_argument("--max-deadline-s", type=float, default=300.0,
                     help="largest accepted per-request deadline "
                          "(default 300)")
    srv.add_argument("--cache-entries", type=int, default=256,
                     help="result-cache capacity (LRU; default 256)")
    srv.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="L2 result-cache directory (survives "
                          "restarts; default: none)")
    srv.add_argument("--cache-l2-bytes", type=int, default=64 << 20,
                     help="L2 byte budget before mtime-LRU eviction "
                          "(default 64 MiB)")
    srv.add_argument("--keepalive-idle-s", type=float, default=5.0,
                     help="close a keep-alive connection idle this long "
                          "(default 5)")
    srv.add_argument("--keepalive-max-requests", type=int, default=100,
                     help="requests served per connection before asking "
                          "the client to reconnect (default 100)")
    srv.add_argument("--stream-threshold-bytes", type=int, default=1 << 16,
                     help="chunk-stream response bodies above this size "
                          "(default 64 KiB)")

    profile = sub.add_parser(
        "profile",
        help="run another subcommand under the span tracer and print "
             "the per-stage self/cumulative time table")
    profile.add_argument(
        "rest", nargs=argparse.REMAINDER, metavar="-- <subcommand ...>",
        help="the command to profile, e.g. "
             "repro profile -- scenarios --grid acceptance")
    return parser


def cmd_report() -> int:
    from repro.reporting import figures
    from repro.study import run_default_study
    study = run_default_study()
    for text in (figures.headline(), figures.figure2(study),
                 figures.table1(study), figures.figure3(),
                 figures.figure4(study), figures.figure5(study),
                 figures.figure6(study), figures.figure7(),
                 figures.figure8(), figures.figure9(), figures.figure10(),
                 figures.figure11(), figures.table2_excerpt()):
        print(text)
        print()
    return 0


def cmd_assess(args: argparse.Namespace) -> int:
    from repro.core.easyc import EasyC
    from repro.core.record import SystemRecord
    from repro.hardware.memory import MemoryType
    mem_type = MemoryType.parse(args.memory_type) if args.memory_type else None
    record = SystemRecord(
        rank=1, name=args.name, country=args.country, region=args.region,
        rmax_tflops=args.rmax_tflops,
        rpeak_tflops=args.rpeak_tflops or args.rmax_tflops / 0.7,
        power_kw=args.power_kw, n_nodes=args.nodes,
        processor=args.processor, accelerator=args.accelerator,
        n_gpus=args.gpus, memory_gb=args.memory_gb, memory_type=mem_type,
        ssd_gb=args.ssd_gb, utilization=args.utilization)
    assessment = EasyC().assess(record)
    print(f"System: {args.name}")
    for kind in ("operational", "embodied"):
        estimate = getattr(assessment, kind)
        if estimate is None:
            print(f"  {kind}: NOT COVERED (add more of the 7 key metrics)")
            continue
        print(f"  {kind}: {estimate.value_mt:,.0f} MT CO2e "
              f"[{estimate.low_mt:,.0f} - {estimate.high_mt:,.0f}] "
              f"via {estimate.method.value}")
        for note in estimate.assumptions:
            print(f"    - {note}")
    return 0 if assessment.covered_operational else 1


def cmd_fleet(name: str) -> int:
    from repro.fleets import BUILTIN_FLEETS, assess_fleet
    report = assess_fleet(BUILTIN_FLEETS[name])
    print(f"Fleet: {report.fleet} ({report.n_systems} systems)")
    print(f"  operational: {report.operational_total_mt:,.0f} MT CO2e/yr "
          f"({report.n_operational_covered}/{report.n_systems} covered)")
    if report.operational_band:
        band = report.operational_band
        print(f"    90% band: {band.p5_mt:,.0f} - {band.p95_mt:,.0f} MT")
    print(f"  embodied   : {report.embodied_total_mt:,.0f} MT CO2e "
          f"({report.n_embodied_covered}/{report.n_systems} covered)")
    print(f"  {report.operational_equivalence.describe()}")
    return 0


#: ``repro project`` flags only meaningful in one of its two modes,
#: checked explicitly so a mode mismatch errors instead of silently
#: projecting something other than what the user asked for.
_PROJECT_SWEEP_ONLY = ("fleet", "op_growth", "emb_growth", "decarbonize",
                       "refresh", "aci_scale", "zip_axes", "bands",
                       "mc_samples", "band_kind")
_PROJECT_TOTALS_ONLY = ("op_rate", "emb_rate")


def cmd_project(args: argparse.Namespace) -> int:
    if args.scenarios:
        stray = [name for name in _PROJECT_TOTALS_ONLY
                 if getattr(args, name) is not None]
        if stray:
            print(f"--scenarios sweeps growth axes; "
                  f"{', '.join('--' + s.replace('_', '-') for s in stray)} "
                  "only applies to the totals table (use --op-growth / "
                  "--emb-growth instead)", file=sys.stderr)
            return 2
        return _cmd_project_scenarios(args)
    # Identity checks: the sweep-only set mixes store_true flags with
    # value-bearing options whose 0 must still count as "given" (and
    # `0 == False`, so a membership test would drop it).
    stray = [name for name in _PROJECT_SWEEP_ONLY
             if getattr(args, name) is not None
             and getattr(args, name) is not False]
    if stray:
        flags = ", ".join("--zip" if s == "zip_axes"
                          else "--" + s.replace("_", "-") for s in stray)
        print(f"{flags} require(s) --scenarios (the temporal sweep mode)",
              file=sys.stderr)
        return 2
    from repro.data.paper_table import totals_mt
    from repro.projection.growth import CarbonProjection
    from repro.reporting.tables import render_table
    totals = totals_mt()
    projection = CarbonProjection(
        base_year=args.base_year,
        base_operational_mt=totals["operational_interpolated"],
        base_embodied_mt=totals["embodied_interpolated"],
        operational_rate=0.103 if args.op_rate is None else args.op_rate,
        embodied_rate=0.02 if args.emb_rate is None else args.emb_rate)
    rows = [(str(p.year), round(p.operational_mt / 1e3, 1),
             round(p.embodied_mt / 1e3, 1))
            for p in projection.series(args.end_year)]
    print(render_table(("Year", "Operational (kMT)", "Embodied (kMT)"),
                       rows, title="Top 500 carbon projection"))
    return 0


def _check_band_flags(args: argparse.Namespace) -> str | None:
    """Band-detail flags are meaningless without ``--bands`` — error
    instead of silently rendering a table with no bands."""
    stray = [flag for flag, value in (("--mc-samples", args.mc_samples),
                                      ("--band-kind", args.band_kind))
             if value is not None]
    if stray and not args.bands:
        return f"{', '.join(stray)} require(s) --bands"
    if args.mc_samples is not None and args.mc_samples <= 0:
        return f"--mc-samples must be positive, got {args.mc_samples}"
    return None


def _cmd_project_scenarios(args: argparse.Namespace) -> int:
    """``repro project --scenarios``: the temporal sweep path."""
    from repro import scenarios
    from repro.grid.intensity import DecarbonizationTrajectory
    from repro.reporting.figures import figure10_cube

    problem = _check_band_flags(args)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    if args.refresh and args.footprint == "embodied_annualized":
        print("refresh re-spend is a cumulative schedule; "
              "embodied_annualized is undefined for it — report "
              "--footprint embodied instead", file=sys.stderr)
        return 2
    axes = []
    if args.op_growth:
        axes.append(scenarios.growth_axis(args.op_growth))
    if args.emb_growth:
        axes.append(scenarios.growth_axis(args.emb_growth,
                                          footprint="embodied"))
    if args.decarbonize:
        axes.append(scenarios.trajectory_axis(tuple(
            DecarbonizationTrajectory(base_year=args.base_year,
                                      annual_decline=rate)
            for rate in args.decarbonize)))
    if args.refresh:
        axes.append(scenarios.refresh_axis(args.refresh))
    if args.aci_scale:
        axes.append(scenarios.aci_scale_axis(args.aci_scale))
    specs = None
    if axes:
        specs = (scenarios.ScenarioGrid.zipped(*axes) if args.zip_axes
                 else scenarios.ScenarioGrid.cartesian(*axes))

    if args.fleet:
        from repro.fleets import BUILTIN_FLEETS, project_fleet
        cube = project_fleet(BUILTIN_FLEETS[args.fleet], specs,
                             years=range(args.base_year, args.end_year + 1))
    else:
        from repro.study import run_default_study
        cube = run_default_study().project_sweep(
            specs, years=range(args.base_year, args.end_year + 1))
    print(figure10_cube(cube, args.footprint, bands=args.bands,
                        n_samples=_mc_samples(args),
                        band_kind=args.band_kind or "quantile"))
    return 0


def _mc_samples(args: argparse.Namespace) -> int:
    """``--mc-samples`` resolved against the library-wide default."""
    from repro.core.uncertainty import DEFAULT_MC_SAMPLES
    return DEFAULT_MC_SAMPLES if args.mc_samples is None else args.mc_samples


def _load_cube(cls, path: str):
    """``cls.load_npz(path)``, or None once the reason is on stderr."""
    from repro.errors import ParseError

    try:
        return cls.load_npz(path)
    except (ParseError, OSError) as exc:
        print(f"cannot load a cube: {exc}", file=sys.stderr)
        return None


def cmd_scenarios(args: argparse.Namespace) -> int:
    from repro import scenarios
    from repro.grid.intensity import DecarbonizationTrajectory
    from repro.reporting.figures import cube_table
    from repro.reporting.tables import render_table

    problem = _check_band_flags(args)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    if args.load:
        cube = _load_cube(scenarios.ScenarioCube, args.load)
        if cube is None:
            return 2
        footprints = (scenarios.FOOTPRINTS if args.footprint == "all"
                      else (args.footprint,))
        print(cube_table(cube, footprints, bands=args.bands,
                         n_samples=_mc_samples(args),
                         band_kind=args.band_kind or "quantile"))
        return 0

    axes = []
    if args.aci_scale:
        axes.append(scenarios.aci_scale_axis(args.aci_scale))
    if args.pue:
        axes.append(scenarios.pue_axis(args.pue))
    if args.utilization:
        axes.append(scenarios.utilization_axis(args.utilization))
    if args.lifetime:
        axes.append(scenarios.lifetime_axis(args.lifetime))
    if args.decarbonize is not None:
        if not args.years:
            print("--decarbonize needs --years", file=sys.stderr)
            return 2
        trajectory = DecarbonizationTrajectory(
            base_year=args.base_year, annual_decline=args.decarbonize)
        axes.append(scenarios.decarbonization_axis(trajectory, args.years))
    elif args.years:
        print("--years needs --decarbonize", file=sys.stderr)
        return 2
    if args.grid:
        if axes:
            print("--grid names a fixed grid; drop the explicit axis "
                  "flags", file=sys.stderr)
            return 2
        # The 64-scenario acceptance grid — the same axes
        # benchmarks/bench_throughput.py sweeps, so profile output here
        # is directly comparable to the recorded BENCH numbers.
        axes = [scenarios.aci_scale_axis((1.0, 0.9, 0.8, 0.7)),
                scenarios.pue_axis((1.0, 1.1, 1.2, 1.3)),
                scenarios.utilization_axis((0.5, 0.65, 0.8, 0.95))]
    if not axes:
        # A small demonstrative grid: cleaner grid × facility overhead.
        axes = [scenarios.aci_scale_axis((1.0, 0.8)),
                scenarios.pue_axis((1.0, 1.2))]
    grid = (scenarios.ScenarioGrid.zipped(*axes) if args.zip_axes
            else scenarios.ScenarioGrid.cartesian(*axes))

    if args.fleet:
        from repro.fleets import BUILTIN_FLEETS, sweep_fleet
        subject = f"fleet {args.fleet}"
        cube = sweep_fleet(BUILTIN_FLEETS[args.fleet], grid)
    else:
        from repro.study import run_default_study
        subject = "Top500 study (+public info)"
        cube = run_default_study().scenario_sweep(grid)

    if args.save:
        cube.save_npz(args.save)
    if args.footprint == "all" or args.bands:
        footprints = (scenarios.FOOTPRINTS if args.footprint == "all"
                      else (args.footprint,))
        print(cube_table(cube, footprints, bands=args.bands,
                         n_samples=_mc_samples(args),
                         band_kind=args.band_kind or "quantile"))
        return 0
    rows = [(name, round(total / 1e3, 1), f"{covered}/{cube.n_systems}",
             f"{delta:+.1f}%")
            for name, total, covered, delta in cube.table_rows(args.footprint)]
    print(render_table(
        ("Scenario", f"{args.footprint} total (kMT)", "Covered",
         "vs first"),
        rows,
        title=f"Scenario sweep: {subject} — {cube.n_scenarios} scenarios "
              f"x {cube.n_systems} systems"))
    return 0


def cmd_shift(args: argparse.Namespace) -> int:
    """``repro shift``: the hour-axis load-shifting sweep."""
    from repro import scenarios
    from repro.reporting.figures import shift_table

    problem = _check_band_flags(args)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    if args.load:
        cube = _load_cube(scenarios.ShiftCube, args.load)
        if cube is None:
            return 2
        print(shift_table(cube, args.footprint, bands=args.bands,
                          n_samples=_mc_samples(args),
                          band_kind=args.band_kind or "quantile"))
        return 0

    if args.ci_csv:
        from repro.errors import ParseError
        from repro.grid.intervals import read_ci_csv
        try:
            profile = read_ci_csv(args.ci_csv)
        except (ParseError, OSError) as exc:
            print(f"repro shift: cannot read --ci-csv: {exc}",
                  file=sys.stderr)
            return 2
    elif args.amplitude:
        from repro.grid.intervals import synthetic_diurnal
        profile = synthetic_diurnal(1.0, amplitude=args.amplitude,
                                    peak_hour=args.peak_hour)
    else:
        profile = None  # flat: the paper-default annual-mean path

    # Placement specs concatenate (the fields are mutually exclusive);
    # an intensity-scale axis crosses the whole family.
    family = [scenarios.baseline_spec()]
    explicit = (args.greenest is not None or args.offpeak is not None
                or args.load_hours is not None)
    greenest = args.greenest if args.greenest is not None \
        else (None if explicit else [6, 12])
    offpeak = args.offpeak if args.offpeak is not None \
        else (None if explicit else [0.25, 0.5])
    if greenest:
        family.extend(scenarios.greenest_hours_axis(tuple(greenest)))
    if offpeak:
        family.extend(scenarios.offpeak_shift_axis(tuple(offpeak)))
    if args.load_hours:
        family.extend(scenarios.load_hours_axis(
            (tuple(args.load_hours),)))
    specs = (scenarios.ScenarioGrid.cartesian(
                 scenarios.aci_scale_axis(args.aci_scale),
                 tuple(family)).specs()
             if args.aci_scale else tuple(family))

    windows = scenarios.hourly_windows() if args.hourly else None

    if args.fleet:
        from repro.fleets import BUILTIN_FLEETS
        subject = f"fleet {args.fleet}"
        cube = scenarios.shift_sweep(BUILTIN_FLEETS[args.fleet].systems,
                                     specs, windows=windows,
                                     profile=profile)
    else:
        from repro.study import run_default_study
        study = run_default_study()
        subject = "Top500 study (+public info)"
        cube = scenarios.shift_sweep(
            list(study.public_records), specs, windows=windows,
            profile=profile,
            operational_model=study.easyc.operational_model,
            embodied_model=study.easyc.embodied_model)

    if args.save:
        cube.save_npz(args.save)
    print(f"# {subject}")
    print(shift_table(cube, args.footprint, bands=args.bands,
                      n_samples=_mc_samples(args),
                      band_kind=args.band_kind or "quantile"))
    return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    """Health report: fault plan, L2 result cache, counters.

    Both renderings come from the same
    :func:`repro.serve.health.doctor_report` dict the daemon's
    ``/readyz`` embeds — ``--json`` emits it verbatim (stable schema),
    the default prints the human table.
    """
    import json as json_mod

    from repro.serve.health import doctor_report, render_doctor_table

    report = doctor_report(cache_dir=args.cache_dir)
    if args.as_json:
        print(json_mod.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_doctor_table(report))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the warm assessment daemon until SIGTERM.

    An out-of-range option, or a ``--cache-dir`` that cannot be a
    directory (a regular file, a path beneath one, no permission), is
    one stderr line and exit 2.
    """
    from repro.serve import ServeConfig, serve

    try:
        config = ServeConfig(
            host=args.host, port=args.port,
            max_queue=args.queue_depth, batch_max=args.batch_max,
            default_deadline_s=args.default_deadline_s,
            max_deadline_s=args.max_deadline_s,
            cache_entries=args.cache_entries,
            keepalive_idle_s=args.keepalive_idle_s,
            keepalive_max_requests=args.keepalive_max_requests,
            stream_threshold_bytes=args.stream_threshold_bytes,
            cache_dir=args.cache_dir,
            cache_l2_bytes=args.cache_l2_bytes)
    except ValueError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    if config.cache_dir is not None:
        # Creating the directory here, before the event loop starts,
        # turns a path that cannot be one into a usage error.  The
        # daemon builds (and lists) its one L2 tier itself.
        from pathlib import Path

        from repro.serve.app import unusable_cache_dir

        try:
            Path(config.cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return unusable_cache_dir(config, exc)
    return serve(config)


def cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile -- <subcommand ...>``: trace + time table.

    Runs the wrapped command under an in-memory capture, then prints
    the per-span-name self/cumulative table and the span-coverage
    line against the measured wall time.  The wrapped command's own
    output prints first, unchanged; its exit code is returned.
    """
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print("profile needs a command to wrap, e.g. "
              "repro profile -- scenarios --grid acceptance",
              file=sys.stderr)
        return 2
    if rest[0] == "profile":
        print("profile cannot wrap itself", file=sys.stderr)
        return 2
    with obs.capture() as trace:
        start = time.perf_counter()
        code = main(rest)
        wall = time.perf_counter() - start
    print()
    print(f"profile: repro {' '.join(rest)}")
    print(obs.render_table(trace.records, wall_s=wall))
    return code


def _run_traced(args: argparse.Namespace, path: str) -> int:
    """``--trace PATH``: JSONL file sink + the same profile table."""
    previous = os.environ.get(obs.TRACE_ENV)
    os.environ[obs.TRACE_ENV] = path
    try:
        with obs.capture() as trace:
            start = time.perf_counter()
            with obs.span(f"cli.{args.command}"):
                code = _dispatch(args)
            wall = time.perf_counter() - start
    finally:
        if previous is None:
            os.environ.pop(obs.TRACE_ENV, None)
        else:
            os.environ[obs.TRACE_ENV] = previous
    print()
    print(f"trace: {len(trace.records)} span(s) written to {path}")
    print(obs.render_table(trace.records, wall_s=wall))
    return code


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "report":
        return cmd_report()
    if args.command == "assess":
        return cmd_assess(args)
    if args.command == "fleet":
        return cmd_fleet(args.name)
    if args.command == "project":
        return cmd_project(args)
    if args.command == "scenarios":
        return cmd_scenarios(args)
    if args.command == "shift":
        return cmd_shift(args)
    if args.command == "doctor":
        return cmd_doctor(args)
    if args.command == "serve":
        return cmd_serve(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "profile":
        return cmd_profile(args)
    if getattr(args, "trace", None):
        return _run_traced(args, args.trace)
    # The root span makes every traced CLI run a single connected tree
    # (and is a shared no-op when no sink is active).
    with obs.span(f"cli.{args.command}"):
        return _dispatch(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
