"""Named-fleet extension + CLI tests."""

import pickle
import socket

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.record import SystemRecord
from repro.fleets import (
    ACCESS_LIKE_FLEET,
    BUILTIN_FLEETS,
    DOE_LIKE_FLEET,
    EUROHPC_LIKE_FLEET,
    Fleet,
    assess_fleet,
    assess_portfolio,
)


class TestFleets:
    def test_builtin_fleets_registered(self):
        assert set(BUILTIN_FLEETS) == {"access-like", "doe-like",
                                       "eurohpc-like"}

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            Fleet(name="empty", systems=())

    def test_access_like_fully_covered(self):
        report = assess_fleet(ACCESS_LIKE_FLEET)
        assert report.n_systems == 5
        assert report.n_operational_covered == 5
        assert report.n_embodied_covered == 5
        assert report.operational_total_mt > 0

    def test_doe_like_dominated_by_exascale(self):
        report = assess_fleet(DOE_LIKE_FLEET)
        values = [a.operational.value_mt for a in report.assessments]
        # Frontier-like + Aurora-like dwarf Perlmutter-like.
        assert values[0] + values[1] > 10 * values[2]

    def test_eurohpc_grid_contrast(self):
        # LUMI-like (hydro) vs Leonardo-like (Italian mix): the paper's
        # 4.3x contrast should reappear for similar power levels.
        report = assess_fleet(EUROHPC_LIKE_FLEET)
        lumi = report.assessments[0].operational.value_mt
        leonardo = report.assessments[1].operational.value_mt
        assert leonardo / lumi > 3.0

    def test_uncertainty_band_present(self):
        report = assess_fleet(ACCESS_LIKE_FLEET)
        band = report.operational_band
        assert band is not None
        assert band.p5_mt < report.operational_total_mt < band.p95_mt

    def test_custom_fleet(self):
        fleet = Fleet(name="mine", systems=(
            SystemRecord(rank=1, rmax_tflops=100.0, rpeak_tflops=150.0,
                         country="Norway", power_kw=50.0),))
        report = assess_fleet(fleet)
        assert report.n_operational_covered == 1
        assert report.n_embodied_covered == 0

    def test_report_matches_materialized_assessments(self):
        """The array-backed report equals the estimate-object
        construction it replaced — totals, counts and band."""
        from repro.core.uncertainty import total_with_uncertainty

        report = assess_fleet(EUROHPC_LIKE_FLEET)
        assessments = report.assessments          # lazy; forces here
        op = [a.operational for a in assessments if a.operational]
        emb = [a.embodied for a in assessments if a.embodied]
        assert report.n_systems == len(assessments)
        assert report.n_operational_covered == len(op)
        assert report.n_embodied_covered == len(emb)
        assert report.operational_total_mt == sum(e.value_mt for e in op)
        assert report.embodied_total_mt == sum(e.value_mt for e in emb)
        assert report.operational_band == \
            total_with_uncertainty(op, n_samples=2000)


class TestPortfolio:
    def test_portfolio_matches_per_fleet_reports(self):
        """One batched portfolio pass slices back into reports that are
        bit-identical to assessing each fleet alone."""
        fleets = (ACCESS_LIKE_FLEET, DOE_LIKE_FLEET, EUROHPC_LIKE_FLEET)
        portfolio = assess_portfolio(fleets)
        assert portfolio.n_fleets == 3
        assert portfolio.n_systems == sum(len(f.systems) for f in fleets)
        for fleet in fleets:
            combined = portfolio.report(fleet.name)
            alone = assess_fleet(fleet)
            assert combined.operational_total_mt == \
                alone.operational_total_mt
            assert combined.embodied_total_mt == alone.embodied_total_mt
            assert combined.n_operational_covered == \
                alone.n_operational_covered
            assert combined.operational_band == alone.operational_band
        assert portfolio.operational_total_mt == pytest.approx(
            sum(assess_fleet(f).operational_total_mt for f in fleets))

    def test_unknown_fleet_name(self):
        portfolio = assess_portfolio((ACCESS_LIKE_FLEET,))
        with pytest.raises(KeyError):
            portfolio.report("nope")

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError):
            assess_portfolio(())


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_assess_covered(self, capsys):
        code = main(["assess", "--country", "Germany",
                     "--rmax-tflops", "5000", "--power-kw", "900",
                     "--nodes", "300", "--processor", "epyc-7763"])
        out = capsys.readouterr().out
        assert code == 0
        assert "operational:" in out
        assert "embodied:" in out
        assert "MT CO2e" in out

    def test_assess_uncovered_exit_code(self, capsys):
        code = main(["assess", "--country", "Germany",
                     "--rmax-tflops", "5000"])
        assert code == 1
        assert "NOT COVERED" in capsys.readouterr().out

    def test_assess_with_memory_type(self, capsys):
        code = main(["assess", "--country", "Japan",
                     "--rmax-tflops", "9000", "--power-kw", "1500",
                     "--nodes", "200", "--processor", "epyc-9654",
                     "--memory-gb", "102400", "--memory-type", "ddr5"])
        assert code == 0

    def test_fleet_command(self, capsys):
        code = main(["fleet", "eurohpc-like"])
        out = capsys.readouterr().out
        assert code == 0
        assert "eurohpc-like" in out
        assert "90% band" in out

    def test_project_command(self, capsys):
        code = main(["project"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2030" in out
        assert "2,509" in out or "2509" in out

    def test_project_custom_rates(self, capsys):
        code = main(["project", "--op-rate", "0.0", "--emb-rate", "0.0"])
        out = capsys.readouterr().out
        assert code == 0
        # Flat projection: 2030 equals 2024.
        assert out.count("1,393.7") == 7

    def test_project_scenarios_fleet(self, capsys):
        code = main(["project", "--scenarios", "--fleet", "doe-like",
                     "--op-growth", "0.0,0.103", "--decarbonize", "0.06",
                     "--bands"])
        out = capsys.readouterr().out
        assert code == 0
        assert "7 years" in out and "2030" in out
        assert "grow=+0.0%+decarb=0.06/yr" in out
        assert "p5-p95@2030" in out

    def test_project_mode_mismatch_rejected(self, capsys):
        # Sweep-only flags without --scenarios must error, not
        # silently project something else.
        code = main(["project", "--fleet", "doe-like", "--bands"])
        assert code == 2
        assert "--scenarios" in capsys.readouterr().err
        # Totals-only flags with --scenarios likewise.
        code = main(["project", "--scenarios", "--op-rate", "0.2"])
        assert code == 2
        assert "--op-growth" in capsys.readouterr().err
        # Annualizing a cumulative refresh schedule is undefined.
        code = main(["project", "--scenarios", "--refresh", "4",
                     "--footprint", "embodied_annualized"])
        assert code == 2

    def test_project_scenarios_refresh_axis(self, capsys):
        code = main(["project", "--scenarios", "--fleet", "eurohpc-like",
                     "--refresh", "4", "--footprint", "embodied"])
        out = capsys.readouterr().out
        assert code == 0
        assert "refresh@4y" in out

    def test_scenarios_whole_cube_with_bands(self, capsys):
        code = main(["scenarios", "--fleet", "doe-like",
                     "--aci-scale", "1.0,0.8", "--footprint", "all",
                     "--bands"])
        out = capsys.readouterr().out
        assert code == 0
        assert "embodied_annualized" in out and "p5-p95" in out

    def test_scenarios_band_flags(self, capsys):
        code = main(["scenarios", "--fleet", "doe-like",
                     "--aci-scale", "1.0,0.8", "--bands",
                     "--mc-samples", "200", "--band-kind", "normal"])
        out = capsys.readouterr().out
        assert code == 0
        assert "p5-p95" in out

    def test_band_flags_require_bands(self, capsys):
        code = main(["scenarios", "--fleet", "doe-like",
                     "--aci-scale", "1.0,0.8", "--band-kind", "normal"])
        assert code == 2
        assert "--bands" in capsys.readouterr().err
        code = main(["project", "--scenarios", "--fleet", "doe-like",
                     "--mc-samples", "100"])
        assert code == 2
        assert "--bands" in capsys.readouterr().err

    def test_non_positive_mc_samples_rejected(self, capsys):
        code = main(["scenarios", "--fleet", "doe-like",
                     "--aci-scale", "1.0,0.8", "--bands",
                     "--mc-samples", "0"])
        assert code == 2
        assert "positive" in capsys.readouterr().err
        # Even 0 counts as "given" for the project mode check (0 is
        # falsy but the flag was passed).
        code = main(["project", "--mc-samples", "0"])
        assert code == 2
        assert "--scenarios" in capsys.readouterr().err

    def test_scenarios_save_and_load_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "cube")
        code = main(["scenarios", "--fleet", "doe-like",
                     "--aci-scale", "1.0,0.5", "--save", path])
        assert code == 0
        first = capsys.readouterr().out
        code = main(["scenarios", "--load", path])
        assert code == 0
        reloaded = capsys.readouterr().out
        assert "aci x0.5" in first and "aci x0.5" in reloaded


    @pytest.mark.parametrize("command", ["scenarios", "shift"])
    @pytest.mark.parametrize("problem", ["missing", "wrong-kind", "legacy"])
    def test_load_failure_is_a_message_not_a_traceback(
            self, capsys, tmp_path, command, problem):
        message = {"missing": "No such file", "wrong-kind": "Cube', not a",
                   "legacy": "save it again"}[problem]
        path = tmp_path / "cube.npz"
        if problem == "wrong-kind":
            other = "shift" if command == "scenarios" else "scenarios"
            assert main([other, "--fleet", "access-like",
                         "--save", str(path)]) == 0
        elif problem == "legacy":
            # The pre-v2 layout: compressed arrays, pickled header.
            meta = pickle.dumps({"specs": (), "ranks": (), "names": ()})
            np.savez_compressed(path, meta=np.frombuffer(meta, np.uint8))
        capsys.readouterr()
        assert main([command, "--load", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err


class TestShiftCli:
    def test_shift_default_family(self, capsys):
        code = main(["shift", "--fleet", "access-like"])
        out = capsys.readouterr().out
        assert code == 0
        assert "greenest-6" in out and "shift=25%" in out
        assert "all-hours" in out and "night" in out

    def test_shift_flat_profile_is_window_invariant(self, capsys):
        # --amplitude 0 is the paper-default annual-mean path: every
        # window column repeats the atemporal total.
        code = main(["shift", "--fleet", "doe-like", "--amplitude", "0",
                     "--greenest", "6"])
        out = capsys.readouterr().out
        assert code == 0
        row = next(line for line in out.splitlines()
                   if line.startswith("greenest-6"))
        cells = row.split()[1:-1]
        assert len(set(cells)) == 1

    def test_shift_aci_scale_crosses_family(self, capsys):
        code = main(["shift", "--fleet", "doe-like",
                     "--aci-scale", "1.0,0.8", "--greenest", "6",
                     "--bands", "--mc-samples", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "aci x0.8+greenest-6" in out
        assert "p5-p95@all-hours" in out

    def test_shift_hourly_windows(self, capsys):
        code = main(["shift", "--fleet", "access-like", "--hourly",
                     "--offpeak", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "h00" in out and "h23" in out
        assert "24 hour windows" in out

    def test_shift_load_hours(self, capsys):
        code = main(["shift", "--fleet", "access-like",
                     "--load-hours", "0,1,2,3,4,5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hours=00-05" in out

    def test_shift_band_flags_require_bands(self, capsys):
        code = main(["shift", "--fleet", "doe-like",
                     "--band-kind", "normal"])
        assert code == 2
        assert "--bands" in capsys.readouterr().err

    def test_shift_save_and_load_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "shift")
        code = main(["shift", "--fleet", "doe-like", "--greenest", "6",
                     "--save", path])
        assert code == 0
        first = capsys.readouterr().out
        code = main(["shift", "--load", path])
        assert code == 0
        reloaded = capsys.readouterr().out
        assert "greenest-6" in first and "greenest-6" in reloaded

    def test_shift_ci_csv_profile(self, capsys, tmp_path):
        import math
        csv = tmp_path / "ci.csv"
        rows = ["timestamp,carbon_intensity"]
        rows += [f"2024-01-01T{h:02d}:00,"
                 f"{400 + 100 * math.sin(h / 24 * 2 * math.pi):.1f}"
                 for h in range(24)]
        csv.write_text("\n".join(rows) + "\n")
        code = main(["shift", "--fleet", "access-like",
                     "--ci-csv", str(csv), "--greenest", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "greenest-4" in out


    @pytest.mark.parametrize("content", [
        b"timestamp,carbon_intensity\n",
        b"timestamp,carbon_intensity\n" + b"".join(
            f"2024-01-01T{h:02d}:00,{'nan' if h == 5 else 400}\n".encode()
            for h in range(24)),
        b"\xff\xfe\x00garbage",
    ], ids=["header-only", "nan-value", "binary"])
    def test_shift_bad_ci_csv_is_one_line_and_exit_2(self, capsys, tmp_path,
                                                      content):
        path = tmp_path / "ci.csv"
        path.write_bytes(content)
        code = main(["shift", "--fleet", "access-like", "--ci-csv", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro shift: cannot read --ci-csv:")
        assert str(path) in lines[0]

    def test_shift_missing_ci_csv_is_one_line_and_exit_2(self, capsys,
                                                         tmp_path):
        code = main(["shift", "--ci-csv", str(tmp_path / "absent.csv")])
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

class TestServeCli:
    @pytest.mark.parametrize("flags", [
        ["--port", "70000"],
        ["--port", "-1"],
        ["--batch-max", "0"],
        ["--queue-depth", "0"],
        ["--cache-entries", "-1"],
        ["--keepalive-max-requests", "0"],
        ["--keepalive-idle-s", "-1"],
        ["--default-deadline-s", "-1"],
        ["--max-deadline-s", "0"],
        ["--cache-l2-bytes", "0"],
        ["--stream-threshold-bytes", "-1"],
    ])
    def test_bad_argument_is_one_line_and_exit_2(self, capsys, monkeypatch,
                                                 flags):
        def refuse_to_start(config):
            raise AssertionError(f"daemon started with {config}")

        monkeypatch.setattr("repro.serve.serve", refuse_to_start)
        assert main(["serve", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro serve: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("beneath", [False, True],
                             ids=["a-file", "beneath-a-file"])
    def test_unusable_cache_dir_is_one_line_and_exit_2(
            self, tmp_path, capsys, monkeypatch, beneath):
        def refuse_to_start(config):
            raise AssertionError(f"daemon started with {config}")

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        cache_dir = blocker / "l2" if beneath else blocker
        monkeypatch.setattr("repro.serve.serve", refuse_to_start)
        assert main(["serve", "--cache-dir", str(cache_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro serve: --cache-dir ")
        assert captured.err.count("\n") == 1

    def test_boot_lists_a_filled_cache_dir_once(self, tmp_path,
                                                 monkeypatch):
        """``repro serve --cache-dir`` builds one L2 tier: the daemon's,
        which lists the directory once for its byte tally."""
        import hashlib

        from repro import obs
        from repro.serve import AssessmentServer
        from repro.serve.cachetier import DiskCacheL2

        writer = DiskCacheL2(tmp_path, max_bytes=1 << 30)
        for i in range(50):
            writer.put(hashlib.sha256(str(i).encode()).hexdigest(), "{}")
        booted = []

        def boot(config):
            before = obs.get_counter("serve.cache_l2_scans")
            booted.append(AssessmentServer(config))
            booted.append(obs.get_counter("serve.cache_l2_scans") - before)
            return 0

        before = obs.get_counter("serve.cache_l2_scans")
        monkeypatch.setattr("repro.serve.serve", boot)
        assert main(["serve", "--port", "0", "--cache-dir",
                     str(tmp_path)]) == 0
        server, boot_scans = booted
        assert boot_scans == 1
        assert obs.get_counter("serve.cache_l2_scans") - before == 1
        assert server.cache.l2.stats()["entries"] == 50

    def test_unusable_cache_dir_from_the_library_is_one_line(
            self, tmp_path, capsys):
        """``serve(config)`` called directly reports a ``cache_dir``
        that cannot be a directory like the CLI does."""
        from repro.serve import ServeConfig, serve

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        assert serve(ServeConfig(port=0, cache_dir=str(blocker))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro serve: --cache-dir ")
        assert captured.err.count("\n") == 1

    def test_port_in_use_is_one_line_and_exit_2(self, capsys):
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 2
        finally:
            blocker.close()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"repro serve: cannot listen on 127.0.0.1:{port}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--workers", "2"], ["--janitor-interval-s", "1"],
        ["--replica-index", "1"], ["--tier-dir", "d"],
        ["--inherit-socket", "3"], ["--reuseport"]])
    def test_replica_tier_flags_are_gone(self, capsys, flags):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", *flags])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
