"""Chaos suite: deterministic fault injection against the serving daemon.

The daemon's recovery paths are driven end-to-end here: a stalled
request (``hang@request``), a failing cache lookup
(``raise@cache-load``), and a real daemon process under a fault spec —
each required to answer **bit-identical** to the lone serial
evaluation.
The Monte-Carlo band fan-out runs on threads and has no fault point;
the ambient tests re-check its bit-identity under whatever spec the
process was started with.

The autouse fixture clears ``REPRO_FAULT_SPEC`` so each test controls
its own plan; the ``*_under_ambient_spec`` tests re-apply whatever
spec the process was started under, which is how CI's fault-injection
matrix (one job per spec) drives this file.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import scenarios
from repro.serve import faults
from repro.serve.faults import FaultPlan, FaultRule
from repro.scenarios import sweep
from repro.uncertainty import mc

WORKERS = 2

#: The spec this pytest process was *started* under (the CI matrix
#: job's parameter), captured before the autouse fixture clears it.
_AMBIENT_SPEC = os.environ.get(faults.FAULT_SPEC_ENV, "")


@pytest.fixture(autouse=True)
def _clean_fault_spec(monkeypatch):
    monkeypatch.delenv(faults.FAULT_SPEC_ENV, raising=False)


def _inject(monkeypatch, spec: str) -> None:
    """Arm a fault spec for the rest of the test."""
    monkeypatch.setenv(faults.FAULT_SPEC_ENV, spec)


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------

class TestFaultSpecParsing:
    def test_grammar_forms(self):
        plan = FaultPlan.parse(
            "kill@batch=3, hang@request=1:5s, raise@cache-load,"
            " fail@cache-load")
        assert plan.rules == (
            FaultRule("kill", "batch", selector=3),
            FaultRule("hang", "request", selector=1, arg_s=5.0),
            FaultRule("raise", "cache-load"),
            FaultRule("fail", "cache-load"),
        )

    @pytest.mark.parametrize("text,seconds", [
        ("5s", 5.0), ("250ms", 0.25), ("1.5", 1.5), ("0.5S", 0.5),
    ])
    def test_durations(self, text, seconds):
        plan = FaultPlan.parse(f"hang@request:{text}")
        assert plan.rules[0].arg_s == seconds

    # ``block`` is not a fault point either, but most of these entries
    # are rejected for their action or selector before the point name
    # is checked.  The grammar has no ``*FIRES`` suffix: a ``*`` lands
    # in the point name or the selector, and the entry is malformed.
    @pytest.mark.parametrize("entry", [
        "explode@block", "kill@nowhere", "kill@", "kill@block=x",
        "kill@block*0", "kill@request=0*2",
    ])
    def test_malformed_entries_warn_and_drop(self, entry):
        with pytest.warns(RuntimeWarning, match="malformed"):
            plan = FaultPlan.parse(f"{entry}, raise@cache-load")
        assert plan.rules == (FaultRule("raise", "cache-load"),)

    def test_retired_kernel_points_are_dropped(self):
        for entry in ("kill@block=0", "raise@attach", "fail@segment-create"):
            with pytest.warns(RuntimeWarning, match="unknown fault point"):
                assert FaultPlan.parse(entry).rules == ()

    def test_empty_spec(self):
        assert FaultPlan.parse("").rules == ()
        assert FaultPlan.parse(" , ,").rules == ()

    def test_rule_matches_its_point_and_selector(self):
        rule = FaultRule("kill", "batch", selector=0)
        assert rule.matches("batch", 0)
        assert not rule.matches("batch", 1)
        assert not rule.matches("request", 0)

    def test_selectorless_rule_matches_every_index(self):
        rule = FaultRule("raise", "request")
        assert rule.matches("request", 0)
        assert rule.matches("request", 17)

    def test_active_plan_tracks_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "raise@cache-load")
        assert faults.active_plan().rules == (
            FaultRule("raise", "cache-load"),)
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "fail@batch=2")
        assert faults.active_plan().rules == (
            FaultRule("fail", "batch", selector=2),)
        monkeypatch.delenv(faults.FAULT_SPEC_ENV)
        assert faults.active_plan().rules == ()


# ---------------------------------------------------------------------------
# The band fan-out under the ambient spec
# ---------------------------------------------------------------------------

def _band_stack(study):
    """A small real value/uncertainty stack for the band fan-out."""
    grid = scenarios.ScenarioGrid.cartesian(
        scenarios.aci_scale_axis((1.0, 0.9, 0.8, 0.7)),
        scenarios.pue_axis((1.0, 1.15)),
    )
    cube = sweep(list(study.public_records), grid)
    return cube.operational_mt, cube.operational_unc


class TestAmbientSpec:
    """The CI fault-injection matrix: one job per ambient spec value."""

    def test_ambient_fault_spec(self, study, monkeypatch):
        values, unc = _band_stack(study)
        bands_serial = mc.mc_band_stack(values, unc, n_samples=150,
                                        method="serial")
        if _AMBIENT_SPEC:
            _inject(monkeypatch, _AMBIENT_SPEC)
        bands_threads = mc.mc_band_stack(values, unc, n_samples=150,
                                         method="threads",
                                         max_workers=WORKERS)
        assert bands_threads == bands_serial


class TestChaosTracing:
    """Tracing observes without changing: a traced threaded run stays
    bit-identical to the untraced serial reference under the ambient
    ``REPRO_FAULT_SPEC``, and every record it emits validates."""

    def test_traced_chaos_bit_identical_under_ambient_spec(
            self, study, monkeypatch, tmp_path):
        values, unc = _band_stack(study)
        # The untraced serial reference.
        serial = mc.mc_band_stack(values, unc, n_samples=150,
                                  method="serial")
        if _AMBIENT_SPEC:
            _inject(monkeypatch, _AMBIENT_SPEC)
        from repro import obs
        trace_path = tmp_path / "trace.jsonl"
        monkeypatch.setenv(obs.TRACE_ENV, str(trace_path))
        with obs.capture() as trace:
            traced = mc.mc_band_stack(values, unc, n_samples=150,
                                      method="threads", max_workers=WORKERS)
        assert traced == serial
        for field in ("mean_mt", "p5_mt", "p50_mt", "p95_mt"):
            assert (getattr(serial, field).tobytes()
                    == getattr(traced, field).tobytes())
        # Every record — captured and in the JSONL file — validates.
        assert trace.by_name("mc.band_stack")
        for record in trace.records:
            assert obs.validate_record(record) == [], record
        for line in trace_path.read_text(encoding="utf-8").splitlines():
            assert obs.validate_record(json.loads(line)) == [], line


# ---------------------------------------------------------------------------
# Chaos: the serving daemon under the same injected faults
# ---------------------------------------------------------------------------

def _run_serve_scenario(scenario, config=None):
    """Boot a fresh in-process daemon, run ``scenario(server, post)``."""
    import asyncio
    import urllib.error
    import urllib.request

    from repro.serve import AssessmentServer, ServeConfig

    def _post(port, path, body):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=json.dumps(body).encode("utf-8"), method="POST")
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, dict(response.headers), \
                    response.read()
        except urllib.error.HTTPError as err:
            return err.code, dict(err.headers), err.read()

    async def runner():
        server = AssessmentServer(config or ServeConfig(port=0))
        await server.start()
        loop = asyncio.get_running_loop()

        def post(path, body):
            return loop.run_in_executor(None, _post, server.port, path, body)

        try:
            await scenario(server, post)
        finally:
            await server.stop()

    asyncio.run(runner())


def _serve_reference(kind, body):
    """The lone serial-floor evaluation of one request, as bytes."""
    from repro.fleets import BUILTIN_FLEETS
    from repro.serve.batcher import evaluate_group, parse_request

    parsed = parse_request(kind, body, default_deadline_s=30.0,
                           max_deadline_s=300.0)
    records = BUILTIN_FLEETS[body["fleet"]].systems
    return evaluate_group(records, [parsed], serial_only=True,
                          budget_s=None)[0].encode("utf-8")


class TestChaosServe:
    """The daemon's responses stay bit-identical under injected faults.

    The serve-level points (``hang@request``, ``raise@cache-load``, and
    CI's ambient spec) strike the daemon itself; every response must
    still match the lone serial reference byte for byte.
    """

    _SWEEP = {"fleet": "doe-like", "axes": {"pue": [1.0, 1.15, 1.3]}}
    _BANDS = {"fleet": "doe-like", "axes": {"utilization": [0.5, 0.8]},
              "n_samples": 150, "seed": 11}

    def test_coalesced_responses_bit_identical_under_ambient_spec(
            self, monkeypatch):
        import asyncio

        # References first, on the clean serial floor (the autouse
        # fixture has already cleared the ambient spec).
        references = [_serve_reference("sweep", self._SWEEP),
                      _serve_reference("bands", self._BANDS)]
        if _AMBIENT_SPEC:
            _inject(monkeypatch, _AMBIENT_SPEC)
        # Let "auto" put even this small band request on the threads.
        monkeypatch.setattr(mc, "_FANOUT_MIN_DRAWS", 0)

        async def scenario(server, post):
            results = await asyncio.gather(post("/v1/sweep", self._SWEEP),
                                           post("/v1/bands", self._BANDS))
            for (status, _, payload), reference in zip(results, references):
                assert status == 200
                assert payload == reference

        _run_serve_scenario(scenario)

    def test_serve_survives_request_hang(self, monkeypatch):
        reference = _serve_reference("sweep", self._SWEEP)
        _inject(monkeypatch, "hang@request=0:200ms")

        async def scenario(server, post):
            started = time.perf_counter()
            status, _, payload = await post("/v1/sweep", self._SWEEP)
            assert time.perf_counter() - started >= 0.2
            assert status == 200
            assert payload == reference

        _run_serve_scenario(scenario)

    def test_serve_cache_load_chaos_recomputes_identically(self,
                                                           monkeypatch):
        reference = _serve_reference("sweep", self._SWEEP)
        _inject(monkeypatch, "raise@cache-load")

        async def scenario(server, post):
            status, headers, first = await post("/v1/sweep", self._SWEEP)
            assert status == 200 and headers["X-Repro-Cache"] == "miss"
            status, headers, second = await post("/v1/sweep", self._SWEEP)
            assert status == 200 and headers["X-Repro-Cache"] == "miss"
            assert first == second == reference

        _run_serve_scenario(scenario)

    def test_daemon_chaos_drains_without_leaks(self, tmp_path):
        """One fault spec against a real daemon process with a disk L2:
        every response still matches the serial reference byte for
        byte, SIGTERM drains it to exit 0, and no half-written L2 temp
        file is left behind."""
        import signal
        import subprocess
        import sys
        import urllib.request
        from pathlib import Path

        reference = _serve_reference("sweep", self._SWEEP)
        repo_root = Path(__file__).resolve().parents[2]
        cache_dir = tmp_path / "l2"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        # Every cache lookup raises; each is treated as a miss and
        # recomputed inside the request's own deadline.
        env[faults.FAULT_SPEC_ENV] = "raise@cache-load"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, cwd=repo_root, env=env)
        try:
            line = process.stdout.readline()
            assert "listening on" in line, line
            port = int(line.split("http://127.0.0.1:", 1)[1].split()[0])
            deadline = time.monotonic() + 30
            while True:
                try:
                    with urllib.request.urlopen(
                            f"http://127.0.0.1:{port}/readyz",
                            timeout=10) as response:
                        if json.loads(response.read())["ready"]:
                            break
                except OSError:
                    pass
                assert time.monotonic() < deadline, "daemon never ready"
                time.sleep(0.1)

            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/sweep",
                data=json.dumps(self._SWEEP).encode(), method="POST")
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
                assert response.read() == reference

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
        # Zero leaked L2 temp files (atomic write-then-rename).
        leftovers = [name for name in os.listdir(cache_dir)
                     if name.startswith(".tmp-")]
        assert leftovers == []
