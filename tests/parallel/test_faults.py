"""Chaos suite: deterministic fault injection against real fan-outs.

Every recovery path the resilience layer promises is driven end-to-end
here through real worker processes: killed workers (``kill@block``),
hung workers against the per-block deadline (``hang@block``), shm
attach failures (``raise@attach``) and segment-creation failures
(``fail@segment-create``) — each against the one real fan-out, the
Monte-Carlo band stack (directly and underneath the serving daemon),
each required to finish **bit-identical** to the serial path with every
shared-memory segment accounted for.

The autouse fixture clears ``REPRO_FAULT_SPEC`` so each test controls
its own plan; ``test_ambient_fault_spec`` re-applies whatever spec the
process was started under, which is how CI's fault-injection matrix
(one job per spec) drives this file.

Worker processes inherit the spec through the fork environment, so
every test tears the pool down *first* and sets the spec *before* the
first dispatch — the pool that forks afterwards sees the plan.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro import scenarios
from repro.parallel import faults, resilience
from repro.parallel import pool as pool_mod
from repro.parallel import shm as shm_mod
from repro.parallel.faults import FaultPlan, FaultRule, InjectedFault
from repro.parallel.shm import SharedArrayPack, live_owned_segments
from repro.scenarios import sweep
from repro.uncertainty import mc

WORKERS = 2

#: The spec this pytest process was *started* under (the CI matrix
#: job's parameter), captured before the autouse fixture clears it.
_AMBIENT_SPEC = os.environ.get(faults.FAULT_SPEC_ENV, "")


@pytest.fixture(autouse=True)
def _clean_parallel_state(monkeypatch):
    # Tear down any inherited pool so the one a test builds forks
    # *after* that test's spec is in the environment.
    pool_mod.shutdown_pool()
    resilience.reset_ladder_state()
    monkeypatch.delenv(faults.FAULT_SPEC_ENV, raising=False)
    # Retries should not slow the suite down.
    monkeypatch.setenv(resilience.BACKOFF_ENV, "0.01")
    yield
    pool_mod.shutdown_pool()
    resilience.reset_ladder_state()


def _pool_ready() -> bool:
    return shm_mod.shm_available() and pool_mod.pool_available(WORKERS)


def _inject(monkeypatch, spec: str) -> None:
    """Arm a fault spec for the *next* pool.

    ``_pool_ready`` probes (and therefore builds) a pool before the
    spec is in the environment; fork-start workers snapshot the
    environment at fork, so that pool would never see the plan.  Tear
    it down — the pool the dispatch builds forks after the spec is set.
    """
    monkeypatch.setenv(faults.FAULT_SPEC_ENV, spec)
    pool_mod.shutdown_pool()


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------

class TestFaultSpecParsing:
    def test_grammar_forms(self):
        plan = FaultPlan.parse(
            "kill@block=3, hang@block=1:5s, raise@attach,"
            " fail@segment-create, kill@block=0*2")
        assert plan.rules == (
            FaultRule("kill", "block", selector=3),
            FaultRule("hang", "block", selector=1, arg_s=5.0),
            FaultRule("raise", "attach"),
            FaultRule("fail", "segment-create"),
            FaultRule("kill", "block", selector=0, fires=2),
        )

    @pytest.mark.parametrize("text,seconds", [
        ("5s", 5.0), ("250ms", 0.25), ("1.5", 1.5), ("0.5S", 0.5),
    ])
    def test_durations(self, text, seconds):
        plan = FaultPlan.parse(f"hang@block:{text}")
        assert plan.rules[0].arg_s == seconds

    @pytest.mark.parametrize("entry", [
        "explode@block", "kill@nowhere", "kill@", "kill@block=x",
        "kill@block*0",
    ])
    def test_malformed_entries_warn_and_drop(self, entry):
        with pytest.warns(RuntimeWarning, match="malformed"):
            plan = FaultPlan.parse(f"{entry}, raise@attach")
        assert plan.rules == (FaultRule("raise", "attach"),)

    def test_empty_spec(self):
        assert FaultPlan.parse("").rules == ()
        assert FaultPlan.parse(" , ,").rules == ()

    def test_fires_bounds_attempts(self):
        rule = FaultRule("kill", "block", selector=0, fires=2)
        assert rule.matches("block", 0, attempt=0)
        assert rule.matches("block", 0, attempt=1)
        assert not rule.matches("block", 0, attempt=2)
        assert not rule.matches("block", 1, attempt=0)
        assert not rule.matches("attach", 0, attempt=0)

    def test_selectorless_rule_matches_every_index(self):
        rule = FaultRule("raise", "block")
        assert rule.matches("block", 0, attempt=0)
        assert rule.matches("block", 17, attempt=0)

    def test_active_plan_tracks_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "raise@attach")
        assert faults.active_plan().rules == (FaultRule("raise", "attach"),)
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "fail@segment-create")
        assert faults.active_plan().rules == (
            FaultRule("fail", "segment-create"),)
        monkeypatch.delenv(faults.FAULT_SPEC_ENV)
        assert faults.active_plan().rules == ()


class TestFire:
    def test_noop_without_spec(self):
        faults.fire("block", index=0, attempt=0)
        faults.fire("attach")

    def test_raise_action(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "raise@attach")
        with pytest.raises(InjectedFault) as excinfo:
            faults.fire("attach")
        assert excinfo.value.point == "attach"
        faults.fire("block", index=0, attempt=0)  # other points untouched

    def test_hang_action_sleeps_then_returns(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "hang@block:50ms")
        started = time.perf_counter()
        faults.fire("block", index=0, attempt=0)
        assert time.perf_counter() - started >= 0.05

    def test_attempt_exhausted_rule_is_silent(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "raise@block=0")
        with pytest.raises(InjectedFault):
            faults.fire("block", index=0, attempt=0)
        faults.fire("block", index=0, attempt=1)  # retries succeed


# ---------------------------------------------------------------------------
# Chaos: the real callers under injected faults
# ---------------------------------------------------------------------------

def _band_stack(study):
    """A small real value/uncertainty stack for the band fan-out."""
    grid = scenarios.ScenarioGrid.cartesian(
        scenarios.aci_scale_axis((1.0, 0.9, 0.8, 0.7)),
        scenarios.pue_axis((1.0, 1.15)),
    )
    cube = sweep(list(study.public_records), grid)
    return cube.operational_mt, cube.operational_unc


def _assert_drained():
    assert live_owned_segments() == ()
    assert shm_mod.sweep_orphaned_segments() == ()


class TestChaosMcBands:
    def _stack(self, study):
        grid = scenarios.ScenarioGrid.cartesian(
            scenarios.aci_scale_axis((1.0, 0.8)),
            scenarios.pue_axis((1.0, 1.2)),
        )
        cube = study.scenario_sweep(grid)
        return cube.operational_mt, cube.operational_unc

    def test_bands_survive_killed_worker(self, study, monkeypatch):
        if not _pool_ready():
            pytest.skip("cannot spawn worker processes")
        values, unc = self._stack(study)
        serial = mc.mc_band_stack(values, unc, n_samples=200,
                                  method="serial")
        _inject(monkeypatch, "kill@block=0")
        chaos = mc.mc_band_stack(values, unc, n_samples=200, method="shm",
                                 max_workers=WORKERS)
        assert chaos == serial
        _assert_drained()

    def test_bands_survive_attach_failure(self, study, monkeypatch):
        if not _pool_ready():
            pytest.skip("cannot spawn worker processes")
        values, unc = self._stack(study)
        serial = mc.mc_band_stack(values, unc, n_samples=200,
                                  method="serial")
        _inject(monkeypatch, "raise@attach")
        chaos = mc.mc_band_stack(values, unc, n_samples=200, method="shm",
                                 max_workers=WORKERS)
        assert chaos == serial
        _assert_drained()

    def test_bands_survive_segment_create_failure(self, study, monkeypatch):
        values, unc = self._stack(study)
        serial = mc.mc_band_stack(values, unc, n_samples=200,
                                  method="serial")
        _inject(monkeypatch, "fail@segment-create")
        chaos = mc.mc_band_stack(values, unc, n_samples=200, method="shm",
                                 max_workers=WORKERS)
        assert chaos == serial
        _assert_drained()

    def test_bands_survive_hung_worker(self, study, monkeypatch):
        if not _pool_ready():
            pytest.skip("cannot spawn worker processes")
        values, unc = self._stack(study)
        serial = mc.mc_band_stack(values, unc, n_samples=200,
                                  method="serial")
        _inject(monkeypatch, "hang@block=0:30s")
        monkeypatch.setenv(resilience.TIMEOUT_ENV, "1.5")
        started = time.perf_counter()
        chaos = mc.mc_band_stack(values, unc, n_samples=200, method="shm",
                                 max_workers=WORKERS)
        # The deadline, not the 30s hang, bounded the wall clock.
        assert time.perf_counter() - started < 20.0
        assert chaos == serial
        _assert_drained()


class TestAmbientSpec:
    """The CI fault-injection matrix: one job per ambient spec value."""

    def test_ambient_fault_spec(self, study, monkeypatch):
        if not _pool_ready():
            pytest.skip("cannot spawn worker processes")
        if _AMBIENT_SPEC:
            _inject(monkeypatch, _AMBIENT_SPEC)
        # Hang specs must meet a short deadline, not the 600s default.
        monkeypatch.setenv(resilience.TIMEOUT_ENV, "2")
        values, unc = _band_stack(study)
        bands_serial = mc.mc_band_stack(values, unc, n_samples=150,
                                        method="serial")
        bands_chaos = mc.mc_band_stack(values, unc, n_samples=150,
                                       method="shm", max_workers=WORKERS)
        assert bands_chaos == bands_serial
        _assert_drained()


class TestChaosTracing:
    """Tracing observes faults without changing them.

    Two contracts from ``docs/observability.md``: a traced chaos run
    stays bit-identical to the untraced serial reference under the
    ambient ``REPRO_FAULT_SPEC`` (CI's fault-injection matrix drives
    all five specs through here), and the trace records every dispatch
    round — retries included — so a post-mortem shows exactly how a
    degraded fan-out recovered.
    """

    def test_traced_chaos_bit_identical_under_ambient_spec(
            self, study, monkeypatch, tmp_path):
        values, unc = _band_stack(study)
        # The untraced serial reference.
        serial = mc.mc_band_stack(values, unc, n_samples=150,
                                  method="serial")
        if _AMBIENT_SPEC:
            if not _pool_ready():
                pytest.skip("cannot spawn worker processes")
            _inject(monkeypatch, _AMBIENT_SPEC)
        monkeypatch.setenv(resilience.TIMEOUT_ENV, "2")
        from repro import obs
        trace_path = tmp_path / "trace.jsonl"
        monkeypatch.setenv(obs.TRACE_ENV, str(trace_path))
        with obs.capture() as trace:
            traced = mc.mc_band_stack(values, unc, n_samples=150,
                                      method="shm", max_workers=WORKERS)
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
        _assert_drained()

    def test_trace_records_every_retry_round(self, study, monkeypatch):
        if not _pool_ready():
            pytest.skip("cannot spawn worker processes")
        from repro import obs
        values, unc = _band_stack(study)
        serial = mc.mc_band_stack(values, unc, n_samples=150,
                                  method="serial")
        _inject(monkeypatch, "kill@block=0")
        retried0 = obs.get_counter("fanout.blocks_retried")
        with obs.capture() as trace:
            chaos = mc.mc_band_stack(values, unc, n_samples=150,
                                     method="shm", max_workers=WORKERS)
        assert chaos == serial
        rounds = [r for r in trace.by_name("fanout.round")
                  if r["attrs"].get("label") == "mc-bands"]
        assert len(rounds) >= 2          # the kill cost a retry round
        round_nos = sorted(r["attrs"]["round"] for r in rounds)
        assert round_nos == list(range(len(rounds)))
        # Worker block spans came home re-parented under their round.
        blocks = trace.by_name("fanout.block")
        assert blocks
        round_ids = {r["span_id"] for r in rounds}
        assert all(b["parent_id"] in round_ids for b in blocks)
        assert obs.get_counter("fanout.blocks_retried") > retried0
        _assert_drained()


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

    The kernel-level specs (CI's ambient matrix: killed/hung workers,
    attach and segment-create failures) strike the Monte-Carlo band
    fan-out *underneath* the daemon's batches; the serve-level points (``kill@batch``,
    ``hang@request``, ``raise@cache-load``) strike the daemon itself.
    Either way every response must match the lone serial-floor
    reference byte for byte, with no shm segment left behind.
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
            if not _pool_ready():
                pytest.skip("cannot spawn worker processes")
            _inject(monkeypatch, _AMBIENT_SPEC)
        # Hang specs must meet a short per-block deadline, and the
        # recovery must fit inside the requests' default 30s budgets.
        monkeypatch.setenv(resilience.TIMEOUT_ENV, "2")
        # Let "auto" put even this small band request on the pool, so
        # the kernel-level specs strike the daemon's one fan-out.
        monkeypatch.setenv(mc.SHM_MIN_DRAWS_ENV, "0")

        async def scenario(server, post):
            results = await asyncio.gather(post("/v1/sweep", self._SWEEP),
                                           post("/v1/bands", self._BANDS))
            for (status, _, payload), reference in zip(results, references):
                assert status == 200
                assert payload == reference

        _run_serve_scenario(scenario)
        _assert_drained()

    def test_serve_survives_batch_pool_kill(self, monkeypatch):
        from repro import obs

        reference = _serve_reference("sweep", self._SWEEP)
        _inject(monkeypatch, "kill@batch=0")

        async def scenario(server, post):
            kills_before = obs.get_counter("serve.fault_pool_kills")
            status, _, payload = await post("/v1/sweep", self._SWEEP)
            assert status == 200
            assert payload == reference
            assert obs.get_counter("serve.fault_pool_kills") \
                == kills_before + 1

        _run_serve_scenario(scenario)
        _assert_drained()

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
        _assert_drained()

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
        _assert_drained()

    def test_replica_tier_chaos_drains_without_leaks(self, tmp_path):
        """One fault spec against a real ``--workers 2`` tier: every
        response still matches the serial reference byte for byte, the
        tier drains to exit 0, and nothing leaks — no orphaned shm
        segment, no half-written L2 temp file."""
        import signal
        import socket
        import subprocess
        import sys
        import urllib.request
        from pathlib import Path

        if not hasattr(socket, "SO_REUSEPORT"):
            pytest.skip("replica tier assumes SO_REUSEPORT")
        if not _pool_ready():
            pytest.skip("cannot spawn worker processes")

        reference = _serve_reference("sweep", self._SWEEP)
        repo_root = Path(__file__).resolve().parents[2]
        cache_dir = tmp_path / "l2"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        # Each replica kills its first batch's pool; the degradation
        # ladder recovers inside the request's own deadline.
        env[faults.FAULT_SPEC_ENV] = "kill@batch=0"
        env[resilience.BACKOFF_ENV] = "0.01"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--cache-dir", str(cache_dir)],
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
                        tier = json.loads(response.read()).get(
                            "replica_tier") or {}
                        if tier.get("n_ready", 0) >= 2:
                            break
                except OSError:
                    pass
                assert time.monotonic() < deadline, "tier never ready"
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
        # Zero leaked segments (the replicas swept their own), zero
        # leaked L2 temp files (atomic write-then-rename).
        assert shm_mod.sweep_orphaned_segments() == ()
        leftovers = [name for name in os.listdir(cache_dir)
                     if name.startswith(".tmp-")]
        assert leftovers == []


# ---------------------------------------------------------------------------
# The shm janitor, end-to-end
# ---------------------------------------------------------------------------

def _orphan_child() -> None:
    """Child body: own a segment, then die without any cleanup."""
    SharedArrayPack.create({"x": np.arange(64.0)})
    os._exit(5)  # skips atexit: the segment and registry file survive


class TestJanitor:
    @pytest.mark.skipif(not shm_mod.shm_available(), reason="no /dev/shm")
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork")
    def test_sweep_reclaims_orphans_of_dead_owner(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv(shm_mod.REGISTRY_DIR_ENV, str(tmp_path))
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_orphan_child)
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 5
        registry = shm_mod.registry_path(pid=child.pid)
        assert registry.is_file(), "child died before writing its registry"
        names = list(json.loads(registry.read_text())["segments"])
        assert names
        swept = shm_mod.sweep_orphaned_segments()
        assert sorted(swept) == sorted(names)
        assert not registry.exists()
        # The segments themselves are gone from /dev/shm.
        from multiprocessing import shared_memory
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        # Idempotent: nothing left to reclaim.
        assert shm_mod.sweep_orphaned_segments() == ()

    @pytest.mark.skipif(not shm_mod.shm_available(), reason="no /dev/shm")
    def test_sweep_spares_live_owners(self, tmp_path, monkeypatch):
        monkeypatch.setenv(shm_mod.REGISTRY_DIR_ENV, str(tmp_path))
        pack = SharedArrayPack.create({"x": np.arange(8.0)})
        try:
            assert shm_mod.registry_path().is_file()
            assert shm_mod.sweep_orphaned_segments() == ()
            assert np.array_equal(pack.arrays()["x"], np.arange(8.0))
        finally:
            pack.unlink()
        assert not shm_mod.registry_path().exists()

    def test_malformed_registry_files_are_removed(self, tmp_path):
        junk = tmp_path / f"{shm_mod._REGISTRY_PREFIX}999999.json"
        junk.write_text("{not json")
        assert shm_mod.sweep_orphaned_segments(registry_dir=tmp_path) == ()
        assert not junk.exists()

    @pytest.mark.skipif(not shm_mod.shm_available(), reason="no /dev/shm")
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork")
    def test_sweep_increments_orphans_swept_counter(self, tmp_path,
                                                    monkeypatch):
        from repro import obs
        monkeypatch.setenv(shm_mod.REGISTRY_DIR_ENV, str(tmp_path))
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_orphan_child)
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 5
        before = obs.get_counter("shm.orphans_swept")
        swept = shm_mod.sweep_orphaned_segments()
        assert swept
        assert obs.get_counter("shm.orphans_swept") == before + len(swept)

    def test_reset_pool_rearms_the_first_build_sweep(self):
        # The one-shot at-first-pool-build sweep must re-arm on reset:
        # a reset usually follows exactly the kind of crash that
        # orphans segments, and the serve daemon's janitor leans on it.
        pool_mod._JANITOR_RAN = True
        pool_mod._SPAWN_FAILED = True
        pool_mod.reset_pool()
        assert pool_mod._JANITOR_RAN is False
        assert pool_mod._SPAWN_FAILED is False
