"""Shared-memory pool layer: identity, fallback and failure modes.

The fan-out contract: the shm band path produces bit-identical bands
to the serial kernel; every unavailability (no ``/dev/shm``, no
process spawning) degrades to the serial path with identical results;
worker death degrades through the supervised dispatcher to identical
serial output; and no shared-memory segment outlives its owner's
bookkeeping — even when a batch dies mid-flight.
"""

import os

import numpy as np
import pytest

from repro.errors import FanOutExhaustedError
from repro.parallel import pool as pool_mod
from repro.parallel import resilience
from repro.parallel import shm as shm_mod
from repro.parallel.pool import WorkerCrashError
from repro.parallel.resilience import RetryPolicy, supervised_map
from repro.parallel.shm import SharedArrayPack, attach, live_owned_segments

WORKERS = 2


@pytest.fixture(autouse=True)
def _reset_ladder():
    yield
    resilience.reset_ladder_state()


def _pool_ready() -> bool:
    return shm_mod.shm_available() and pool_mod.pool_available(WORKERS)


# ---------------------------------------------------------------------------
# SharedArrayPack
# ---------------------------------------------------------------------------

class TestSharedArrayPack:
    @pytest.mark.skipif(not shm_mod.shm_available(), reason="no /dev/shm")
    def test_round_trip_and_bookkeeping(self):
        arrays = {
            "floats": np.linspace(0.0, 1.0, 101),
            "ints": np.arange(7, dtype=np.int64),
            "bools": np.array([True, False, True]),
            "matrix": np.arange(12, dtype=np.float64).reshape(3, 4),
        }
        pack = SharedArrayPack.create(arrays)
        assert pack.handle.segment in live_owned_segments()
        for name, source in arrays.items():
            assert np.array_equal(pack.arrays()[name], source)
            assert np.array_equal(attach(pack.handle)[name], source)
        pack.unlink()
        pack.unlink()                       # idempotent
        assert pack.handle.segment not in live_owned_segments()
        with pytest.raises(ValueError):
            pack.arrays()

    @pytest.mark.skipif(not shm_mod.shm_available(), reason="no /dev/shm")
    def test_readonly_views(self):
        pack = SharedArrayPack.create({"x": np.arange(4.0)}, readonly=True)
        try:
            view = attach(pack.handle)["x"]
            with pytest.raises(ValueError):
                view[0] = 99.0
        finally:
            pack.unlink()

    @pytest.mark.skipif(not shm_mod.shm_available(), reason="no /dev/shm")
    def test_context_manager_unlinks(self):
        with SharedArrayPack.create({"x": np.zeros(8)}) as pack:
            name = pack.handle.segment
            assert name in live_owned_segments()
        assert name not in live_owned_segments()

    def test_disable_env_forces_unavailable(self, monkeypatch):
        monkeypatch.setenv(shm_mod.DISABLE_ENV, "1")
        assert not shm_mod.shm_available()


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------

def _die(_task) -> None:
    os._exit(3)


def _echo(task):
    return task


#: One attempt per block: a worker death exhausts the budget at once.
_ONE_ATTEMPT = RetryPolicy(attempts=1)


class TestFailureModes:
    def test_worker_death_raises_cleanly_and_pool_recovers(self):
        if not pool_mod.pool_available(WORKERS):
            pytest.skip("cannot spawn worker processes")
        with pytest.raises(FanOutExhaustedError):
            supervised_map(_die, [1, 2, 3, 4], max_workers=WORKERS,
                           policy=_ONE_ATTEMPT)
        # The broken pool was discarded; the next batch runs clean.
        assert supervised_map(_echo, [1, 2, 3],
                              max_workers=WORKERS) == [1, 2, 3]

    def test_ordinary_exceptions_propagate_unwrapped(self):
        def boom(_):
            raise RuntimeError("task failure")
        with pytest.raises(RuntimeError, match="task failure"):
            supervised_map(boom, [1])

    @pytest.mark.skipif(not shm_mod.shm_available(), reason="no /dev/shm")
    def test_no_leaked_segments_after_midbatch_exception(self, monkeypatch):
        if not _pool_ready():
            pytest.skip("cannot spawn worker processes")
        from repro.uncertainty import mc

        values = np.abs(np.random.default_rng(0).normal(100, 10, (4, 50)))
        unc = np.full((4, 50), 0.2)

        def explode(*args, **kwargs):
            raise RuntimeError("mid-batch death")

        monkeypatch.setattr(resilience, "supervised_map", explode)
        with pytest.raises(RuntimeError, match="mid-batch death"):
            mc.mc_band_stack(values, unc, n_samples=100, method="shm",
                             max_workers=WORKERS)
        # Both per-call packs (input stack + output stats) were
        # unlinked by the finally blocks.
        assert live_owned_segments() == ()


# ---------------------------------------------------------------------------
# Monte-Carlo band fan-out: fallback identity + failure modes
# ---------------------------------------------------------------------------

def _band_cube(study):
    """A small real cube whose bands exercise the mc fan-out."""
    from repro import scenarios
    grid = scenarios.ScenarioGrid.cartesian(
        scenarios.aci_scale_axis((1.0, 0.8)),
        scenarios.pue_axis((1.0, 1.2)),
    )
    return study.scenario_sweep(grid)


class TestMcBandFanOut:
    """The batched band sampler over the pool: serial-fallback identity
    under every disable knob, ladder degradation (not an escaping
    WorkerCrashError) on worker death, and no leaked segments either
    way."""

    def test_no_shm_falls_back_to_identical_bands(self, study, monkeypatch):
        cube = _band_cube(study)
        serial = cube.bands("operational", n_samples=300, method="serial")
        monkeypatch.setenv(shm_mod.DISABLE_ENV, "1")
        fallback = cube.bands("operational", n_samples=300, method="shm")
        assert fallback == serial
        assert live_owned_segments() == ()

    def test_no_processes_falls_back_to_identical_bands(self, study,
                                                        monkeypatch):
        cube = _band_cube(study)
        serial = cube.bands("operational", n_samples=300, method="serial")
        monkeypatch.setenv(pool_mod.DISABLE_ENV, "1")
        fallback = cube.bands("operational", n_samples=300, method="shm")
        assert fallback == serial
        assert live_owned_segments() == ()

    @pytest.mark.skipif(not shm_mod.shm_available(), reason="no /dev/shm")
    def test_shm_bands_match_serial(self, study):
        if not _pool_ready():
            pytest.skip("cannot spawn worker processes")
        cube = _band_cube(study)
        serial = cube.bands("embodied", n_samples=300, method="serial")
        pooled = cube.bands("embodied", n_samples=300, method="shm",
                            max_workers=WORKERS)
        assert pooled == serial

    @pytest.mark.skipif(not shm_mod.shm_available(), reason="no /dev/shm")
    def test_worker_crash_mid_draw_block_degrades_and_leaks_nothing(
            self, study, monkeypatch):
        """A crashed fan-out no longer escapes ``mc_band_stack``: the
        ladder degrades to the serial kernel with identical bands."""
        if not _pool_ready():
            pytest.skip("cannot spawn worker processes")
        from repro.uncertainty import mc

        cube = _band_cube(study)
        serial = mc.mc_band_stack(cube.operational_mt,
                                  cube.operational_unc,
                                  n_samples=100, method="serial")

        def crash(fn, tasks, **kwargs):
            # What a worker death beyond the retry budget produces.
            raise WorkerCrashError("a worker process died mid-batch")

        monkeypatch.setattr(resilience, "supervised_map", crash)
        degraded = mc.mc_band_stack(cube.operational_mt,
                                    cube.operational_unc,
                                    n_samples=100, method="shm",
                                    max_workers=WORKERS)
        assert degraded == serial
        # Both per-call segments (input stack + output stats) were
        # unlinked by the finally blocks.
        assert live_owned_segments() == ()

    @pytest.mark.skipif(not shm_mod.shm_available(), reason="no /dev/shm")
    def test_real_worker_death_recovers_end_to_end(self):
        """A draw-block task whose worker actually dies: the dispatcher
        raises once the attempt budget is spent, and the engine's own
        entry point recovers on a fresh pool afterwards."""
        if not _pool_ready():
            pytest.skip("cannot spawn worker processes")
        from repro.uncertainty import mc

        values = np.abs(np.random.default_rng(0).normal(100, 10, (4, 50)))
        unc = np.full((4, 50), 0.2)
        in_pack = SharedArrayPack.create({"values": values, "unc": unc})
        out_pack = SharedArrayPack.create({"stats": np.empty((4, 5))})
        try:
            tasks = [(in_pack.handle, out_pack.handle, 0, 2, 100, 1),
                     (in_pack.handle, out_pack.handle, 2, 4, 100, 1)]
            with pytest.raises(FanOutExhaustedError):
                supervised_map(_die, tasks, max_workers=WORKERS,
                               policy=_ONE_ATTEMPT)
            # The engine's own entry point still works afterwards: the
            # broken pool was discarded and a fresh one spawns.
            stack = mc.mc_band_stack(values, unc, n_samples=100,
                                     method="shm", max_workers=WORKERS)
            assert stack.shape == (4,)
        finally:
            in_pack.unlink()
            out_pack.unlink()
        assert live_owned_segments() == ()
