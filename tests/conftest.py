"""Shared fixtures and the tier-1 watchdog.

The synthetic dataset and the full study are session-scoped: they are
deterministic for the default seed, and re-running them per test would
dominate suite runtime.

The watchdog makes the suite terminate on any host.  A session-wide
``faulthandler`` timer dumps every thread's stack and exits if the run
as a whole wedges; when ``pytest-timeout`` is not installed (its
``@pytest.mark.timeout`` would otherwise be an unknown, inert mark), a
SIGALRM wall limit per test phase fails the test that hangs instead.

The leak check fails any serve, parallel or CLI test that leaves a live
child process (read from ``/proc``; the leaked process is killed) or a
``.tmp-*`` file under its ``tmp_path`` behind.
"""

from __future__ import annotations

import contextlib
import faulthandler
import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import EasyC, SystemRecord
from repro.data.top500 import Top500Dataset, generate_top500
from repro.hardware.memory import MemoryType
from repro.study import StudyResult, Top500CarbonStudy

pytest_plugins = ("pytester",)

#: Whole-session limit: far above a healthy tier-1 run (about a minute).
SESSION_LIMIT_S = 1800
#: Per-test-phase limit when neither pytest-timeout nor a
#: ``timeout`` mark sets one (the CI runs use ``--timeout=300``).
DEFAULT_TEST_LIMIT_S = 300


#: A private copy of the real stderr: during a test, fd 2 is pytest's
#: capture file, which an exiting dump would never reach the console from.
_WATCHDOG_FD: list[int] = []


def pytest_configure(config):
    _WATCHDOG_FD.append(os.dup(sys.__stderr__.fileno()))
    faulthandler.dump_traceback_later(SESSION_LIMIT_S, exit=True,
                                      file=_WATCHDOG_FD[-1])
    if not config.pluginmanager.hasplugin("timeout"):
        config.addinivalue_line(
            "markers", "timeout(seconds): per-test wall limit "
            "(SIGALRM fallback when pytest-timeout is absent)")


def pytest_unconfigure(config):
    faulthandler.cancel_dump_traceback_later()
    while _WATCHDOG_FD:
        os.close(_WATCHDOG_FD.pop())


class WallLimitExceeded(Exception):
    """Raised into a test phase that ran past its wall limit."""


@contextlib.contextmanager
def _wall_limit(item):
    """Fail the running phase of ``item`` after its wall limit."""
    if (item.config.pluginmanager.hasplugin("timeout")
            or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return
    mark = item.get_closest_marker("timeout")
    limit = float(mark.args[0]) if mark and mark.args else DEFAULT_TEST_LIMIT_S

    def expire(signum, frame):
        raise WallLimitExceeded(
            f"{item.nodeid} exceeded its {limit:g} s wall limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    with _wall_limit(item):
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with _wall_limit(item):
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    with _wall_limit(item):
        yield


#: Test paths, relative to this directory, that start processes or
#: write files through temp-then-rename, and so get the leak check.
LEAK_CHECKED = ("serve/", "parallel/", "test_fleets_and_cli.py",
                "obs/test_profile_cli.py")
#: How long a just-signalled child may take to exit before it counts.
LEAK_GRACE_S = 1.0


def _live_children() -> set[int]:
    """PIDs of this process's children that are not zombies.

    Every thread's ``children`` list is read, because a child belongs
    to the thread that started it.  Empty where ``/proc`` lacks them.
    """
    pids: set[int] = set()
    task_dir = Path(f"/proc/{os.getpid()}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return pids
    for task in tasks:
        try:
            pids.update(int(pid) for pid in
                        (task / "children").read_text().split())
        except OSError:
            continue                 # the thread has exited
    live = set()
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue                 # already reaped
        if stat.rsplit(")", 1)[1].split()[0] != "Z":
            live.add(pid)
    return live


def _kill_and_reap(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


@pytest.fixture(autouse=True)
def _leak_check(request):
    """Fail the test if it leaves a child process or a ``.tmp-`` file."""
    relative = request.path.relative_to(Path(__file__).parent).as_posix()
    if not relative.startswith(LEAK_CHECKED):
        yield
        return
    tmp_path = (request.getfixturevalue("tmp_path")
                if "tmp_path" in request.fixturenames else None)
    before = _live_children()
    yield
    deadline = time.monotonic() + LEAK_GRACE_S
    while (leaked := _live_children() - before) \
            and time.monotonic() < deadline:
        time.sleep(0.02)
    for pid in leaked:
        _kill_and_reap(pid)
    problems = [f"leaked child process {pid}" for pid in sorted(leaked)]
    if tmp_path is not None:
        problems += [f"leaked temp file {path.relative_to(tmp_path)}"
                     for path in sorted(tmp_path.rglob(".tmp-*"))]
    if problems:
        pytest.fail("; ".join(problems), pytrace=False)


@pytest.fixture(scope="session")
def dataset() -> Top500Dataset:
    """The default synthetic Top500 list."""
    return generate_top500()


@pytest.fixture(scope="session")
def study(dataset: Top500Dataset) -> StudyResult:
    """The full model-path study, run once."""
    return Top500CarbonStudy().run(dataset)


@pytest.fixture()
def easyc() -> EasyC:
    return EasyC()


@pytest.fixture()
def frontier_like() -> SystemRecord:
    """A fully specified accelerated system (Frontier-shaped)."""
    return SystemRecord(
        rank=2, name="Frontier", country="United States", region="us-tva",
        rmax_tflops=1.353e6, rpeak_tflops=2.056e6, power_kw=22_786.0,
        processor="AMD Optimized 3rd Generation EPYC 64C 2GHz",
        accelerator="AMD Instinct MI250X",
        total_cores=9408 * 64 + 37632 * 220,
        accelerator_cores=37632 * 220,
        n_nodes=9408, n_cpus=9408, n_gpus=37632,
        memory_gb=9408 * 512.0, memory_type=MemoryType.DDR4,
        ssd_gb=716e6, year=2022,
    )


@pytest.fixture()
def cpu_only_record() -> SystemRecord:
    """A CPU-only mid-list system with component data but no power."""
    return SystemRecord(
        rank=250, name="MidCluster", country="Germany",
        rmax_tflops=5_000.0, rpeak_tflops=6_500.0,
        processor="epyc-7763", total_cores=2000 * 64,
        n_nodes=1000, year=2021,
    )


@pytest.fixture()
def bare_record() -> SystemRecord:
    """A system with only the always-present fields (dark system)."""
    return SystemRecord(rank=400, rmax_tflops=3_000.0, rpeak_tflops=4_000.0,
                        country="United States")
