"""Shared plumbing for the benchmark: statistics, spans, processes, hygiene.

Nothing here imports the program under test; the workload modules do,
and only through its public surfaces.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Minimum number of samples that must lie beyond a reported tail.
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values) -> float:
    values = sorted(values)
    if not values:
        return float("nan")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, n_samples)``.  The value is the order
    statistic with exactly ``TAIL_BEYOND`` samples above it; with fewer
    than ``TAIL_BEYOND + 1`` samples it falls back to the maximum and
    says so through the percentile (100).
    """
    values = sorted(values)
    n = len(values)
    if n == 0:
        return float("nan"), float("nan"), 0
    if n <= TAIL_BEYOND:
        return float(values[-1]), 100.0, n
    rank = n - TAIL_BEYOND            # 1-based rank of the reported sample
    return float(values[rank - 1]), 100.0 * rank / n, n


def describe(values) -> dict:
    """Median, tail and count of a sample, for the informational lines."""
    value, pct, n = tail(values)
    return {"p50": median(values), "tail": value, "tail_pct": round(pct, 2),
            "n": n}


# ---------------------------------------------------------------------------
# Benchmark-side spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``(name, start, end, parent, op)``; ``op`` groups the spans
    of one operation.  Disabled tracers record nothing and cost one
    attribute test per span.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = 0

    def span(self, name: str):
        return _Span(self, name)

    def add(self, name: str, start: float, end: float,
            parent: "int | None" = None) -> int:
        """Record a span measured elsewhere (e.g. in a child process)."""
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "op": self.op})
        return len(self.spans) - 1

    def self_times(self) -> dict[str, list[float]]:
        """Self time (duration minus children) per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, list[float]] = {}
        for i, s in enumerate(self.spans):
            out.setdefault(s["name"], []).append(
                s["end"] - s["start"] - child_time[i])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.index = None

    def __enter__(self):
        t = self.tracer
        if t.enabled:
            parent = t._stack[-1] if t._stack else None
            self.index = t.add(self.name, time.perf_counter(), 0.0, parent)
            t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if t.enabled:
            t.spans[self.index]["end"] = time.perf_counter()
            t._stack.pop()
        return False


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def _stat_fields(pid: int) -> "list[str] | None":
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces.
    return raw[raw.rindex(")") + 2:].split()


def _all_pids() -> list[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def children_of(pid: int) -> list[int]:
    """Live (non-zombie) direct children of ``pid``."""
    out = []
    for cand in _all_pids():
        fields = _stat_fields(cand)
        if fields and int(fields[1]) == pid and fields[0] != "Z":
            out.append(cand)
    return out


def cpu_seconds(pid: int) -> float:
    """User+system CPU of ``pid``, its live children, and the children
    it has already waited for."""
    tick = os.sysconf("SC_CLK_TCK")
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    total = sum(int(x) for x in fields[11:15])  # utime stime cutime cstime
    for child in children_of(pid):
        cf = _stat_fields(child)
        if cf is not None:
            total += sum(int(x) for x in cf[11:15])
    return total / tick


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return float("nan")


def sessions_alive(sids: set[int]) -> list[int]:
    """Pids of live processes in any of the given sessions."""
    out = []
    for pid in _all_pids():
        fields = _stat_fields(pid)
        if fields and int(fields[3]) in sids and fields[0] != "Z":
            out.append(pid)
    return out


class Procs:
    """Every process the benchmark starts, each in its own session.

    Each session is ended by process group (SIGTERM, a bounded wait, then
    SIGKILL); any process found alive after its session leader ended is
    killed and counted in ``leaked``.
    """

    def __init__(self):
        self.sids: set[int] = set()
        self.live: list[subprocess.Popen] = []
        self.leaked = 0

    def spawn(self, argv, *, env, cwd, stdout=None, stderr=None,
              stdin=subprocess.DEVNULL) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=stdin,
                                stdout=stdout, stderr=stderr,
                                start_new_session=True)
        self.sids.add(proc.pid)
        self.live.append(proc)
        return proc

    def run(self, argv, *, env, cwd, timeout: float, stdout=None,
            stderr=subprocess.DEVNULL):
        """Run one command to completion in its own session.

        Returns ``(exit_code, wall_s, cpu_s, maxrss_mb)``; a command
        past ``timeout`` has its process group killed and exit code
        ``None``.  CPU and peak memory come from ``wait4`` and include
        descendants the command waited for.
        """
        start = time.perf_counter()
        proc = self.spawn(argv, env=env, cwd=cwd, stdout=stdout,
                          stderr=stderr)
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            _signal_group(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        # A command's leftover descendants die with it.
        self.leaked += self.stop_session(proc.pid)
        code = None if timed_out.is_set() else proc.returncode
        return (code, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)

    def stop(self, proc: subprocess.Popen, grace_s: float = 10.0) -> "int | None":
        """SIGTERM the process group, wait ``grace_s``, then SIGKILL."""
        _signal_group(proc.pid, signal.SIGTERM)
        try:
            code = proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            _signal_group(proc.pid, signal.SIGKILL)
            proc.wait(timeout=grace_s)
            code = None
        if proc in self.live:
            self.live.remove(proc)
        self.leaked += self.stop_session(proc.pid)
        return code

    def stop_session(self, sid: int, grace_s: float = 3.0,
                     settle_s: float = 1.0) -> int:
        """Kill whatever is left of one session; returns how many.

        Processes first get ``settle_s`` to exit on their own: a
        multiprocessing resource tracker exits just after its parent, and
        that is not a leak.
        """
        deadline = time.monotonic() + settle_s
        while (left := sessions_alive({sid})) and time.monotonic() < deadline:
            time.sleep(0.02)
        if not left:
            return 0
        _signal_group(sid, signal.SIGTERM)
        for pid in left:
            _kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline and sessions_alive({sid}):
            time.sleep(0.02)
        for pid in sessions_alive({sid}):
            _kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline and sessions_alive({sid}):
            time.sleep(0.02)
        return len(left)

    def reap_all(self) -> int:
        """Stop everything still running; returns the leaked-process count."""
        for proc in list(self.live):
            self.stop(proc, grace_s=5.0)
        for sid in sorted(self.sids):
            self.leaked += self.stop_session(sid)
        return self.leaked


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def _kill(pid: int, sig: int) -> None:
    try:
        os.kill(pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


# ---------------------------------------------------------------------------
# Run environment
# ---------------------------------------------------------------------------

SHM_DIR = Path("/dev/shm")


def shm_entries() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


class RunEnv:
    """A fresh, private environment for one benchmark run.

    Everything the program may write to (``TMPDIR``, ``HOME``,
    ``XDG_CACHE_HOME``, the shm registry, the daemon's cache dir) lives
    under ``<root>/.bench_tmp/<run>``, and inherited ``REPRO_*`` knobs are
    scrubbed so the program runs with its defaults.
    """

    def __init__(self, root: Path, label: str):
        self.root = root
        self.dir = root / ".bench_tmp" / f"{label}-{os.getpid()}-{time.time_ns()}"
        self.dir.mkdir(parents=True)
        self.shm_before = shm_entries()
        self.procs = Procs()

    def fresh_dir(self, name: str) -> Path:
        path = self.dir / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def env(self, home: "Path | None" = None) -> dict:
        """Environment for a program process; ``home`` makes it fresh."""
        base = home or self.fresh_dir("home")
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_") and k not in (
                   "PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP",
                   "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
                   "PYTHONOPTIMIZE", "PYTHONWARNINGS", "PYTHONDEVMODE")}
        for sub in ("tmp", "cache", "shmreg"):
            (base / sub).mkdir(parents=True, exist_ok=True)
        env.update({
            "PYTHONPATH": str(self.root / "src"),
            "HOME": str(base),
            "TMPDIR": str(base / "tmp"),
            "XDG_CACHE_HOME": str(base / "cache"),
            "REPRO_SHM_REGISTRY_DIR": str(base / "shmreg"),
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": env.get("OMP_NUM_THREADS", "1"),
        })
        return env

    def leaks(self) -> dict:
        """Reap the run's processes and count what the program left."""
        leaked_procs = self.procs.reap_all()
        new_shm = sorted(name for name in shm_entries() - self.shm_before
                         if name.startswith(("psm_", "repro", "wnsm_")))
        for name in new_shm:
            try:
                (SHM_DIR / name).unlink()
            except OSError:
                pass
        tmp_files = sum(1 for p in self.dir.rglob(".tmp-*"))
        return {"leak.processes": leaked_procs,
                "leak.shm_segments": len(new_shm),
                "leak.tmp_files": tmp_files}

    def remove(self) -> None:
        import shutil
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass


class Ctx:
    """What one workload run needs: where, how long, which seed, traced?"""

    def __init__(self, root: Path, seed: int, seconds: float, trace: bool,
                 smoke: bool, runenv: RunEnv, deadline: float):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.runenv = runenv
        self.deadline = deadline        # time.monotonic() hard stop
        self.tracer = Tracer(trace)

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


class Result:
    """A workload's outcome: metrics, counts, output checks, notes."""

    def __init__(self):
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.info: dict = {}
        self.valid = True

    def check(self, name: str, ok: bool) -> None:
        """Record an output check; a failed check is a failed operation."""
        self.checks[name] = bool(ok) and self.checks.get(name, True)
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and self.valid


def python() -> str:
    return sys.executable or "python3"


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies per state)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to others between snapshots."""
    if len(before) < 8 or len(after) < 8:
        return float("nan")
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


def host_facts(root: Path) -> dict:
    """Host and toolchain facts recorded with every result."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "loadavg_start": os.getloadavg()}

