"""``repro serve --workers N``: the replica-tier supervisor.

One assessment daemon is single-process by design (the GIL is not the
bottleneck — the sweep kernel is), so scaling the *service* means
scaling processes: N replicas of the PR-8 daemon behind one address,
sharing warm answers through the disk L2
(:mod:`repro.serve.cachetier`) instead of through memory.

Socket strategy, in preference order:

* **SO_REUSEPORT** (Linux, modern BSDs): every replica binds + listens
  its own socket on the same address and the kernel load-balances
  accepts.  To resolve ``--port 0`` *before* spawning, the supervisor
  binds a placeholder socket with ``SO_REUSEPORT`` but **never calls
  listen()** on it — a listening-but-not-accepting socket would
  swallow its share of connections; a bound-only one just reserves the
  port number for the group.
* **Inherited fd** (no ``SO_REUSEPORT``): the supervisor binds and
  listens exactly once and passes the fd to every child
  (``pass_fds`` keeps the fd number stable across ``exec``); replicas
  accept-share from the one listener.

Supervision: a dead replica is respawned with
bounded exponential backoff (reset after a stable-uptime window), a
replica that dies instantly enough times in a row fails the whole
tier loudly instead of flapping forever, and SIGTERM drains the tier
as a unit — forward SIGTERM to every replica, wait for each graceful
exit, then clean up.

Tier-wide observability rides on the status-file directory
(:func:`repro.serve.lifecycle.read_tier_status`): each replica
publishes its own readiness; the supervisor publishes respawn counts;
any replica's ``/readyz`` aggregates both.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.serve.app import ServeConfig
from repro.serve.lifecycle import write_supervisor_status

__all__ = ["reuseport_available", "run_tier"]

#: Respawn backoff: first delay, growth, and cap — the same shape as
#: the dispatch retry policy, tuned for process restarts.
_BACKOFF_FIRST_S = 0.2
_BACKOFF_FACTOR = 2.0
_BACKOFF_MAX_S = 5.0

#: A replica alive this long gets its backoff (and flap count) reset.
_STABLE_UPTIME_S = 5.0

#: Dying faster than this after spawn counts as a "fast failure"...
_FAST_FAILURE_S = 0.5

#: ...and this many consecutive ones on a single slot fails the tier:
#: a replica that cannot even boot will not be fixed by spawning it a
#: sixth time.
_MAX_FAST_FAILURES = 5

#: Supervisor poll cadence (child liveness + status refresh).
_POLL_S = 0.05


def reuseport_available() -> bool:
    """True when this platform supports ``SO_REUSEPORT`` sharding."""
    return hasattr(socket, "SO_REUSEPORT")


def _bind_placeholder(host: str, port: int) -> socket.socket:
    """Reserve the tier's port for the REUSEPORT group — bind, NO listen.

    Listening here would enroll this socket in the kernel's accept
    load-balancing and silently swallow connections nobody accepts;
    bound-only, it just pins the port number (resolving ``port=0``)
    for the replicas that do listen.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock


def _bind_listener(host: str, port: int) -> socket.socket:
    """The single shared listener for the inherited-fd fallback."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(128)
    sock.set_inheritable(True)
    return sock


def _child_argv(config: ServeConfig, *, index: int, port: int,
                tier_dir: str, cache_dir: str,
                inherit_fd: "int | None") -> list[str]:
    """The replica's command line: the tier config plus its identity."""
    argv = [sys.executable, "-m", "repro", "serve",
            "--host", config.host,
            "--port", str(port),
            "--queue-depth", str(config.max_queue),
            "--batch-max", str(config.batch_max),
            "--default-deadline-s", str(config.default_deadline_s),
            "--max-deadline-s", str(config.max_deadline_s),
            "--cache-entries", str(config.cache_entries),
            "--janitor-interval-s", str(config.janitor_interval_s),
            "--keepalive-idle-s", str(config.keepalive_idle_s),
            "--keepalive-max-requests", str(config.keepalive_max_requests),
            "--stream-threshold-bytes", str(config.stream_threshold_bytes),
            "--cache-dir", cache_dir,
            "--cache-l2-bytes", str(config.cache_l2_bytes),
            "--replica-index", str(index),
            "--tier-dir", tier_dir]
    if inherit_fd is not None:
        argv += ["--inherit-socket", str(inherit_fd)]
    else:
        argv += ["--reuseport"]
    return argv


class _Slot:
    """One replica slot: its process, backoff state, and flap count."""

    def __init__(self, index: int):
        self.index = index
        self.proc: "subprocess.Popen | None" = None
        self.spawned_at = 0.0
        self.next_spawn_at = 0.0
        self.backoff_s = _BACKOFF_FIRST_S
        self.fast_failures = 0
        self.respawns = 0


def run_tier(config: ServeConfig) -> int:
    """Run N supervised replicas until SIGTERM drains the tier.

    Returns 0 on a graceful drain, 1 when a replica slot flaps itself
    past the fast-failure limit (the tier is torn down rather than
    left half-alive).
    """
    workers = config.workers
    own_tier_dir = config.tier_dir is None
    tier_dir = config.tier_dir or tempfile.mkdtemp(prefix="repro-tier-")
    Path(tier_dir).mkdir(parents=True, exist_ok=True)
    # Replicas must share an L2 or the tier loses its warm-answer
    # story; an unconfigured cache dir lives inside the tier dir (and
    # is cleaned up with it — cross-restart warmth needs --cache-dir).
    cache_dir = config.cache_dir or os.path.join(tier_dir, "l2")

    placeholder: "socket.socket | None" = None
    listener: "socket.socket | None" = None
    inherit_fd: "int | None" = None
    use_reuseport = reuseport_available()
    if use_reuseport:
        placeholder = _bind_placeholder(config.host, config.port)
        port = placeholder.getsockname()[1]
    else:  # pragma: no cover - exercised only on platforms without it
        listener = _bind_listener(config.host, config.port)
        inherit_fd = listener.fileno()
        port = listener.getsockname()[1]

    print(f"repro serve: listening on http://{config.host}:{port} "
          f"({workers} replicas, "
          f"{'SO_REUSEPORT' if use_reuseport else 'inherited socket'})",
          flush=True)

    draining = False

    def _on_term(signum, frame):  # noqa: ARG001 - signal signature
        nonlocal draining
        draining = True

    old_handlers = {s: signal.signal(s, _on_term)
                    for s in (signal.SIGTERM, signal.SIGINT)}

    slots = [_Slot(i) for i in range(workers)]

    def _spawn(slot: _Slot) -> None:
        argv = _child_argv(config, index=slot.index, port=port,
                           tier_dir=tier_dir, cache_dir=cache_dir,
                           inherit_fd=inherit_fd)
        pass_fds = (inherit_fd,) if inherit_fd is not None else ()
        slot.proc = subprocess.Popen(argv, pass_fds=pass_fds)
        slot.spawned_at = time.monotonic()

    def _publish() -> None:
        write_supervisor_status(
            tier_dir, pid=os.getpid(), workers=workers,
            respawns={slot.index: slot.respawns for slot in slots},
            reuseport=use_reuseport)

    exit_code = 0
    try:
        for slot in slots:
            _spawn(slot)
        _publish()
        while not draining:
            now = time.monotonic()
            for slot in slots:
                if slot.proc is not None:
                    if slot.proc.poll() is None:
                        if now - slot.spawned_at >= _STABLE_UPTIME_S:
                            slot.backoff_s = _BACKOFF_FIRST_S
                            slot.fast_failures = 0
                        continue
                    # The slot's replica died: classify and schedule.
                    uptime = now - slot.spawned_at
                    slot.proc = None
                    if uptime < _FAST_FAILURE_S:
                        slot.fast_failures += 1
                        if slot.fast_failures >= _MAX_FAST_FAILURES:
                            print(f"repro serve: replica {slot.index} "
                                  f"failed {slot.fast_failures}x at boot, "
                                  f"giving up", file=sys.stderr, flush=True)
                            return 1
                    else:
                        slot.fast_failures = 0
                    slot.next_spawn_at = now + slot.backoff_s
                    slot.backoff_s = min(slot.backoff_s * _BACKOFF_FACTOR,
                                         _BACKOFF_MAX_S)
                elif now >= slot.next_spawn_at:
                    slot.respawns += 1
                    obs.inc("serve.replica_respawns")
                    _spawn(slot)
                    _publish()
            time.sleep(_POLL_S)
    finally:
        # Whole-tier drain: forward SIGTERM, wait for graceful exits,
        # escalate to SIGKILL only on a stuck replica, then release
        # sockets and (when owned) the tier scratch directory.
        for slot in slots:
            if slot.proc is not None and slot.proc.poll() is None:
                try:
                    slot.proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        for slot in slots:
            if slot.proc is None:
                continue
            try:
                slot.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                slot.proc.kill()
                slot.proc.wait()
        for sock in (placeholder, listener):
            if sock is not None:
                sock.close()
        for signum, handler in old_handlers.items():
            signal.signal(signum, handler)
        if own_tier_dir:
            shutil.rmtree(tier_dir, ignore_errors=True)
    print("repro serve: tier drained, exiting", flush=True)
    return exit_code
