"""Zero-copy shared-memory substrate for the Monte-Carlo band fan-out.

Pickling a band stack's value/uncertainty arrays into every task would
cost more than the draws it parallelizes.  :class:`SharedArrayPack`
places any named set of numpy arrays into **one**
``multiprocessing.shared_memory`` segment (64-byte aligned offsets);
the picklable :class:`PackHandle` that describes it is a few hundred
bytes, so a task payload costs the same whatever the stack size.
Workers :func:`attach` zero-copy views (cached per process, so a
persistent pool attaches each segment once).

Lifecycle discipline (asserted by ``tests/parallel/test_shm.py``):

* every segment this process creates is recorded in an owner registry
  until unlinked — :func:`live_owned_segments` exposes it so tests can
  assert leak-freedom after exceptions;
* per-call packs are unlinked in ``finally`` by their callers, and an
  atexit hook unlinks anything left (PID-guarded, so forked workers
  never unlink their parent's segments);
* worker-side attachments are unregistered from the process's
  ``resource_tracker`` — the owner is the single tracker of record,
  which avoids both premature unlinks (spawn-start workers) and
  double-unlink warnings (fork-start workers);
* every owner mirrors its registry to a JSON file beside the segments
  (see the janitor section at the bottom), and
  :func:`sweep_orphaned_segments` unlinks what a *crashed* owner left
  behind — the leak window no in-process bookkeeping can close.

When ``/dev/shm`` is unavailable (:func:`shm_available` probes once;
``REPRO_DISABLE_SHM=1`` forces it off) callers take their serial path
and produce identical results.
"""

from __future__ import annotations

import atexit
import json
import mmap
import os
import pathlib
import tempfile
import time
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro import obs
from repro.envflags import env_flag
from repro.parallel import faults

__all__ = [
    "ArraySpec",
    "PackHandle",
    "SharedArrayPack",
    "attach",
    "shm_available",
    "live_owned_segments",
    "registry_path",
    "sweep_orphaned_segments",
]

#: Set truthy (1/true/yes/on) to force the no-shared-memory fallback.
DISABLE_ENV = "REPRO_DISABLE_SHM"
#: Where owner registries are written (default: /dev/shm itself).
REGISTRY_DIR_ENV = "REPRO_SHM_REGISTRY_DIR"

_ALIGN = 64
_PROBED: bool | None = None

#: Owner bookkeeping: segment name -> (SharedMemory, creating PID).
#: An entry lives from create to unlink; tests assert it drains.
_OWNED: dict[str, tuple[shared_memory.SharedMemory, int]] = {}
#: Creation timestamps for the on-disk registry (segment name -> epoch).
_CREATED_AT: dict[str, float] = {}


def shm_available() -> bool:
    """Whether POSIX shared memory works here (probed once, cached).

    The probe creates, maps and unlinks one segment through
    ``_posixshmem`` (the layer under ``SharedMemory``) because
    ``SharedMemory`` registers every segment with the
    ``resource_tracker`` and so starts the tracker process: asking
    whether shared memory works (``repro doctor``, ``/readyz``) must
    not spawn anything.  Workers only ever attach untracked, so the
    tracker is needed — and started — by the first owned segment.
    """
    global _PROBED
    if env_flag(DISABLE_ENV):
        return False
    if _PROBED is None:
        try:
            import _posixshmem
            name = f"/repro-probe-{os.getpid()}-{os.urandom(4).hex()}"
            fd = _posixshmem.shm_open(name, os.O_CREAT | os.O_EXCL | os.O_RDWR,
                                      mode=0o600)
            try:
                os.ftruncate(fd, 8)
                mmap.mmap(fd, 8).close()
            finally:
                os.close(fd)
                _posixshmem.shm_unlink(name)
            _PROBED = True
        except Exception:
            _PROBED = False
    return _PROBED


def live_owned_segments() -> tuple[str, ...]:
    """Names of segments this process created and has not unlinked."""
    pid = os.getpid()
    return tuple(name for name, (_, owner) in _OWNED.items() if owner == pid)


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one array inside a pack's segment."""

    name: str
    dtype: str          # numpy dtype string, e.g. "<f8"
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class PackHandle:
    """Picklable description of a pack: ships instead of the arrays."""

    segment: str
    specs: tuple[ArraySpec, ...]
    nbytes: int
    readonly: bool = False


def _views(buf, specs, readonly: bool) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for spec in specs:
        arr = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                         buffer=buf, offset=spec.offset)
        if readonly:
            arr.flags.writeable = False
        arrays[spec.name] = arr
    return arrays


class SharedArrayPack:
    """Owner-side handle to one segment holding named arrays.

    Create in the parent, ship :attr:`handle` to workers, read results
    through :meth:`arrays`, and :meth:`unlink` in a ``finally`` —
    callers must copy anything they keep before unlinking.
    """

    def __init__(self, segment: shared_memory.SharedMemory,
                 handle: PackHandle) -> None:
        self._segment: shared_memory.SharedMemory | None = segment
        self.handle = handle

    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray], *,
               readonly: bool = False) -> "SharedArrayPack":
        """Place ``arrays`` into one fresh segment (one memcpy each)."""
        # Fault point: fires before any allocation, so an injected
        # creation failure leaves nothing to leak (the real-world
        # analog is tmpfs ENOSPC, which fails the same way).
        faults.fire("segment-create")
        specs: list[ArraySpec] = []
        sources: list[np.ndarray] = []
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
            specs.append(ArraySpec(name=name, dtype=arr.dtype.str,
                                   shape=arr.shape, offset=offset))
            sources.append(arr)
            offset += arr.nbytes
        segment = shared_memory.SharedMemory(create=True,
                                             size=max(offset, 1))
        _OWNED[segment.name] = (segment, os.getpid())
        _CREATED_AT[segment.name] = time.time()
        _write_registry()
        handle = PackHandle(segment=segment.name, specs=tuple(specs),
                            nbytes=max(offset, 1), readonly=readonly)
        obs.inc("shm.segments_created")
        obs.inc("shm.bytes_placed", max(offset, 1))
        pack = cls(segment, handle)
        try:
            for spec, arr in zip(specs, sources):
                view = np.ndarray(spec.shape, dtype=arr.dtype,
                                  buffer=segment.buf, offset=spec.offset)
                view[...] = arr
        except BaseException:
            pack.unlink()
            raise
        return pack

    def arrays(self) -> dict[str, np.ndarray]:
        """Owner-side views into the segment (fresh views per call)."""
        if self._segment is None:
            raise ValueError(f"pack {self.handle.segment} already unlinked")
        return _views(self._segment.buf, self.handle.specs,
                      self.handle.readonly)

    def unlink(self) -> None:
        """Destroy the segment (idempotent; safe with live views)."""
        segment, self._segment = self._segment, None
        if segment is None:
            return
        _OWNED.pop(self.handle.segment, None)
        _CREATED_AT.pop(self.handle.segment, None)
        _write_registry()
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        try:
            segment.close()
        except BufferError:
            # A caller still holds views; the OS frees the (already
            # unlinked) memory when the last mapping dies.
            pass

    def __enter__(self) -> "SharedArrayPack":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()


# ---------------------------------------------------------------------------
# Worker-side attachment (cached per process)
# ---------------------------------------------------------------------------

_ATTACHED: "OrderedDict[str, tuple[shared_memory.SharedMemory, tuple[ArraySpec, ...], bool]]" = OrderedDict()
_ATTACH_MAX = 8


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without registering it for tracking.

    Python 3.11's ``SharedMemory`` registers even pure attachments with
    the process's ``resource_tracker``; under a spawn start method the
    worker's own tracker would then *unlink the owner's segment* when
    the worker exits, and under fork the extra registration turns the
    owner's unlink into a tracker error.  The owner stays the single
    tracker of record, so registration is suppressed for the duration
    of the attach (single-threaded worker loops; per-process module
    state).
    """
    from multiprocessing import resource_tracker
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach(handle: PackHandle) -> dict[str, np.ndarray]:
    """Zero-copy views of a pack's arrays (attachment cached per process)."""
    faults.fire("attach")
    entry = _ATTACHED.get(handle.segment)
    if entry is None:
        segment = _attach_untracked(handle.segment)
        obs.inc("shm.attaches")
        entry = (segment, handle.specs, handle.readonly)
        _ATTACHED[handle.segment] = entry
        while len(_ATTACHED) > _ATTACH_MAX:
            _, (old, _, _) = _ATTACHED.popitem(last=False)
            try:
                old.close()
            except BufferError:
                pass
    else:
        _ATTACHED.move_to_end(handle.segment)
    segment, specs, readonly = entry
    return _views(segment.buf, specs, readonly)


def _cleanup_at_exit() -> None:
    pid = os.getpid()
    for name, (segment, owner) in list(_OWNED.items()):
        if owner != pid:
            continue
        _OWNED.pop(name, None)
        _CREATED_AT.pop(name, None)
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        try:
            segment.close()
        except BufferError:
            pass
    _remove_registry()


atexit.register(_cleanup_at_exit)


# ---------------------------------------------------------------------------
# The shm janitor: crash-leak registry + orphan sweep
# ---------------------------------------------------------------------------
#
# ``live_owned_segments`` can only observe leaks from inside a live
# process; a process killed between segment create and unlink leaves
# an orphan in ``/dev/shm`` that nothing in-process can ever see.  The
# janitor closes that window from the *outside*: every owning process
# mirrors its registry (name, PID, created-at) to a small JSON file
# next to the segments themselves, and ``sweep_orphaned_segments`` —
# run at first pool construction and by ``repro doctor`` — unlinks
# segments whose recorded owner is dead, then removes the stale
# registry file.  Registry writes are best-effort and atomic
# (write-then-rename); a host where the registry directory is
# unwritable simply degrades to the old in-process-only bookkeeping.

_REGISTRY_PREFIX = "repro-shm-registry-"


def _registry_dir() -> pathlib.Path:
    override = os.environ.get(REGISTRY_DIR_ENV)
    if override:
        return pathlib.Path(override)
    dev_shm = pathlib.Path("/dev/shm")
    if dev_shm.is_dir() and os.access(dev_shm, os.W_OK):
        return dev_shm
    return pathlib.Path(tempfile.gettempdir())


def registry_path(pid: int | None = None) -> pathlib.Path:
    """The registry file for ``pid`` (default: this process)."""
    pid = os.getpid() if pid is None else pid
    return _registry_dir() / f"{_REGISTRY_PREFIX}{pid}.json"


def _write_registry() -> None:
    """Mirror this process's owned segments to its registry file."""
    pid = os.getpid()
    segments = {name: _CREATED_AT.get(name, 0.0)
                for name, (_, owner) in _OWNED.items() if owner == pid}
    path = registry_path(pid)
    try:
        if not segments:
            path.unlink(missing_ok=True)
            return
        payload = json.dumps({"pid": pid, "segments": segments})
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        pass


def _remove_registry() -> None:
    try:
        registry_path().unlink(missing_ok=True)
    except OSError:
        pass


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` is a running process (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # Most commonly EPERM: the process exists but is not ours.
        return True
    return True


def _unlink_named_segment(name: str) -> bool:
    """Unlink one segment by name; ``False`` if it no longer exists."""
    try:
        segment = _attach_untracked(name)
    except FileNotFoundError:
        return False
    except OSError:
        return False
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    try:
        segment.close()
    except BufferError:
        pass
    return True


def sweep_orphaned_segments(
        registry_dir: "str | os.PathLike | None" = None) -> tuple[str, ...]:
    """Unlink segments whose recorded owner process is dead.

    Scans the registry directory for owner registries, skips live
    owners (including this process), unlinks every segment a dead
    owner left behind, and removes the stale registry file (malformed
    files are removed too — they can only be junk from a partial
    write).  Returns the names of the segments actually unlinked.
    Never raises: the janitor runs inside pool construction and
    ``repro doctor``, neither of which may fail because of somebody
    else's crash debris.
    """
    base = (pathlib.Path(registry_dir) if registry_dir is not None
            else _registry_dir())
    removed: list[str] = []
    try:
        candidates = sorted(base.glob(_REGISTRY_PREFIX + "*.json"))
    except OSError:
        return ()
    for path in candidates:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            pid = data["pid"]
            segments = data.get("segments") or {}
            if not isinstance(pid, int) or not isinstance(segments, dict):
                raise ValueError("malformed registry")
        except (OSError, ValueError, KeyError, TypeError):
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        for name in segments:
            if isinstance(name, str) and _unlink_named_segment(name):
                removed.append(name)
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass
    if removed:
        obs.inc("shm.orphans_swept", len(removed))
    return tuple(removed)
