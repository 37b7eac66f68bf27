"""Request model and the coalescing batch evaluator.

The daemon's throughput lever is the 2-D sweep kernel: evaluating
``S`` scenarios over one fleet costs one frame lookup, one lowering
pass with cross-scenario sharing, and one broadcast — so *coalescing*
concurrent requests for the same fleet into a single kernel call is
strictly cheaper than running them back to back.  Correctness rides on
the kernel's row-independence contract (every cube row is bit-identical
to the scalar per-scenario reference regardless of which other rows
share the batch, ``docs/scenarios.md``): a request's response is
computed from *its own row slice* of the batched cube, so a coalesced
response is byte-for-byte the response a lone request would have
gotten.  The chaos suite asserts exactly that, under every CI fault
spec.

Deadline semantics: a batch runs under one
:func:`~repro.deadline.deadline_scope` sized to the
*tightest* member's remaining budget.  When the scope expires
mid-batch, members whose own deadlines have passed are failed with
:class:`~repro.errors.DeadlineExceededError` and the survivors are
re-queued at the front of the admission queue — each split removes at
least one member, so a batch can never loop without progress.
"""

from __future__ import annotations

import asyncio
import contextvars
import dataclasses
import enum
import functools
import json
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import obs
from repro.errors import DeadlineExceededError, ReproError
from repro.serve import faults
from repro.deadline import check_deadline, deadline_scope
from repro.serve.cache import canonical_digest

__all__ = ["RequestError", "ParsedRequest", "BatchEntry", "Batcher",
           "parse_request", "fleet_records", "fleet_content_hash",
           "build_specs", "evaluate_group", "ACCEPTANCE_GRID_AXES"]

#: Request kinds, by endpoint.
_KINDS = ("assess", "sweep", "bands")

#: The axis grammar, in canonical evaluation order.  Axis order is
#: *fixed* (not body order) so logically-equal requests lower to the
#: same spec sequence and share one cache entry.
_AXIS_ORDER = ("aci_scale", "pue", "utilization", "lifetime")

#: The named 64-scenario acceptance grid (same axes as the CLI's
#: ``scenarios --grid acceptance`` and the throughput benchmark).
ACCEPTANCE_GRID_AXES: dict[str, tuple[float, ...]] = {
    "aci_scale": (1.0, 0.9, 0.8, 0.7),
    "pue": (1.0, 1.1, 1.2, 1.3),
    "utilization": (0.5, 0.65, 0.8, 0.95),
}

_FOOTPRINTS = ("operational", "embodied", "embodied_annualized")

#: Exceptions that count as *infrastructure* failure for the breaker
#: (a client's bad input must never trip the service into degraded
#: mode).
_INFRA_FAILURES = (faults.InjectedFault, OSError, MemoryError)


class RequestError(ReproError):
    """A request body that cannot be evaluated (HTTP 400)."""


# ---------------------------------------------------------------------------
# Parsing and canonicalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParsedRequest:
    """One validated request, in canonical form.

    Canonical means: axes in fixed order with float-normalized values,
    defaults resolved — two bodies asking the same question parse to
    equal objects and digest to the same cache key.

    ``fleet_key`` names the fleet: the builtin name, or ``"inline:"``
    plus the digest of the canonical inline systems.  It keys the
    daemon's warm records and is an inline fleet's identity in
    :func:`cache_key` (the canonical items fully determine the
    records, so no second digest of the records is needed).
    """

    kind: str
    fleet_name: "str | None"            # builtin fleet, or None = inline
    systems: "tuple[tuple, ...] | None"  # canonical inline record items
    fleet_key: str
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    mode: str
    footprint: str
    n_samples: int
    seed: int
    deadline_s: float


def _float_list(name: str, value: Any) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise RequestError(f"axis {name!r} must be a non-empty list")
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise RequestError(f"axis {name!r} has non-numeric values") from None


def parse_request(kind: str, body: Any, *,
                  default_deadline_s: float,
                  max_deadline_s: float) -> ParsedRequest:
    """Validate and canonicalize one request body.

    Raises :class:`RequestError` (→ HTTP 400) on anything malformed;
    never lets a client error reach the evaluator.
    """
    if kind not in _KINDS:
        raise RequestError(f"unknown request kind {kind!r}")
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object")
    known = {"fleet", "systems", "axes", "grid", "mode", "footprint",
             "n_samples", "seed", "deadline_s"}
    stray = sorted(set(body) - known)
    if stray:
        raise RequestError(f"unknown field(s): {', '.join(stray)}")

    fleet_name = body.get("fleet")
    systems = body.get("systems")
    if (fleet_name is None) == (systems is None):
        raise RequestError("provide exactly one of 'fleet' or 'systems'")
    canonical_systems: "tuple[tuple, ...] | None" = None
    if fleet_name is not None:
        from repro.fleets import BUILTIN_FLEETS
        if fleet_name not in BUILTIN_FLEETS:
            raise RequestError(
                f"unknown fleet {fleet_name!r} "
                f"(have {sorted(BUILTIN_FLEETS)})")
        fleet_key = fleet_name
    else:
        canonical_systems, digest = _canonical_systems(systems)
        fleet_key = "inline:" + digest

    axes_body = body.get("axes")
    grid = body.get("grid")
    if kind == "assess":
        if axes_body is not None or grid is not None:
            raise RequestError(
                "'assess' takes no scenario axes (use /v1/sweep)")
        axes: tuple[tuple[str, tuple[float, ...]], ...] = ()
    else:
        if grid is not None:
            if axes_body is not None:
                raise RequestError("'grid' names a fixed grid; drop 'axes'")
            if grid != "acceptance":
                raise RequestError(f"unknown grid {grid!r}")
            axes_body = {name: list(values)
                         for name, values in ACCEPTANCE_GRID_AXES.items()}
        if not isinstance(axes_body, dict) or not axes_body:
            raise RequestError(
                f"{kind!r} needs 'axes' (a non-empty object) or 'grid'")
        stray_axes = sorted(set(axes_body) - set(_AXIS_ORDER))
        if stray_axes:
            raise RequestError(
                f"unknown axis(es): {', '.join(stray_axes)} "
                f"(have {', '.join(_AXIS_ORDER)})")
        axes = tuple((name, _float_list(name, axes_body[name]))
                     for name in _AXIS_ORDER if name in axes_body)

    mode = body.get("mode", "cartesian")
    if mode not in ("cartesian", "zip"):
        raise RequestError(f"unknown mode {mode!r}")
    if mode == "zip" and len({len(values) for _, values in axes} or {0}) > 1:
        raise RequestError("zip mode needs equal-length axes")

    footprint = body.get("footprint", "operational")
    if footprint not in _FOOTPRINTS:
        raise RequestError(f"unknown footprint {footprint!r}; "
                           f"expected one of {_FOOTPRINTS}")

    from repro.core.uncertainty import DEFAULT_MC_SAMPLES, DEFAULT_MC_SEED
    n_samples = body.get("n_samples", DEFAULT_MC_SAMPLES)
    seed = body.get("seed", DEFAULT_MC_SEED)
    if kind != "bands" and ("n_samples" in body or "seed" in body):
        raise RequestError("'n_samples'/'seed' only apply to /v1/bands")
    if not isinstance(n_samples, int) or n_samples < 1:
        raise RequestError(f"n_samples must be a positive integer, "
                           f"got {n_samples!r}")
    if not isinstance(seed, int):
        raise RequestError(f"seed must be an integer, got {seed!r}")

    deadline_s = body.get("deadline_s", default_deadline_s)
    try:
        deadline_s = float(deadline_s)
    except (TypeError, ValueError):
        raise RequestError(
            f"deadline_s must be a number, got {deadline_s!r}") from None
    if not 0.0 < deadline_s <= max_deadline_s:
        raise RequestError(
            f"deadline_s must be in (0, {max_deadline_s:g}], "
            f"got {deadline_s:g}")

    return ParsedRequest(
        kind=kind, fleet_name=fleet_name, systems=canonical_systems,
        fleet_key=fleet_key, axes=axes, mode=mode, footprint=footprint,
        n_samples=n_samples, seed=seed, deadline_s=deadline_s)


def _canonical_systems(systems: Any) -> tuple[tuple[tuple, ...], str]:
    """Inline systems → canonical ``((field, value), ...)`` items and
    their digest.

    The digest is taken over the validated objects themselves
    (:func:`canonical_digest` sorts their keys), so it names exactly
    the canonical items without serializing the item tuples again.
    """
    from repro.core.record import SystemRecord

    if not isinstance(systems, list) or not systems:
        raise RequestError("'systems' must be a non-empty list of objects")
    field_names = {f.name for f in dataclasses.fields(SystemRecord)}
    out = []
    for i, item in enumerate(systems):
        if not isinstance(item, dict):
            raise RequestError(f"systems[{i}] must be an object")
        stray = sorted(set(item) - field_names)
        if stray:
            raise RequestError(
                f"systems[{i}] has unknown field(s): {', '.join(stray)}")
        out.append(tuple(sorted(item.items())))
    try:
        digest = canonical_digest(systems)
    except TypeError as exc:
        raise RequestError(f"'systems' must be plain JSON data: {exc}") \
            from None
    return tuple(out), digest


def fleet_records(parsed: ParsedRequest) -> tuple:
    """Construct the record tuple a parsed request names.

    Builtin fleets return the module-level singletons (identity-stable,
    so the frame cache stays warm across requests); inline systems are
    validated through the :class:`SystemRecord` constructor (→
    :class:`RequestError` on bad values).
    """
    if parsed.fleet_name is not None:
        from repro.fleets import BUILTIN_FLEETS
        return BUILTIN_FLEETS[parsed.fleet_name].systems
    from repro.core.record import SystemRecord
    from repro.hardware.memory import MemoryType

    records = []
    for i, item in enumerate(parsed.systems or ()):
        kwargs = dict(item)
        if isinstance(kwargs.get("memory_type"), str):
            try:
                kwargs["memory_type"] = MemoryType.parse(
                    kwargs["memory_type"])
            except Exception as exc:
                raise RequestError(f"systems[{i}]: {exc}") from exc
        try:
            records.append(SystemRecord(**kwargs))
        except (TypeError, ValueError) as exc:
            raise RequestError(f"systems[{i}]: {exc}") from exc
    return tuple(records)


def _canonical_field_value(value: Any) -> Any:
    """One record field value as plain JSON data.

    :func:`canonical_digest` refuses non-JSON types outright, so the
    one non-JSON field type records carry — enums (``memory_type``) —
    is lowered *explicitly* to a tagged pair that cannot collide with
    a plain string field holding the same characters.
    """
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.name]
    return value


def fleet_content_hash(records) -> str:
    """Content (not identity) hash of a fleet's records.

    Two fleets with equal field values hash equal whatever objects
    carry them; a mutated fleet hashes different.  This is the cache
    key's defense against serving one fleet's numbers for another.
    The daemon hashes each builtin fleet once; an inline fleet's
    identity is its :attr:`ParsedRequest.fleet_key` instead.
    """
    items = [[(f.name, _canonical_field_value(getattr(record, f.name)))
              for f in dataclasses.fields(record)]
             for record in records]
    return canonical_digest(items)


def cache_key(parsed: ParsedRequest, fleet_hash: str) -> str:
    """The response-cache key: fleet identity × canonical lowering × seed.

    ``fleet_hash`` is a builtin fleet's :func:`fleet_content_hash` or
    an inline fleet's ``fleet_key``.
    """
    return canonical_digest({
        "kind": parsed.kind,
        "fleet": fleet_hash,
        "axes": [[name, list(values)] for name, values in parsed.axes],
        "mode": parsed.mode,
        "footprint": parsed.footprint,
        "n_samples": parsed.n_samples,
        "seed": parsed.seed,
    })


def build_specs(parsed: ParsedRequest) -> tuple:
    """Lower a parsed request to its scenario specs (canonical order).

    Memoized on the axes and mode: specs are frozen, so every request
    for the same grid shares one spec tuple instead of composing it
    again.  The memo keys each value by its bits (``float.hex``),
    because ``-0.0 == 0.0`` yet the two name different specs.
    """
    return _lowered_specs(
        tuple((name, tuple(map(float.hex, values)))
              for name, values in parsed.axes),
        parsed.mode)


@functools.lru_cache(maxsize=128)
def _lowered_specs(axes_bits: tuple, mode: str) -> tuple:
    from repro import scenarios

    if not axes_bits:
        return (scenarios.baseline_spec(),)
    builders = {
        "aci_scale": scenarios.aci_scale_axis,
        "pue": scenarios.pue_axis,
        "utilization": scenarios.utilization_axis,
        "lifetime": scenarios.lifetime_axis,
    }
    try:
        axis_specs = [builders[name](tuple(map(float.fromhex, bits)))
                      for name, bits in axes_bits]
        if len(axis_specs) == 1:
            return tuple(axis_specs[0])
        grid = (scenarios.ScenarioGrid.zipped(*axis_specs)
                if mode == "zip"
                else scenarios.ScenarioGrid.cartesian(*axis_specs))
        return grid.specs()
    except ValueError as exc:
        raise RequestError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Batch entries and evaluation
# ---------------------------------------------------------------------------

class BatchEntry:
    """One admitted request waiting for (or riding in) a batch."""

    def __init__(self, parsed: ParsedRequest, records: tuple, key: str):
        self.parsed = parsed
        self.records = records
        self.fleet_key = parsed.fleet_key
        self.cache_key = key
        self.deadline = time.monotonic() + parsed.deadline_s
        self.future: asyncio.Future = \
            asyncio.get_running_loop().create_future()

    def fail(self, exc: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(exc)

    def succeed(self, payload: str) -> None:
        if not self.future.done():
            self.future.set_result(payload)

    def expired_error(self) -> DeadlineExceededError:
        return DeadlineExceededError(label="request",
                                     budget_s=self.parsed.deadline_s)


def evaluate_group(records, parsed_list, *, serial_only: bool,
                   budget_s: "float | None") -> list[str]:
    """One kernel call for a group of same-fleet requests.

    Runs in an executor thread under a :func:`deadline_scope` of
    ``budget_s`` (``None``: unbounded), checked between requests and
    inside the band kernel.  Returns one payload JSON string per
    request, each computed from that request's own row slice — the
    serial reference for request *i* is this same function called with
    ``[parsed_list[i]]``, which is exactly what the coalescing
    bit-identity tests assert.  The sweep always runs in-process;
    ``serial_only`` pins the daemon's one fan-out, the Monte-Carlo
    band stack, to its serial kernel (byte-identical bands).
    """
    from repro.scenarios import sweep

    specs_all: list = []
    slices: list[slice] = []
    for parsed in parsed_list:
        specs = build_specs(parsed)
        slices.append(slice(len(specs_all), len(specs_all) + len(specs)))
        specs_all.extend(specs)

    band_method = "serial" if serial_only else "auto"
    payloads = []
    with deadline_scope(budget_s):
        check_deadline("serve-batch")
        cube = sweep(list(records), tuple(specs_all))
        for parsed, sl in zip(parsed_list, slices):
            check_deadline("serve-batch")
            payloads.append(_payload(parsed, cube, sl, band_method))
    return payloads


def _payload(parsed: ParsedRequest, cube, sl: slice,
             band_method: str) -> str:
    """One request's response body from its rows of the batched cube."""
    n_systems = cube.n_systems
    body: dict[str, Any] = {
        "kind": parsed.kind,
        "fleet": parsed.fleet_name or "inline",
        "n_systems": n_systems,
    }
    if parsed.kind == "assess":
        footprints = {}
        for footprint in _FOOTPRINTS:
            row = cube.values(footprint)[sl][0]
            footprints[footprint] = {
                "total_mt": float(np.nansum(row)),
                "covered": int(np.count_nonzero(~np.isnan(row))),
            }
        body["footprints"] = footprints
        return json.dumps(body)

    values = cube.values(parsed.footprint)[sl]
    names = [spec.name for spec in cube.specs[sl]]
    body["footprint"] = parsed.footprint
    body["n_scenarios"] = len(names)
    rows: list[dict[str, Any]] = [
        {"name": name,
         "total_mt": float(np.nansum(row)),
         "covered": int(np.count_nonzero(~np.isnan(row)))}
        for name, row in zip(names, values)]
    if parsed.kind == "bands":
        from repro.uncertainty.mc import mc_band_stack

        # Batch-shape independence (docs/uncertainty.md): the stack
        # over this request's row slice is bit-identical to the stack
        # a lone request would draw, whatever the batch looked like.
        stack = mc_band_stack(values, cube.uncertainty(parsed.footprint)[sl],
                              n_samples=parsed.n_samples, seed=parsed.seed,
                              method=band_method)
        body["n_samples"] = parsed.n_samples
        body["seed"] = parsed.seed
        for i, row in enumerate(rows):
            row["band"] = {
                "mean_mt": float(stack.mean_mt[i]),
                "std_mt": float(stack.std_mt[i]),
                "p5_mt": float(stack.p5_mt[i]),
                "p50_mt": float(stack.p50_mt[i]),
                "p95_mt": float(stack.p95_mt[i]),
            }
    body["scenarios"] = rows
    return json.dumps(body)


# ---------------------------------------------------------------------------
# The batch loop
# ---------------------------------------------------------------------------

class Batcher:
    """Drains the admission queue; one kernel call per fleet per batch."""

    def __init__(self, admission, breaker, warm, cache):
        self.admission = admission
        self.breaker = breaker
        self.warm = warm
        self.cache = cache
        self.batch_no = 0
        self._in_flight = False

    @property
    def in_flight(self) -> bool:
        return self._in_flight

    async def run(self) -> None:
        """The daemon's batch loop (cancelled at shutdown)."""
        while True:
            batch = await self.admission.take_batch()
            self._in_flight = True
            try:
                await self.process(batch)
            finally:
                self._in_flight = False

    async def process(self, batch: list[BatchEntry]) -> None:
        """Run one drained batch: fault point, expiry cull, per-fleet
        groups."""
        ordinal = self.batch_no
        self.batch_no += 1
        obs.inc("serve.batches")

        now = time.monotonic()
        live: list[BatchEntry] = []
        for entry in batch:
            if entry.deadline <= now:
                obs.inc("serve.deadline_expired")
                entry.fail(entry.expired_error())
            else:
                live.append(entry)
        if not live:
            return

        rule = faults.matching("batch", index=ordinal)
        if rule is not None:
            if rule.action == "hang":
                await asyncio.sleep(rule.arg_s if rule.arg_s is not None
                                    else 30.0)
            else:
                # kill/raise/fail: the batch fails in-process (the
                # daemon itself must survive to observe the recovery).
                exc = faults.InjectedFault("batch", detail=f"batch={ordinal}")
                self.breaker.record_failure()
                for entry in live:
                    entry.fail(exc)
                return

        groups: dict[str, list[BatchEntry]] = {}
        for entry in live:
            groups.setdefault(entry.fleet_key, []).append(entry)
        if len(groups) > 1:
            obs.inc("serve.batch_fleet_groups", len(groups) - 1)
        for entries in groups.values():
            await self._run_group(entries)

    async def _run_group(self, entries: list[BatchEntry]) -> None:
        loop = asyncio.get_running_loop()
        budget_s = min(e.deadline for e in entries) - time.monotonic()
        serial_only = self.breaker.serial_only
        records = entries[0].records
        parsed_list = [e.parsed for e in entries]
        obs.inc("serve.requests_coalesced", len(entries) - 1)

        context = contextvars.copy_context()

        def work() -> list[str]:
            with obs.span("serve.batch", requests=len(parsed_list),
                          serial_only=serial_only):
                return evaluate_group(records, parsed_list,
                                      serial_only=serial_only,
                                      budget_s=budget_s)

        start = time.monotonic()
        try:
            payloads = await loop.run_in_executor(None, context.run, work)
        except DeadlineExceededError:
            self._split_expired(entries)
            return
        except _INFRA_FAILURES as exc:
            # Batch-level infrastructure failure: count it toward the
            # breaker, drop the warm state (single-flight rebuilds it),
            # fail the members.
            obs.inc("serve.batch_failures")
            self.breaker.record_failure()
            self.warm.invalidate(entries[0].fleet_key)
            for entry in entries:
                entry.fail(exc)
            return
        except Exception as exc:
            # A request-content error (bad axis value surviving parse,
            # model misconfiguration): the *requests* fail, the
            # service is healthy — never a breaker event.
            for entry in entries:
                entry.fail(exc)
            return
        self.breaker.record_success()
        self.admission.observe_batch_latency(time.monotonic() - start)
        for entry, payload in zip(entries, payloads):
            self.cache.put(entry.cache_key, payload)
            entry.succeed(payload)

    def _split_expired(self, entries: list[BatchEntry]) -> None:
        """Deadline split: fail the expired, re-queue the survivors.

        Progress guarantee: at least one entry (the tightest deadline —
        the one whose budget sized the scope) is always removed, so a
        pathological clock can never make a batch re-queue forever.
        """
        now = time.monotonic()
        expired = [e for e in entries if e.deadline <= now]
        survivors = [e for e in entries if e.deadline > now]
        if not expired:
            tightest = min(entries, key=lambda e: e.deadline)
            expired = [tightest]
            survivors = [e for e in entries if e is not tightest]
        for entry in expired:
            obs.inc("serve.deadline_expired")
            entry.fail(entry.expired_error())
        obs.inc("serve.requests_requeued", len(survivors))
        for entry in reversed(survivors):
            self.admission.requeue(entry)
