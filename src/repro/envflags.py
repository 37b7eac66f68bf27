"""Normalized parsing of ``REPRO_*`` environment knobs.

Before this module, each boolean flag was read with a bare
``os.environ.get(name)`` truthiness test, so a flag set to ``0`` was
*on* — any non-empty string counted as true — and
each numeric override hand-rolled its own ``int()``/``float()`` with
ad-hoc (or missing) error handling.  Three functions give every knob
one grammar:

* :func:`env_flag` — booleans.  True: ``1``, ``true``, ``yes``, ``on``
  (case-insensitive); false: ``0``, ``false``, ``no``, ``off``, or the
  empty string.
* :func:`env_int` / :func:`env_float` — numeric overrides, with an
  optional ``minimum`` bound so "positive integer" knobs reject zero
  and negatives in one place.

All three share the failure contract: unset returns the caller's
``default``; a malformed (or out-of-bound) value raises a
:class:`RuntimeWarning` **once** per distinct name/value pair and
returns the ``default``.  Like every environment knob in this library,
parsing never raises — a typo in a tuning flag must not make
``import repro`` unimportable or a steady-state dispatch fail.
"""

from __future__ import annotations

import os
import warnings

__all__ = ["env_flag", "env_int", "env_float"]

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off", ""})

#: (name, raw value) pairs already warned about, so a knob consulted on
#: every call warns exactly once.  Re-armed by :func:`repro.obs.reset_warnings`.
_WARNED: set[tuple[str, str]] = set()


def _warn_once(name: str, raw: str, problem: str, default) -> None:
    key = (name, raw)
    if key not in _WARNED:
        _WARNED.add(key)
        warnings.warn(f"{name}={raw!r} {problem}; treating it as "
                      f"{default}", RuntimeWarning, stacklevel=3)


def env_flag(name: str, default: bool = False) -> bool:
    """The boolean value of environment flag ``name``.

    Unset returns ``default``; malformed values warn once and return
    ``default``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    _warn_once(name, raw, "is not a recognized boolean "
               "(use 1/true/yes/on or 0/false/no/off)", default)
    return default


def env_int(name: str, default: "int | None" = None, *,
            minimum: "int | None" = None) -> "int | None":
    """The integer value of environment override ``name``.

    Unset (or empty) returns ``default``; a value that does not parse
    as an integer, or parses below ``minimum``, warns once and returns
    ``default``.  ``default=None`` lets callers distinguish "no
    override" from any real value.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        _warn_once(name, raw, "is not an integer", default)
        return default
    if minimum is not None and value < minimum:
        _warn_once(name, raw, f"is below the minimum of {minimum}", default)
        return default
    return value


def env_float(name: str, default: "float | None" = None, *,
              minimum: "float | None" = None) -> "float | None":
    """The float value of environment override ``name``.

    Same contract as :func:`env_int`: unset → ``default``; malformed
    or below ``minimum`` → warn once, ``default``.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        _warn_once(name, raw, "is not a number", default)
        return default
    if minimum is not None and value < minimum:
        _warn_once(name, raw, f"is below the minimum of {minimum:g}", default)
        return default
    return value
