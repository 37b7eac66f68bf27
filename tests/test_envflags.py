"""The normalized boolean environment-flag grammar.

The regression this pins: a ``REPRO_*`` flag set to ``0`` used to
read as *on*, because flags were read as bare string truthiness.
``env_flag`` gives every ``REPRO_*`` boolean one grammar; these tests
are the spec.
"""

from __future__ import annotations

import warnings

import pytest

from repro import envflags
from repro.envflags import env_flag

FLAG = "REPRO_TEST_FLAG"


@pytest.mark.parametrize("raw", ["1", "true", "TRUE", "yes", "on", " On "])
def test_true_spellings(monkeypatch, raw):
    monkeypatch.setenv(FLAG, raw)
    assert env_flag(FLAG) is True
    assert env_flag(FLAG, default=True) is True


@pytest.mark.parametrize("raw", ["0", "false", "False", "no", "off", ""])
def test_false_spellings(monkeypatch, raw):
    monkeypatch.setenv(FLAG, raw)
    assert env_flag(FLAG) is False
    assert env_flag(FLAG, default=True) is False


def test_unset_returns_default(monkeypatch):
    monkeypatch.delenv(FLAG, raising=False)
    assert env_flag(FLAG) is False
    assert env_flag(FLAG, default=True) is True


def test_malformed_warns_once_and_returns_default(monkeypatch):
    monkeypatch.setenv(FLAG, "maybe")
    with pytest.warns(RuntimeWarning, match="not a recognized boolean"):
        assert env_flag(FLAG) is False
    # Same (name, value): consulted on every dispatch, warned once.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert env_flag(FLAG, default=True) is True
    # A different malformed value warns again.
    monkeypatch.setenv(FLAG, "perhaps")
    with pytest.warns(RuntimeWarning):
        env_flag(FLAG)


def test_warned_registry_is_bounded_per_pair(monkeypatch):
    before = len(envflags._WARNED)
    monkeypatch.setenv(FLAG, "kinda")
    with pytest.warns(RuntimeWarning):
        env_flag(FLAG)
    env_flag(FLAG)
    env_flag(FLAG)
    assert len(envflags._WARNED) == before + 1
