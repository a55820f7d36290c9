"""Typed reads of the ``REPRO_*`` environment settings."""

from __future__ import annotations

import os
from typing import Callable, TypeVar

T = TypeVar("T")


def flag(raw: str) -> bool:
    """An on/off setting: ``1``, ``on``, ``true`` or ``yes`` turns it on."""
    return raw.lower() in ("1", "on", "true", "yes")


def env_setting(name: str, default: T,
                parse: Callable[[str], T] = float) -> T:
    """``parse`` of the variable ``name``, or ``default`` when it is unset
    or empty.

    A value ``parse`` rejects raises :class:`ValueError` naming the
    variable: a typo must never silently select the default.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not a valid "
                         f"{parse.__name__}") from None
