"""Validated environment-variable parsing for operational knobs.

Operational limits (retry budgets, lease durations, queue bounds) are set per
deployment, not per call site, so they arrive through the environment.  A
mistyped knob must fail *at parse time* with a message naming the variable,
the offending value, and the constraint it violated — not surface later as a
confusing downstream error.  These helpers are the one place that contract is
implemented; every ``REPRO_*`` knob goes through them.
"""

from __future__ import annotations

import math
import os
from typing import Optional

__all__ = ["env_float", "env_int"]


def _raw(name: str) -> Optional[str]:
    value = os.environ.get(name)
    if value is None or value.strip() == "":
        return None
    return value.strip()


def env_int(name: str, default: int, *, minimum: Optional[int] = None) -> int:
    """Read an integer knob from ``os.environ[name]``, validated eagerly.

    Unset (or blank) falls back to ``default``.  A non-integer value or one
    below ``minimum`` raises ``ValueError`` naming the variable, the value,
    and the constraint.
    """
    raw = _raw(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"environment knob {name} must be an integer, got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise ValueError(
            f"environment knob {name} must be >= {minimum}, got {value}"
        )
    return value


def env_float(
    name: str,
    default: float,
    *,
    minimum: Optional[float] = None,
    exclusive: bool = False,
) -> float:
    """Read a float knob from ``os.environ[name]``, validated eagerly.

    Unset (or blank) falls back to ``default``.  A non-numeric value, NaN
    included, raises ``ValueError`` naming the variable and the value;
    ``minimum`` bounds the result (strictly when ``exclusive`` is true, e.g.
    a lease duration must be ``> 0``, not ``>= 0``).  Infinity is a number.
    """
    raw = _raw(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise ValueError(f"environment knob {name} must be a number, got {raw!r}")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise ValueError(
                f"environment knob {name} must be > {minimum}, got {value}"
            )
        if not exclusive and value < minimum:
            raise ValueError(
                f"environment knob {name} must be >= {minimum}, got {value}"
            )
    return value
