"""Backward-compatibility shims for renamed keyword arguments.

The API consistency pass settled on one parameter vocabulary —
``jobs``, ``runs``, ``seed``, ``scheme``, ``protect``, ``batch`` —
across :class:`~repro.faults.campaign.Campaign`,
:class:`~repro.runtime.executor.CampaignExecutor`,
:class:`~repro.core.manager.ReliabilityManager` and the CLI.  Old
spellings keep working through :func:`resolve_renamed`, which emits a
:class:`DeprecationWarning` exactly once per (function, keyword) pair
per process and rejects calls that pass both spellings at once.

The deprecation policy (see docs/API.md) is: deprecated spellings are
kept for at least one minor release after the warning first ships and
are removed only on a major version bump.
"""

from __future__ import annotations

import warnings

from repro.errors import SpecError

#: Sentinel distinguishing "not passed" from every real value.
UNSET = object()

#: (function, old keyword) pairs that already warned this process.
_WARNED: set[tuple[str, str]] = set()


def warn_once(func: str, old: str, new: str) -> None:
    """Emit the deprecation warning for ``old`` once per process."""
    key = (func, old)
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(
        f"{func}: {old!r} is deprecated, use {new!r} instead "
        "(the old spelling will be removed in the next major release)",
        DeprecationWarning,
        stacklevel=4,
    )


def resolve_renamed(func: str, old: str, new: str, old_value, new_value):
    """Pick between a deprecated keyword and its canonical rename.

    ``old_value``/``new_value`` are the values received for the two
    spellings, either of which may be :data:`UNSET`.  Passing both is
    a :class:`~repro.errors.SpecError`; passing the old one warns once
    and wins over the canonical default.
    """
    if old_value is UNSET:
        return new_value
    if new_value is not UNSET:
        raise SpecError(
            f"{func}: got both {old!r} (deprecated) and {new!r}; "
            f"pass only {new!r}"
        )
    warn_once(func, old, new)
    return old_value


def reset_warnings() -> None:
    """Forget which deprecations already warned (test isolation)."""
    _WARNED.clear()
