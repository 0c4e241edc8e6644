"""The one home of an application's offline artifacts.

An application's pristine device memory, validated warp-level trace
and fault-free golden output — the paper's one-time offline analysis
— are built here and nowhere else, once per process, and shared by
everything that needs them: the
:class:`~repro.core.manager.ReliabilityManager` profiles the same
memory object its campaigns inject into, instrumentation-style
discovery and the timing simulator replay the same trace, and every
:class:`~repro.faults.campaign.Campaign` of a sweep (one per scheme x
protection-level x fault-grid cell) compares against the same golden
output.  A parallel campaign's workers rebuild (or fork-inherit) the
context of the application they are shipped.

The cache key is structural: application class plus every scalar
constructor-derived attribute (seed, input sizes, ...).  Two
applications constructed with identical parameters are deterministic
twins, so sharing their artifacts is safe; everything handed out is
treated as frozen (campaigns clone the pristine memory per run, never
write it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.arch.address_space import DeviceMemory
    from repro.kernels.base import GpuApplication
    from repro.kernels.trace import AppTrace


def app_cache_key(app: "GpuApplication") -> tuple:
    """Structural identity of an application instance.

    Class identity plus every scalar attribute; array attributes are
    derived deterministically from the scalars (the application seed),
    so they never need to participate.
    """
    scalars = tuple(sorted(
        (name, value)
        for name, value in vars(app).items()
        if isinstance(value, (bool, int, float, str))
    ))
    return (type(app).__module__, type(app).__qualname__, scalars)


class AppContext:
    """Lazily computed, process-shared artifacts of one application.

    Everything here must be treated as immutable by consumers: the
    pristine memory is cloned per run, the golden output is only
    compared against, and the trace is replayed read-only.
    """

    def __init__(self, app: "GpuApplication"):
        self.app = app
        self._pristine: "DeviceMemory | None" = None
        self._golden: "np.ndarray | None" = None
        self._trace: "AppTrace | None" = None

    @property
    def pristine(self) -> "DeviceMemory":
        """Pristine device memory with the app's allocations (frozen)."""
        if self._pristine is None:
            self._pristine = self.app.fresh_memory()
        return self._pristine

    @property
    def golden(self) -> "np.ndarray":
        """The fault-free baseline output."""
        if self._golden is None:
            self._golden = self.app.golden_output()
        return self._golden

    @property
    def trace(self) -> "AppTrace":
        """The validated warp-level memory trace."""
        if self._trace is None:
            trace = self.app.build_trace(self.pristine)
            trace.validate()
            self._trace = trace
        return self._trace


_CONTEXTS: dict[tuple, AppContext] = {}
_HITS = 0
_MISSES = 0


def app_context(app: "GpuApplication") -> AppContext:
    """The process-wide :class:`AppContext` for this application."""
    global _HITS, _MISSES
    key = app_cache_key(app)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        _MISSES += 1
        ctx = AppContext(app)
        _CONTEXTS[key] = ctx
    else:
        _HITS += 1
    return ctx


def clear_app_cache() -> None:
    """Drop every cached context and reset the hit/miss tallies."""
    global _HITS, _MISSES
    _CONTEXTS.clear()
    _HITS = 0
    _MISSES = 0


def cache_info() -> dict[str, int]:
    """Introspection: resident contexts plus lookup hit/miss tallies."""
    return {"entries": len(_CONTEXTS), "hits": _HITS, "misses": _MISSES}
