"""Set-associative cache model with LRU replacement and per-object stats.

Used for both the per-SM L1 data caches and the per-channel L2 slices.
Stores are modelled write-through / no-write-allocate, the usual GPU
L1 policy, so only loads allocate lines.

The model is functional-timing hybrid: it tracks hit/miss state
exactly (tag arrays, LRU order) but does not hold data — data lives in
:class:`repro.arch.address_space.DeviceMemory` and the timing layer
composes latencies.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int
    assoc: int
    line_bytes: int = 128

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ConfigError("cache dimensions must be positive")
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ConfigError(
                f"cache size {self.size_bytes} is not a multiple of "
                f"assoc*line ({self.assoc}*{self.line_bytes})"
            )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bypassed: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """An LRU set-associative tag array.

    ``lookup`` probes without side effects; ``access`` probes and, on a
    miss with ``allocate=True``, fills the line (evicting LRU).  The
    reliability schemes use ``allocate=False`` for replica transactions
    so verification traffic does not pollute the L1.
    """

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self.stats = CacheStats()
        # The geometry as plain ints: the per-access hot path reads
        # them instead of re-deriving ``config.n_sets``.
        self._line_bytes = config.line_bytes
        self._n_sets = config.n_sets
        self._assoc = config.assoc
        # Each set is an OrderedDict keyed by *line number* -> None;
        # last entry = MRU.  A line maps to exactly one (set, tag) pair,
        # so the line number identifies the tag within its set.
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self._n_sets)
        ]
        #: ``(session, ring, always, evict_site)`` while a trace session
        #: is attached (``ring``: the session's event list; ``always``:
        #: nothing is sampled out).
        self._trace = None

    def _index(self, addr: int) -> tuple[OrderedDict[int, None], int]:
        """``(set, line)`` of a byte address: the cache's one indexing
        rule, inlined verbatim by ``lookup`` and ``access``."""
        line = addr // self._line_bytes
        return self._sets[line % self._n_sets], line

    def lookup(self, addr: int) -> bool:
        """Probe only: is the line present?  No stats, no LRU update."""
        line = addr // self._line_bytes
        return line in self._sets[line % self._n_sets]

    def access(self, addr: int, allocate: bool = True) -> bool:
        """Access a line; returns True on hit.  Misses allocate (LRU)."""
        stats = self.stats
        stats.accesses += 1
        line = addr // self._line_bytes
        cache_set = self._sets[line % self._n_sets]
        if line in cache_set:
            cache_set.move_to_end(line)
            stats.hits += 1
            return True
        stats.misses += 1
        if allocate:
            self._fill(cache_set, line, addr)
        else:
            stats.bypassed += 1
        return False

    def fill(self, addr: int) -> None:
        """Install a line (response path fill) without counting an access."""
        cache_set, line = self._index(addr)
        if line in cache_set:
            cache_set.move_to_end(line)
            return
        self._fill(cache_set, line, addr)

    def _fill(self, cache_set: OrderedDict[int, None], line: int,
              addr: int) -> None:
        if len(cache_set) >= self._assoc:
            cache_set.popitem(last=False)  # evict LRU
            self.stats.evictions += 1
            trace = self._trace
            if trace is not None:
                tracer, buf, always, evict_site = trace
                if (always or tracer.sampled()) and evict_site >= 0:
                    buf += (evict_site, tracer.now, 0,
                            tracer.ctx_obj or tracer.attribute(addr), None)
        cache_set[line] = None

    def invalidate(self, addr: int) -> bool:
        """Drop a line if present; returns True if it was resident."""
        cache_set, line = self._index(addr)
        return cache_set.pop(line, "absent") != "absent"

    def flush(self) -> None:
        """Drop every resident line (stats are kept)."""
        for cache_set in self._sets:
            cache_set.clear()

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def reset_stats(self) -> None:
        """Zero the counters without touching cache contents."""
        self.stats = CacheStats()

    def _attach_tracer(self, tracer, pid: int, tid: int) -> None:
        """Trace this cache's evictions as (sampled) instants on track
        ``(pid, tid)``, at the request context's cycle."""
        self._trace = (tracer, tracer._buf,
                       tracer.config.sample_rate >= 1.0,
                       tracer.site("cache", f"{self.name} evict", pid, tid,
                                   ph="i"))
