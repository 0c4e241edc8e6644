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

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


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
        # Each set is an OrderedDict tag -> None; last entry = MRU.
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(config.n_sets)
        ]
        #: ``(session, always, evict_site)`` while a trace session is
        #: attached (``always``: nothing is sampled out).
        self._trace = None

    def _index(self, addr: int) -> tuple[int, int]:
        line = addr // self.config.line_bytes
        return line % self.config.n_sets, line // self.config.n_sets

    def lookup(self, addr: int) -> bool:
        """Probe only: is the line present?  No stats, no LRU update."""
        set_idx, tag = self._index(addr)
        return tag in self._sets[set_idx]

    def access(self, addr: int, allocate: bool = True) -> bool:
        """Access a line; returns True on hit.  Misses allocate (LRU)."""
        self.stats.accesses += 1
        set_idx, tag = self._index(addr)
        cache_set = self._sets[set_idx]
        if tag in cache_set:
            cache_set.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if allocate:
            self._fill(cache_set, tag, addr)
        else:
            self.stats.bypassed += 1
        return False

    def fill(self, addr: int) -> None:
        """Install a line (response path fill) without counting an access."""
        set_idx, tag = self._index(addr)
        cache_set = self._sets[set_idx]
        if tag in cache_set:
            cache_set.move_to_end(tag)
            return
        self._fill(cache_set, tag, addr)

    def _fill(self, cache_set: OrderedDict[int, None], tag: int,
              addr: int) -> None:
        if len(cache_set) >= self.config.assoc:
            cache_set.popitem(last=False)  # evict LRU
            self.stats.evictions += 1
            trace = self._trace
            if trace is not None:
                tracer, always, evict_site = trace
                if (always or tracer.sampled()) and evict_site >= 0:
                    tracer._buf.extend((evict_site, tracer.now, 0,
                                        tracer.attribute(addr), None))
        cache_set[tag] = None

    def invalidate(self, addr: int) -> bool:
        """Drop a line if present; returns True if it was resident."""
        set_idx, tag = self._index(addr)
        return self._sets[set_idx].pop(tag, "absent") != "absent"

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
        self._trace = (tracer, tracer.config.sample_rate >= 1.0,
                       tracer.site("cache", f"{self.name} evict", pid, tid,
                                   ph="i"))
