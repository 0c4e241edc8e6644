"""The per-SM LD/ST unit: L1 probe, MSHRs, and replication hardware.

This is where the paper's schemes live in the timing model (Section
IV-B/IV-C).  On an L1 miss to a protected object the unit issues one
transaction per replica copy:

* **detection (lazy)** — the warp's dependency is satisfied when the
  *first* (primary) copy returns; the copies are compared in the
  background, bounded by the 32-entry pending-compare queue (a full
  queue is a structural stall);
* **correction** — the warp waits for all three copies plus the
  majority-vote pass through the 256-bit comparator.

Merged misses (MSHR hits) inherit the pending line's readiness.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.arch.cache import Cache, CacheConfig
from repro.arch.config import GpuConfig
from repro.arch.mshr import MshrFile
from repro.core.hardware import HardwareBudget
from repro.sim.memory_subsystem import MemorySubsystem
from repro.sim.metrics import StallBreakdown


@dataclass(frozen=True)
class TimingProtection:
    """Which objects are replicated and how, for the timing model.

    This is the sim-internal protection descriptor (distinct from the
    public :class:`repro.core.protection.ProtectionSpec`, which it is
    built from).  ``schemes`` maps protected objects to their scheme
    when the configuration mixes detection and correction per object;
    an empty map means every protected object uses ``scheme_name``
    uniformly.
    """

    scheme_name: str  # "baseline" | "detection" | "correction" | "mixed"
    lazy: bool
    #: object name -> byte offsets from the primary base to each replica
    offsets: dict[str, tuple[int, ...]] = field(default_factory=dict)
    #: object name -> "detection" | "correction" (mixed configs only)
    schemes: dict[str, str] = field(default_factory=dict)

    @property
    def active(self) -> bool:
        """Whether any object is protected at all."""
        return self.scheme_name != "baseline" and bool(self.offsets)

    def scheme_of(self, obj_name: str) -> str:
        """The scheme protecting ``obj_name`` (uniform fallback)."""
        return self.schemes.get(obj_name, self.scheme_name)

    @classmethod
    def baseline(cls) -> "TimingProtection":
        """The no-protection descriptor."""
        return cls("baseline", lazy=True)


@dataclass
class SimStats:
    """Mutable counters shared by every LD/ST unit of one simulation."""

    instructions: int = 0
    demand_misses: int = 0
    replica_transactions: int = 0
    store_transactions: int = 0
    stalls: StallBreakdown = field(default_factory=StallBreakdown)


class LdstUnit:
    """One SM's load/store pipeline front-end."""

    def __init__(
        self,
        config: GpuConfig,
        subsystem: MemorySubsystem,
        protection: TimingProtection,
        budget: HardwareBudget,
        stats: SimStats,
        name: str = "ldst",
    ):
        self.config = config
        self.subsystem = subsystem
        self.protection = protection
        self.budget = budget
        self.stats = stats
        self.l1 = Cache(
            CacheConfig(config.l1_size_bytes, config.l1_assoc,
                        config.line_bytes),
            name=f"L1/{name}",
        )
        self.mshr = MshrFile(
            config.l1_mshr_entries, config.l1_mshr_max_merged
        )
        #: line addr -> (fill_time, demand_ready_time)
        self._pending: dict[int, tuple[int, int]] = {}
        self._fill_heap: list[tuple[int, int]] = []
        self._compare_heap: list[int] = []
        #: object name -> comparator cycles for that object's n-way read
        self._compare_cycles: dict[str, int] = {}
        #: objects whose comparison happens off the critical path
        self._lazy_detection: frozenset[str] = frozenset()
        #: ``(session, always, miss_site, merge_site)`` while a trace
        #: session is attached (``always``: nothing is sampled out).
        self._trace = None
        if protection.active:
            for obj_name, offsets in protection.offsets.items():
                self._compare_cycles[obj_name] = budget.compare_cycles(
                    config.line_bytes, n_way=1 + len(offsets)
                )
            if protection.lazy:
                self._lazy_detection = frozenset(
                    obj_name for obj_name in protection.offsets
                    if protection.scheme_of(obj_name) == "detection"
                )

    # ------------------------------------------------------------------
    def _drain(self, now: int) -> None:
        """Retire MSHR entries whose fills have arrived and compare-queue
        entries whose lazy comparison has finished."""
        while self._fill_heap and self._fill_heap[0][0] <= now:
            _fill, line = heapq.heappop(self._fill_heap)
            self.mshr.release(line)
            self._pending.pop(line, None)
        while self._compare_heap and self._compare_heap[0] <= now:
            heapq.heappop(self._compare_heap)

    def load(self, now: int, obj_name: str, addr: int) \
            -> tuple[int, int | None]:
        """Issue one read transaction.

        Returns ``(ready_time, None)`` when issued, or
        ``(0, stall_until)`` on a structural stall (MSHR or compare
        queue full) — the caller retries at ``stall_until``.

        The L1 probe happens *after* every structural-stall check: a
        stalled load is retried by the scheduler, and probing first
        would re-count the access and touch LRU state on each retry,
        skewing the very hit-rate counters the overhead results use.
        Stall returns are side-effect-free, so ``l1_accesses`` and
        ``l1_hits`` are invariant under retries.
        """
        trace = self._trace
        if trace is not None:
            # Stamp the request context, so every component below (L1,
            # MSHR, crossbar, L2, DRAM) attributes its events to the
            # owning object — replica traffic included, which the
            # address map alone cannot resolve.
            tracer = trace[0]
            tracer.now = now
            tracer.ctx_obj = obj_name
        self._drain(now)
        pending = self._pending.get(addr)
        if pending is not None:
            # Merged miss: data is already on its way.
            outcome = self.mshr.probe(addr)
            if outcome == "stall":
                self.stats.stalls.mshr_full += 1
                self.mshr.record_stall(addr)
                if trace is not None:
                    self._trace_stall(obj_name, now, pending[0],
                                      "mshr_full")
                return 0, pending[0]
            hit = self.l1.access(addr)
            self.mshr.add(addr)
            # The line's demand-ready time can predate a late-arriving
            # warp's own L1 read-port turnaround; data is never
            # delivered faster than an L1 hit at ``now`` would be.
            ready = max(pending[1], now + self.config.l1_hit_latency)
            if trace is not None:
                # A line evicted while filling was re-allocated by this
                # access, which reads as a miss-fill, not a merge.
                self._trace_fill(obj_name, now, ready, merged=hit)
            return ready, None
        if self.l1.lookup(addr):
            self.l1.access(addr)
            if trace is not None:
                trace[0].object_stats[obj_name].loads += 1
            return now + self.config.l1_hit_latency, None

        # True miss: need an MSHR slot and, for lazy detection, room in
        # the pending-compare queue before any transaction goes out.
        if self.mshr.probe(addr) == "stall":
            self.stats.stalls.mshr_full += 1
            self.mshr.record_stall(addr)
            stall_until = (
                self._fill_heap[0][0] if self._fill_heap else now + 1
            )
            if trace is not None:
                self._trace_stall(obj_name, now, stall_until, "mshr_full")
            return 0, stall_until
        protected = (
            self.protection.active
            and obj_name in self.protection.offsets
        )
        if protected and obj_name in self._lazy_detection:
            if len(self._compare_heap) >= \
                    self.config.pending_compare_entries:
                self.stats.stalls.compare_queue_full += 1
                if trace is not None:
                    self._trace_stall(obj_name, now, self._compare_heap[0],
                                      "compare_queue_full")
                return 0, self._compare_heap[0]

        self.l1.access(addr)
        fill = self.subsystem.read(now, addr)
        self.stats.demand_misses += 1
        demand_ready = fill
        if protected:
            replica_times = []
            for offset in self.protection.offsets[obj_name]:
                replica_times.append(
                    self.subsystem.read(now, addr + offset)
                )
                self.stats.replica_transactions += 1
            all_copies = max(fill, *replica_times)
            if obj_name in self._lazy_detection:
                demand_ready = fill
                heapq.heappush(
                    self._compare_heap,
                    all_copies + self._compare_cycles[obj_name],
                )
            else:
                # Correction, or the eager-detection ablation: stall
                # the dependency until every copy arrived and the
                # comparator/vote pass finished.
                demand_ready = (
                    all_copies + self._compare_cycles[obj_name]
                )

        self.mshr.add(addr)
        heapq.heappush(self._fill_heap, (fill, addr))
        self._pending[addr] = (fill, demand_ready)
        if trace is not None:
            self._trace_fill(obj_name, now, demand_ready, merged=False)
        return demand_ready, None

    def store(self, now: int, addr: int) -> None:
        """Write-through, no-allocate, fire-and-forget."""
        trace = self._trace
        if trace is not None:
            # A store carries no object name: resolve it by address.
            tracer = trace[0]
            tracer.now = now
            tracer.ctx_obj = None
            tracer.ctx_obj = tracer.attribute(addr)
        self.subsystem.write(now, addr)
        self.stats.store_transactions += 1

    # ------------------------------------------------------------------
    # Cycle-level tracing
    # ------------------------------------------------------------------
    def _attach_tracer(self, tracer, pid: int) -> None:
        """Trace this unit and its L1 and MSHR file on SM ``pid``.

        The LD/ST unit is the request-context layer (see ``load``).
        Loads leave per-object tallies and (sampled) miss-fill spans or
        merge instants; structural stalls record their reason for the
        SM to label the warp's stall span.
        """
        from repro.obs.trace import TID_LDST

        self.l1._attach_tracer(tracer, pid, TID_LDST)
        self.mshr._attach_tracer(tracer, pid, TID_LDST)
        self._trace = (
            tracer,
            tracer.config.sample_rate >= 1.0,
            tracer.site("cache", "l1-miss-fill", pid, TID_LDST),
            tracer.site("mshr", "miss-merge", pid, TID_LDST, ph="i"),
        )

    def _trace_stall(self, obj_name: str, now: int, stall_until: int,
                     reason: str) -> None:
        tracer = self._trace[0]
        tracer.object_stats[obj_name].stall_cycles += stall_until - now
        tracer.last_stall_reason = reason

    def _trace_fill(self, obj_name: str, now: int, ready: int,
                    merged: bool) -> None:
        tracer, always, miss_site, merge_site = self._trace
        ostats = tracer.object_stats[obj_name]
        ostats.loads += 1
        if merged:
            ostats.mshr_merges += 1
            sid, dur = merge_site, 0
        else:
            ostats.l1_misses += 1
            sid, dur = miss_site, ready - now
        if (always or tracer.sampled()) and sid >= 0:
            tracer._buf.extend((sid, now, dur, obj_name, None))
