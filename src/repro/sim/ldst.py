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
from repro.core.protection import ProtectionSpec
from repro.sim.memory_subsystem import MemorySubsystem
from repro.sim.metrics import StallBreakdown

#: A cycle no simulation reaches: the time of an event that is not
#: pending (an empty heap, an untraced run's sampling boundary).
_FAR_FUTURE = 1 << 62


@dataclass(frozen=True)
class TimingProtection:
    """A :class:`~repro.core.protection.ProtectionSpec` placed in the
    timing model: the spec plus each protected object's replica
    address offsets (see :func:`~repro.sim.simulator.build_protection`).
    """

    spec: ProtectionSpec
    lazy: bool
    #: object name -> byte offsets from the primary base to each replica
    offsets: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def lazy_objects(self) -> frozenset[str]:
        """Objects compared off the critical path: the spec's
        detection objects, when comparison is lazy."""
        if not self.lazy:
            return frozenset()
        return frozenset(
            name for name, scheme in self.spec.assignments
            if scheme == "detection"
        )

    @classmethod
    def baseline(cls) -> "TimingProtection":
        """The no-protection descriptor."""
        return cls(ProtectionSpec.baseline(), lazy=True)


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
        #: Earliest fill or lazy-compare completion in the two heaps:
        #: ``load`` drains only once ``now`` reaches it.
        self._drain_at = _FAR_FUTURE
        #: object name -> replica offsets, for protected objects only
        self._offsets = protection.offsets
        #: object name -> comparator cycles for that object's n-way read
        self._compare_cycles = {
            obj_name: budget.compare_cycles(
                config.line_bytes, n_way=1 + len(offsets))
            for obj_name, offsets in self._offsets.items()
        }
        #: objects whose comparison happens off the critical path
        self._lazy_detection = protection.lazy_objects
        # Per-load constants and the shared stall tally, hoisted out of
        # the config and stats objects for the hot path.
        self._hit_latency = config.l1_hit_latency
        self._compare_entries = config.pending_compare_entries
        self._stalls = stats.stalls
        #: ``(session, ring, object_stats, always, miss_site,
        #: merge_site)`` while a trace session is attached (``ring`` and
        #: ``object_stats``: the session's event list and per-object
        #: tallies; ``always``: nothing is sampled out).
        self._trace = None

    # ------------------------------------------------------------------
    def _drain(self, now: int) -> None:
        """Retire MSHR entries whose fills have arrived and compare-queue
        entries whose lazy comparison has finished."""
        fill_heap = self._fill_heap
        while fill_heap and fill_heap[0][0] <= now:
            _fill, line = heapq.heappop(fill_heap)
            self.mshr.release(line)
            self._pending.pop(line, None)
        compare_heap = self._compare_heap
        while compare_heap and compare_heap[0] <= now:
            heapq.heappop(compare_heap)
        self._drain_at = min(
            fill_heap[0][0] if fill_heap else _FAR_FUTURE,
            compare_heap[0] if compare_heap else _FAR_FUTURE,
        )

    def load(self, now: int, obj_name: str, addr: int) \
            -> tuple[int, int | None]:
        """Issue one read transaction.

        Returns ``(ready_time, None)`` when issued, or
        ``(0, stall_until)`` on a structural stall (MSHR or compare
        queue full) — the caller retries at ``stall_until``, which is
        always later than ``now``: it is the completion time of a fill
        or comparison still in flight after the drain.

        The L1 probe happens *after* every structural-stall check: a
        stalled load is retried by the scheduler, and probing first
        would re-count the access and touch LRU state on each retry,
        skewing the very hit-rate counters the overhead results use.
        Stall returns are side-effect-free, so ``l1_accesses`` and
        ``l1_hits`` are invariant under retries.
        """
        trace = self._trace
        # Most loads find nothing due yet: skip the drain's frame then.
        if now >= self._drain_at:
            if trace is not None:
                # The retired entries' occupancy counters carry ``now``.
                trace[0].now = now
            self._drain(now)
        pending = self._pending.get(addr)
        l1 = self.l1
        if pending is None and l1.lookup(addr):
            # An L1 hit reaches nothing below the L1 and emits no event:
            # it only tallies the load.
            l1.access(addr)
            if trace is not None:
                trace[2][obj_name].loads += 1
            return now + self._hit_latency, None
        if trace is not None:
            # Stamp the request context, so every component below (L1,
            # MSHR, crossbar, L2, DRAM) attributes its events to the
            # owning object — replica traffic included, which the
            # address map alone cannot resolve.
            tracer = trace[0]
            tracer.now = now
            tracer.ctx_obj = obj_name
        mshr = self.mshr
        if pending is not None:
            # Merged miss: data is already on its way.
            if mshr.probe(addr) == "stall":
                self._stalls.mshr_full += 1
                mshr.record_stall(addr)
                if trace is not None:
                    self._trace_stall(obj_name, now, pending[0],
                                      "mshr_full")
                return 0, pending[0]
            hit = l1.access(addr)
            mshr.add(addr)
            # The line's demand-ready time can predate a late-arriving
            # warp's own L1 read-port turnaround; data is never
            # delivered faster than an L1 hit at ``now`` would be.
            ready = pending[1]
            if ready < now + self._hit_latency:
                ready = now + self._hit_latency
            if trace is not None:
                # A line evicted while filling was re-allocated by this
                # access, which reads as a miss-fill, not a merge.
                self._trace_fill(obj_name, now, ready, merged=hit)
            return ready, None

        # True miss: need an MSHR slot and, for lazy detection, room in
        # the pending-compare queue before any transaction goes out.
        if mshr.probe(addr) == "stall":
            self._stalls.mshr_full += 1
            mshr.record_stall(addr)
            fill_heap = self._fill_heap
            stall_until = fill_heap[0][0] if fill_heap else now + 1
            if trace is not None:
                self._trace_stall(obj_name, now, stall_until, "mshr_full")
            return 0, stall_until
        lazy = obj_name in self._lazy_detection
        compare_heap = self._compare_heap
        if lazy and len(compare_heap) >= self._compare_entries:
            self._stalls.compare_queue_full += 1
            if trace is not None:
                self._trace_stall(obj_name, now, compare_heap[0],
                                  "compare_queue_full")
            return 0, compare_heap[0]

        l1.access(addr)
        subsystem = self.subsystem
        stats = self.stats
        fill = subsystem.read(now, addr)
        stats.demand_misses += 1
        demand_ready = fill
        offsets = self._offsets.get(obj_name)
        if offsets is not None:
            all_copies = fill
            for offset in offsets:
                replica = subsystem.read(now, addr + offset)
                if replica > all_copies:
                    all_copies = replica
            stats.replica_transactions += len(offsets)
            if lazy:
                done = all_copies + self._compare_cycles[obj_name]
                heapq.heappush(compare_heap, done)
                if done < self._drain_at:
                    self._drain_at = done
            else:
                # Correction, or the eager-detection ablation: stall
                # the dependency until every copy arrived and the
                # comparator/vote pass finished.
                demand_ready = all_copies + self._compare_cycles[obj_name]

        mshr.add(addr)
        heapq.heappush(self._fill_heap, (fill, addr))
        if fill < self._drain_at:
            self._drain_at = fill
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
            tracer._buf,
            tracer.object_stats,
            tracer.config.sample_rate >= 1.0,
            tracer.site("cache", "l1-miss-fill", pid, TID_LDST),
            tracer.site("mshr", "miss-merge", pid, TID_LDST, ph="i"),
        )

    def _trace_stall(self, obj_name: str, now: int, stall_until: int,
                     reason: str) -> None:
        tracer, _buf, object_stats, *_sites = self._trace
        object_stats[obj_name].stall_cycles += stall_until - now
        tracer.last_stall_reason = reason

    def _trace_fill(self, obj_name: str, now: int, ready: int,
                    merged: bool) -> None:
        tracer, buf, object_stats, always, miss_site, merge_site = \
            self._trace
        ostats = object_stats[obj_name]
        ostats.loads += 1
        if merged:
            ostats.mshr_merges += 1
            sid, dur = merge_site, 0
        else:
            ostats.l1_misses += 1
            sid, dur = miss_site, ready - now
        if (always or tracer.sampled()) and sid >= 0:
            buf += (sid, now, dur, obj_name, None)
