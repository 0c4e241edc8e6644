"""Top-level timing simulation driver.

``simulate_trace`` replays an application trace on the configured GPU:
kernels run back-to-back (a kernel launch is a global barrier, as in
CUDA's default stream), CTAs are assigned round-robin to SMs, and SMs
advance in global-time order (always stepping the SM with the smallest
local clock) so that shared-resource contention stays causal.

``simulate_app`` is the convenience wrapper that also materializes the
replica allocations for a protection scheme and reports everything as
a :class:`~repro.sim.metrics.SimReport`.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace

from repro.arch.address_space import DeviceMemory
from repro.arch.config import GpuConfig, PAPER_CONFIG
from repro.core.hardware import HardwareBudget
from repro.core.replication import create_replicas
from repro.errors import ConfigError
from repro.kernels.base import GpuApplication
from repro.kernels.trace import AppTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import PID_TIMELINE, TID_MAIN, TraceSession
from repro.sim.ldst import (
    _FAR_FUTURE,
    LdstUnit,
    SimStats,
    TimingProtection,
)
from repro.sim.memory_subsystem import MemorySubsystem
from repro.sim.metrics import SimReport
from repro.sim.sm import SmCore


def build_protection(
    memory: DeviceMemory,
    scheme_name: str,
    protected_names: tuple[str, ...],
    lazy: bool = True,
    schemes: dict[str, str] | None = None,
) -> TimingProtection:
    """Allocate replicas in a shadow memory and derive address offsets.

    The shadow is a copy-on-write clone and the replica allocation runs
    the allocator *dry* (``populate=False``): the timing model needs
    only the address offsets, so no device-memory bytes are ever copied
    — large applications used to pay a full deep copy per
    :func:`simulate_app` call just to compute this arithmetic.  The
    simulated address map stays faithful (replicas really occupy
    distinct DRAM regions) and the caller's memory is never mutated.

    ``schemes`` (required for ``scheme_name="mixed"``) maps each
    protected object to its own scheme, so a mixed configuration
    allocates one replica for its detection objects and two for its
    correction objects.
    """
    if scheme_name == "baseline" or not protected_names:
        return TimingProtection.baseline()
    if scheme_name == "mixed":
        if not schemes:
            raise ConfigError(
                "mixed protection needs a per-object scheme map"
            )
        per_object = {
            name: schemes[name] for name in protected_names
        }
    elif scheme_name not in ("detection", "correction"):
        raise ConfigError(f"unknown scheme {scheme_name!r}")
    else:
        per_object = {name: scheme_name for name in protected_names}
    shadow = memory.cow_clone()
    offsets: dict[str, tuple[int, ...]] = {}
    for name in protected_names:
        extra = 1 if per_object[name] == "detection" else 2
        replica_sets = create_replicas(
            shadow, [shadow.object(name)], extra, populate=False
        )
        rs = replica_sets[name]
        offsets[name] = tuple(
            replica.base_addr - rs.primary.base_addr
            for replica in rs.replicas
        )
    return TimingProtection(
        scheme_name,
        lazy=lazy,
        offsets=offsets,
        schemes=per_object if scheme_name == "mixed" else {},
    )


def _publish_sim_metrics(
    metrics: MetricsRegistry,
    stats: SimStats,
    ldsts: list[LdstUnit],
    subsystem: MemorySubsystem,
    report: SimReport,
) -> None:
    """Report one simulation's counters into an observability registry.

    Covers the tentpole's simulator signals: SM stall breakdown, MSHR
    and compare-queue pressure, cache counters, and per-channel DRAM
    bank-queue / bus-queue / row-hit distributions.
    """
    metrics.inc("sim.runs")
    metrics.inc("sim.cycles", report.cycles)
    metrics.inc("sim.instructions", report.instructions)
    metrics.inc("sim.stalls.memory_wait", stats.stalls.memory_wait)
    metrics.inc("sim.stalls.mshr_full", stats.stalls.mshr_full)
    metrics.inc("sim.stalls.compare_queue_full",
                stats.stalls.compare_queue_full)
    for unit in ldsts:
        metrics.inc("sim.mshr.allocations", unit.mshr.stats.allocations)
        metrics.inc("sim.mshr.merges", unit.mshr.stats.merges)
        metrics.inc("sim.mshr.full_stalls", unit.mshr.stats.full_stalls)
        metrics.inc("sim.mshr.merge_stalls",
                    unit.mshr.stats.merge_stalls)
    metrics.inc("sim.l1.accesses", report.l1_accesses)
    metrics.inc("sim.l1.hits", report.l1_hits)
    metrics.inc("sim.l2.accesses", report.l2_accesses)
    metrics.inc("sim.l2.hits", report.l2_hits)
    metrics.inc("sim.dram.requests", report.dram_requests)
    metrics.inc("sim.dram.row_hits", report.dram_row_hits)
    metrics.inc("sim.dram.bank_queue_cycles",
                report.dram_bank_queue_cycles)
    metrics.inc("sim.dram.bus_queue_cycles",
                report.dram_bus_queue_cycles)
    for channel in subsystem.dram_channels:
        metrics.observe("sim.dram.channel_bank_queue_cycles",
                        channel.stats.bank_queue_cycles)
        metrics.observe("sim.dram.channel_bus_queue_cycles",
                        channel.stats.bus_queue_cycles)
        if channel.stats.requests:
            metrics.observe("sim.dram.channel_row_hit_pct",
                            100.0 * channel.row_hit_rate)


class _IntervalSampler:
    """Per-N-cycle time-series sampler driven by the drain loop.

    The popped heap cycle is the global low-water mark — every SM's
    local clock is at or past it — so crossing a sampling boundary
    there guarantees all work before the boundary has been simulated.
    Series are deltas over the interval (IPC, DRAM requests, row-hit
    rate) plus point-in-time MSHR occupancy; per-object read-bandwidth
    buckets are folded in by the session itself.
    """

    def __init__(
        self,
        tracer: TraceSession,
        stats: SimStats,
        ldsts: list[LdstUnit],
        subsystem: MemorySubsystem,
    ):
        self.tracer = tracer
        self.stats = stats
        self.ldsts = ldsts
        self.subsystem = subsystem
        self.interval = tracer.config.interval_cycles
        self.next_boundary = self.interval
        self._instructions = 0
        self._dram_requests = 0
        self._dram_row_hits = 0

    def advance(self, cycle: int) -> None:
        while cycle >= self.next_boundary:
            self._sample(self.next_boundary, self.interval)
            self.next_boundary += self.interval

    def flush(self, end: int) -> None:
        """Close any boundary-aligned intervals plus the trailing
        partial one at a kernel barrier."""
        self.advance(end)
        partial = end - (self.next_boundary - self.interval)
        if partial > 0 and self.stats.instructions != self._instructions:
            self._sample(end, partial)
            # Re-anchor so the next kernel's intervals stay aligned.
            self.next_boundary = (
                end // self.interval + 1
            ) * self.interval

    def _sample(self, cycle: int, length: int) -> None:
        instructions = self.stats.instructions
        requests = self.subsystem.dram_requests
        row_hits = self.subsystem.dram_row_hits
        d_instr = instructions - self._instructions
        d_req = requests - self._dram_requests
        d_hits = row_hits - self._dram_row_hits
        self._instructions = instructions
        self._dram_requests = requests
        self._dram_row_hits = row_hits
        self.tracer.add_sample(
            cycle,
            ipc=d_instr / length,
            mshr_occupancy=sum([u.mshr.outstanding for u in self.ldsts]),
            row_hit_rate=(d_hits / d_req) if d_req else 0.0,
            instructions=d_instr,
            dram_requests=d_req,
        )


def _attach_trace_hooks(
    tracer: TraceSession,
    sms: list[SmCore],
    subsystem: MemorySubsystem,
) -> None:
    """Attach ``tracer`` to every component of one simulation.

    Only these instances get the session — every other simulation,
    including ones running concurrently in the same process, stays
    untraced.
    """
    tracer.register_track(
        PID_TIMELINE, "kernel timeline", TID_MAIN, "kernels")
    subsystem._attach_tracer(tracer)
    for sm in sms:
        sm._attach_tracer(tracer)


def simulate_trace(
    trace: AppTrace,
    config: GpuConfig = PAPER_CONFIG,
    protection: TimingProtection | None = None,
    budget: HardwareBudget | None = None,
    metrics: MetricsRegistry | None = None,
    tracer: TraceSession | None = None,
) -> SimReport:
    """Run the timing simulation of one application trace.

    ``metrics``, when given, receives the simulator's observability
    counters and per-channel DRAM distributions (additively — one
    registry can aggregate many simulations).  ``tracer``, when given,
    records the cycle-level event trace and interval time series.
    Each component has one body for both paths: its trace hooks are
    guarded blocks that an un-traced simulation skips on a ``None``
    check.
    """
    protection = protection or TimingProtection.baseline()
    budget = budget or HardwareBudget.from_config(config)
    stats = SimStats()
    subsystem = MemorySubsystem(config)
    ldsts = [
        LdstUnit(config, subsystem, protection, budget, stats,
                 name=f"sm{i}")
        for i in range(config.n_sms)
    ]
    sms = [
        SmCore(i, config, ldsts[i], stats) for i in range(config.n_sms)
    ]
    sampler: _IntervalSampler | None = None
    if tracer is not None:
        _attach_trace_hooks(tracer, sms, subsystem)
        sampler = _IntervalSampler(tracer, stats, ldsts, subsystem)

    global_time = 0
    kernel_cycles: dict[str, int] = {}
    for kernel in trace.kernels:
        assignments: list[list] = [[] for _ in sms]
        for i, cta in enumerate(kernel.ctas):
            assignments[i % len(sms)].append(cta)
        heap = []
        for sm, ctas in zip(sms, assignments):
            if ctas:
                sm.start_kernel(ctas, global_time)
                heappush(heap, (sm.cycle, sm.sm_id))
        boundary = sampler.next_boundary if sampler is not None \
            else _FAR_FUTURE
        # One entry per busy SM, keyed (local clock, SM id): step the
        # laggard, then re-key it in place or drop it once idle.
        while heap:
            cycle, sm_id = heap[0]
            if cycle >= boundary:
                sampler.advance(cycle)
                boundary = sampler.next_boundary
            sm = sms[sm_id]
            if sm.step():
                heapreplace(heap, (sm.cycle, sm_id))
            else:
                heappop(heap)
        kernel_end = max(
            (sm.cycle for sm in sms), default=global_time
        )
        if tracer is not None:
            sampler.flush(kernel_end)
            tracer.emit(
                "kernel", kernel.name, global_time,
                kernel_end - global_time, PID_TIMELINE, TID_MAIN,
                args={"ctas": len(kernel.ctas)},
            )
        kernel_cycles[kernel.name] = kernel_end - global_time
        global_time = kernel_end

    l1_accesses = sum(u.l1.stats.accesses for u in ldsts)
    l1_hits = sum(u.l1.stats.hits for u in ldsts)
    report = SimReport(
        app_name=trace.app_name,
        scheme_name=protection.scheme_name,
        protected_names=tuple(sorted(protection.offsets)),
        cycles=global_time,
        kernel_cycles=kernel_cycles,
        instructions=stats.instructions,
        demand_misses=stats.demand_misses,
        replica_transactions=stats.replica_transactions,
        store_transactions=stats.store_transactions,
        l1_accesses=l1_accesses,
        l1_hits=l1_hits,
        l2_accesses=subsystem.l2_accesses,
        l2_hits=subsystem.l2_hits,
        dram_requests=subsystem.dram_requests,
        dram_row_hits=subsystem.dram_row_hits,
        stalls=stats.stalls,
        dram_bank_queue_cycles=subsystem.dram_bank_queue_cycles,
        dram_bus_queue_cycles=subsystem.dram_bus_queue_cycles,
    )
    if metrics is not None:
        _publish_sim_metrics(metrics, stats, ldsts, subsystem, report)
        if tracer is not None:
            tracer.publish_metrics(metrics)
    return report


def simulate_app(
    app: GpuApplication,
    trace: AppTrace | None = None,
    memory: DeviceMemory | None = None,
    config: GpuConfig = PAPER_CONFIG,
    scheme_name: str = "baseline",
    protected_names: tuple[str, ...] = (),
    budget: HardwareBudget | None = None,
    lazy: bool = True,
    metrics: MetricsRegistry | None = None,
    tracer: TraceSession | None = None,
    schemes: dict[str, str] | None = None,
) -> SimReport:
    """Simulate an application under a protection configuration.

    ``schemes`` carries the per-object scheme map when
    ``scheme_name="mixed"`` (see :func:`build_protection`).
    """
    if memory is None:
        memory = app.fresh_memory()
    if trace is None:
        trace = app.build_trace(memory)
    if tracer is not None:
        tracer.set_object_map(memory)
    protection = build_protection(
        memory, scheme_name, tuple(protected_names), lazy=lazy,
        schemes=schemes,
    )
    return simulate_trace(trace, config, protection, budget,
                          metrics=metrics, tracer=tracer)
