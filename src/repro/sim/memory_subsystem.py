"""The shared below-L1 memory hierarchy: interconnect + L2 + DRAM.

Requests are serviced analytically: every shared resource keeps a
next-free time, so a request arriving at cycle ``t`` experiences
queueing whenever earlier traffic has pushed the resource's next-free
time past ``t``.  SMs are interleaved in (approximately) global time
order by the simulator, which keeps this composition causal.
"""

from __future__ import annotations

from repro.arch.cache import Cache, CacheConfig
from repro.arch.config import GpuConfig
from repro.arch.dram import DramChannel, DramTimings
from repro.arch.interconnect import Crossbar


class MemorySubsystem:
    """Per-partition L2 slices and DRAM channels behind a crossbar."""

    def __init__(self, config: GpuConfig):
        self.config = config
        self.crossbar = Crossbar(
            n_partitions=config.n_mem_channels,
            bytes_per_cycle=config.interconnect_bytes_per_cycle,
            base_latency=config.interconnect_latency,
            line_bytes=config.line_bytes,
        )
        self.l2_slices = [
            Cache(
                CacheConfig(
                    config.l2_slice_size_bytes,
                    config.l2_assoc,
                    config.line_bytes,
                ),
                name=f"L2[{i}]",
            )
            for i in range(config.n_mem_channels)
        ]
        timings = DramTimings(
            row_hit_cycles=config.dram_row_hit_cycles,
            row_miss_cycles=config.dram_row_miss_cycles,
            bus_cycles_per_line=config.dram_bus_cycles_per_line,
        )
        self.dram_channels = [
            DramChannel(
                n_banks=config.dram_banks_per_channel,
                row_bytes=config.dram_row_bytes,
                line_bytes=config.line_bytes,
                timings=timings,
                name=f"DRAM[{i}]",
            )
            for i in range(config.n_mem_channels)
        ]
        self._l2_next_free = [0] * config.n_mem_channels
        self._l2_service = config.l2_service_cycles
        self._l2_hit_latency = config.l2_hit_latency
        #: ``(session, ring, object_stats, always, hit_sites, miss_sites,
        #: write_sites)`` while a trace session is attached (``ring`` and
        #: ``object_stats``: the session's event list and per-object
        #: tallies; ``always``: nothing is sampled out).
        self._trace = None

    def read(self, now: int, addr: int) -> int:
        """Service a read-line request; return data-delivery time at the
        requesting SM."""
        part = self.config.channel_of_address(addr)
        crossbar = self.crossbar
        arrive = crossbar.send_request(now, part)
        l2_free = self._l2_next_free[part]
        start = arrive if arrive > l2_free else l2_free
        self._l2_next_free[part] = start + self._l2_service
        data_at = start + self._l2_hit_latency
        hit = self.l2_slices[part].access(addr)
        if not hit:
            data_at = self.dram_channels[part].access(data_at, addr)
        done = crossbar.send_response(data_at, part)
        trace = self._trace
        if trace is not None:
            tracer, buf, object_stats, always, hit_sites, miss_sites, \
                _write_sites = trace
            obj = tracer.ctx_obj or tracer.attribute(addr)
            ostats = object_stats[obj]
            ostats.l2_accesses += 1
            if not hit:
                ostats.l2_misses += 1
            if always or tracer.sampled():
                # Lower bound of the slice's service start (the exact
                # value also folds in request-link queueing, which the
                # NoC track shows separately).
                sid = (hit_sites if hit else miss_sites)[part]
                if sid >= 0:
                    buf += (sid, l2_free if l2_free > now else now,
                            self._l2_service, obj, None)
        return done

    def write(self, now: int, addr: int) -> None:
        """Fire-and-forget write-through store: occupies the request
        link and an L2 slot; no response is modelled (write-ack-free),
        and no L2 allocation happens on a write miss."""
        part = self.config.channel_of_address(addr)
        arrive = self.crossbar.send_request(now, part)
        start = max(arrive, self._l2_next_free[part])
        self._l2_next_free[part] = start + self._l2_service
        self.l2_slices[part].access(addr, allocate=False)
        trace = self._trace
        if trace is not None:
            tracer, buf, object_stats, always, _hit_sites, _miss_sites, \
                write_sites = trace
            obj = tracer.ctx_obj or tracer.attribute(addr)
            object_stats[obj].l2_accesses += 1
            if (always or tracer.sampled()) and write_sites[part] >= 0:
                buf += (write_sites[part], tracer.now, 0, obj, None)

    def _attach_tracer(self, tracer) -> None:
        """Trace the shared hierarchy: per-request L2-slice service
        spans plus per-object L2 attribution here, and the crossbar
        links' and DRAM channels' own events underneath."""
        from repro.obs.trace import (
            PID_DRAM_BASE,
            PID_L2_BASE,
            PID_NOC_BASE,
            TID_DRAM_BUS,
            TID_MAIN,
        )

        for i, channel in enumerate(self.dram_channels):
            pid = PID_DRAM_BASE + i
            tracer.register_track(
                pid, f"DRAM channel {i}", TID_DRAM_BUS, "data bus")
            for bank in range(channel.n_banks):
                tracer.register_track(pid, f"DRAM channel {i}",
                                      bank, f"bank {bank}")
            channel._attach_tracer(tracer, pid, TID_DRAM_BUS)
        for i, (req, rsp) in enumerate(
            zip(self.crossbar.request_links, self.crossbar.response_links)
        ):
            pid = PID_NOC_BASE + i
            tracer.register_track(pid, f"NoC partition {i}", 0, "request")
            tracer.register_track(pid, f"NoC partition {i}", 1, "response")
            req._attach_tracer(tracer, pid, 0)
            rsp._attach_tracer(tracer, pid, 1)
        parts = range(self.config.n_mem_channels)
        for i in parts:
            tracer.register_track(
                PID_L2_BASE + i, f"L2 slice {i}", TID_MAIN, "service")

        def sites(name: str, ph: str = "X") -> list[int]:
            return [tracer.site("l2", name, PID_L2_BASE + i, TID_MAIN,
                                ph=ph) for i in parts]

        self._trace = (tracer, tracer._buf, tracer.object_stats,
                       tracer.config.sample_rate >= 1.0,
                       sites("l2-hit"), sites("l2-miss"),
                       sites("l2-write", "i"))

    # ------------------------------------------------------------------
    # Aggregated stats
    # ------------------------------------------------------------------
    @property
    def l2_accesses(self) -> int:
        return sum(s.stats.accesses for s in self.l2_slices)

    @property
    def l2_hits(self) -> int:
        return sum(s.stats.hits for s in self.l2_slices)

    @property
    def dram_requests(self) -> int:
        return sum(c.stats.requests for c in self.dram_channels)

    @property
    def dram_row_hits(self) -> int:
        return sum(c.stats.row_hits for c in self.dram_channels)

    @property
    def dram_bank_queue_cycles(self) -> int:
        """Total cycles requests waited for a busy bank, all channels."""
        return sum(c.stats.bank_queue_cycles for c in self.dram_channels)

    @property
    def dram_bus_queue_cycles(self) -> int:
        """Total cycles lines waited for the channel data bus."""
        return sum(c.stats.bus_queue_cycles for c in self.dram_channels)
