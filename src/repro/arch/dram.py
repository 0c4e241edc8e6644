"""GDDR5 DRAM channel model: banks, row buffers, data-bus occupancy.

Each memory partition owns one channel with ``n_banks`` banks.  A
request to an open row pays the row-hit latency; switching rows pays
the row-miss (precharge + activate + CAS) latency.  Banks serve one
request at a time and the channel data bus serializes line transfers —
together these approximate FR-FCFS service: requests to an open row
that arrive while the bank is busy complete back-to-back, while row
conflicts queue behind the precharge.

All times are in core cycles (the memory-clock ratio from Table I is
folded into the configured latencies).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DramTimings:
    row_hit_cycles: int = 60
    row_miss_cycles: int = 130
    bus_cycles_per_line: int = 12

    def __post_init__(self) -> None:
        if min(
            self.row_hit_cycles,
            self.row_miss_cycles,
            self.bus_cycles_per_line,
        ) <= 0:
            raise ValueError("DRAM timings must be positive")
        if self.row_miss_cycles < self.row_hit_cycles:
            raise ValueError("row miss cannot be faster than row hit")


@dataclass
class DramStats:
    requests: int = 0
    row_hits: int = 0
    row_misses: int = 0
    bank_queue_cycles: int = 0
    #: Cycles lines sat ready in a bank's row buffer waiting for the
    #: shared data bus to free up.
    bus_queue_cycles: int = 0


class _Bank:
    __slots__ = ("open_row", "next_free")

    def __init__(self) -> None:
        self.open_row: int | None = None
        self.next_free = 0


class DramChannel:
    """One memory controller + its banks."""

    def __init__(
        self,
        n_banks: int,
        row_bytes: int,
        line_bytes: int,
        timings: DramTimings,
        name: str = "dram",
    ):
        if n_banks <= 0:
            raise ValueError("n_banks must be positive")
        if row_bytes % line_bytes:
            raise ValueError("row size must be a multiple of the line size")
        self.n_banks = n_banks
        self.row_bytes = row_bytes
        self.line_bytes = line_bytes
        self.timings = timings
        self.name = name
        self.stats = DramStats()
        self._banks = [_Bank() for _ in range(n_banks)]
        self._bus_next_free = 0
        #: ``(session, always, hit_sites, miss_sites, bus_site)`` while a
        #: trace session is attached (``always``: nothing is sampled out).
        self._trace = None

    def _map(self, addr: int) -> tuple[int, int]:
        """Address -> (bank, row).

        Lines interleave across banks, with the bank index XOR-hashed
        by higher address bits (the standard GPU memory-controller
        trick) so that large power-of-two-ish strides — e.g. the
        column-major accesses of the Polybench kernels — still spread
        over all banks instead of aliasing onto a few.
        """
        line = addr // self.line_bytes
        row = addr // (self.row_bytes * self.n_banks)
        bank = (line ^ (line // self.n_banks) ^ (line // (self.n_banks ** 2))) \
            % self.n_banks
        return bank, row

    def access(self, now: int, addr: int) -> int:
        """Service a line read arriving at ``now``; return completion time."""
        bank_idx, row = self._map(addr)
        bank = self._banks[bank_idx]
        start = max(now, bank.next_free)
        self.stats.requests += 1
        self.stats.bank_queue_cycles += start - now
        row_hit = bank.open_row == row
        if row_hit:
            latency = self.timings.row_hit_cycles
            self.stats.row_hits += 1
        else:
            latency = self.timings.row_miss_cycles
            self.stats.row_misses += 1
            bank.open_row = row
        data_ready = start + latency
        bus_start = max(data_ready, self._bus_next_free)
        bus_done = bus_start + self.timings.bus_cycles_per_line
        self._bus_next_free = bus_done
        self.stats.bus_queue_cycles += bus_start - data_ready
        # The line occupies the bank's row buffer until the bus has
        # carried it out, so the bank cannot accept its next request
        # before ``bus_done`` — not at ``data_ready``.
        bank.next_free = bus_done
        trace = self._trace
        if trace is not None:
            # Attribution totals accumulate per object even when the
            # sampled bank-busy and bus-transfer spans are thinned out.
            tracer, always, hit_sites, miss_sites, bus_site = trace
            obj = tracer.ctx_obj or tracer.attribute(addr)
            ostats = tracer.object_stats[obj]
            ostats.dram_reads += 1
            ostats.dram_busy_cycles += bus_done - start
            ostats.dram_bus_cycles += bus_done - bus_start
            tracer.account_read_bytes(obj, self.line_bytes)
            if always or tracer.sampled():
                sid = (hit_sites if row_hit else miss_sites)[bank_idx]
                if sid >= 0:
                    tracer._buf.extend((sid, start, bus_done - start, obj,
                                        (start - now, row)))
                    tracer._buf.extend((bus_site, bus_start,
                                        bus_done - bus_start, obj,
                                        (bus_start - data_ready,)))
        return bus_done

    @property
    def row_hit_rate(self) -> float:
        if not self.stats.requests:
            return 0.0
        return self.stats.row_hits / self.stats.requests

    def _attach_tracer(self, tracer, pid: int, bus_tid: int) -> None:
        """Trace this channel: one bank-busy span per access on the
        bank's thread track, one bus-transfer span on ``bus_tid``."""
        bank_args = ("bank_queue", "row")
        banks = range(self.n_banks)
        self._trace = (
            tracer,
            tracer.config.sample_rate >= 1.0,
            [tracer.site("dram", "row-hit", pid, b, argkeys=bank_args)
             for b in banks],
            [tracer.site("dram", "row-miss", pid, b, argkeys=bank_args)
             for b in banks],
            tracer.site("dram", "bus", pid, bus_tid,
                        argkeys=("bus_queue",)),
        )

    def reset(self) -> None:
        """Close all rows, clear timing state and counters."""
        self.stats = DramStats()
        for bank in self._banks:
            bank.open_row = None
            bank.next_free = 0
        self._bus_next_free = 0
