"""Interconnect model: shared links with bandwidth and base latency.

The SM<->memory-partition network is modelled as one link per
direction per memory partition.  A transfer occupies the link for
``ceil(bytes / bytes_per_cycle)`` cycles, so concurrent transfers
queue; each transfer additionally pays a fixed pipeline latency.

This analytic occupancy model (next-free-time bookkeeping rather than
flit-level switching) reproduces the contention behaviour that matters
for the paper: replica transactions consume real bandwidth and delay
subsequent requests.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LinkStats:
    transfers: int = 0
    bytes_moved: int = 0
    queue_cycles: int = 0


class Link:
    """A single direction of a shared channel."""

    def __init__(self, bytes_per_cycle: int, base_latency: int, name: str):
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        if base_latency < 0:
            raise ValueError("base_latency must be non-negative")
        self.bytes_per_cycle = bytes_per_cycle
        self.base_latency = base_latency
        self.name = name
        self.stats = LinkStats()
        self._next_free = 0
        #: ``(session, always, site)`` while a trace session is
        #: attached (``always``: nothing is sampled out).
        self._trace = None

    def transfer(self, now: int, nbytes: int) -> int:
        """Schedule a transfer arriving at ``now``; return delivery time."""
        if nbytes <= 0:
            raise ValueError("transfer size must be positive")
        occupancy = -(-nbytes // self.bytes_per_cycle)
        start = max(now, self._next_free)
        self._next_free = start + occupancy
        self.stats.transfers += 1
        self.stats.bytes_moved += nbytes
        self.stats.queue_cycles += start - now
        trace = self._trace
        if trace is not None:
            # One occupancy span: ``ts`` is the cycle the transfer
            # claims the link (after queueing), ``dur`` its occupancy.
            tracer, always, site = trace
            obj = tracer.ctx_obj or tracer.attribute(-1)
            tracer.object_stats[obj].noc_bytes += nbytes
            if (always or tracer.sampled()) and site >= 0:
                tracer._buf.extend((site, start, occupancy, obj,
                                    (nbytes, start - now)))
        return start + occupancy + self.base_latency

    @property
    def busy_until(self) -> int:
        return self._next_free

    def reset(self) -> None:
        """Clear occupancy and counters."""
        self._next_free = 0
        self.stats = LinkStats()

    def _attach_tracer(self, tracer, pid: int, tid: int) -> None:
        """Trace this link's transfers on track ``(pid, tid)``, tagged
        with the request context's object."""
        self._trace = (tracer, tracer.config.sample_rate >= 1.0,
                       tracer.site("noc", self.name, pid, tid,
                                   argkeys=("bytes", "queue")))


class Crossbar:
    """Request/response links for every memory partition.

    Requests are small (header-only, 8B for loads); responses carry a
    full cache line.  Each partition has an independent pair of links,
    matching the per-memory-channel organization of Figure 1.
    """

    REQUEST_BYTES = 8

    def __init__(
        self,
        n_partitions: int,
        bytes_per_cycle: int,
        base_latency: int,
        line_bytes: int,
    ):
        self.line_bytes = line_bytes
        self.request_links = [
            Link(bytes_per_cycle, base_latency, f"req[{i}]")
            for i in range(n_partitions)
        ]
        self.response_links = [
            Link(bytes_per_cycle, base_latency, f"rsp[{i}]")
            for i in range(n_partitions)
        ]

    def send_request(self, now: int, partition: int) -> int:
        """Deliver a header-only request packet; returns arrival time."""
        return self.request_links[partition].transfer(
            now, self.REQUEST_BYTES
        )

    def send_response(self, now: int, partition: int) -> int:
        """Deliver a full cache-line response; returns arrival time."""
        return self.response_links[partition].transfer(now, self.line_bytes)

    def reset(self) -> None:
        """Clear every link's occupancy and counters."""
        for link in self.request_links + self.response_links:
            link.reset()

    @property
    def total_bytes_moved(self) -> int:
        return sum(
            link.stats.bytes_moved
            for link in self.request_links + self.response_links
        )
