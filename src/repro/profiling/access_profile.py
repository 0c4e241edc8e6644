"""Per-block read-access profiling (the paper's Figure 3 analysis).

The profile counts warp-level read *transactions* per 128-byte data
memory block — the same granularity at which Table III's access
percentages are reported (a warp-wide broadcast is one access, a
32-way uncoalesced load is thirty-two).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.arch.address_space import DeviceMemory
from repro.kernels.trace import AppTrace, Load


@dataclass
class AccessProfile:
    """Aggregated read-access statistics for one application trace."""

    app_name: str
    #: block base address -> read-transaction count
    block_reads: dict[int, int]
    #: object name -> total read transactions
    object_reads: dict[str, int]
    #: block base address -> object name owning it
    block_owner: dict[int, str]
    #: per kernel: block -> number of distinct warps reading it
    kernel_block_warps: dict[str, dict[int, int]]
    #: per kernel: total warps launched
    kernel_warps: dict[str, int]

    @property
    def total_reads(self) -> int:
        return sum(self.object_reads.values())

    @property
    def n_blocks(self) -> int:
        return len(self.block_reads)

    def sorted_counts(self) -> list[tuple[int, int]]:
        """(block addr, count) sorted by count ascending — the x-axis
        ordering of Figure 3."""
        return sorted(self.block_reads.items(), key=lambda kv: (kv[1], kv[0]))

    def normalized_curve(self) -> np.ndarray:
        """Counts sorted ascending, normalized to the maximum (Fig 3 y)."""
        counts = np.array(
            sorted(self.block_reads.values()), dtype=np.float64
        )
        if counts.size == 0:
            return counts
        return counts / counts.max()

    def max_min_ratio(self) -> float:
        """Ratio of most- to least-accessed block (4732x for C-NN in
        the paper)."""
        counts = [c for c in self.block_reads.values() if c > 0]
        if not counts:
            return 1.0
        return max(counts) / min(counts)

    def reads_to(self, object_name: str) -> int:
        """Total read transactions to one object (0 if never read)."""
        return self.object_reads.get(object_name, 0)

    def object_share(self, object_names) -> float:
        """Fraction of all read transactions going to the named objects."""
        total = self.total_reads
        if total == 0:
            return 0.0
        return sum(self.reads_to(n) for n in object_names) / total

    def warp_share(self, block_addr: int) -> float:
        """Max over kernels of (warps reading the block / warps launched)
        — the y-axis of Figure 4."""
        best = 0.0
        for kernel, per_block in self.kernel_block_warps.items():
            n = per_block.get(block_addr)
            if n:
                best = max(best, n / self.kernel_warps[kernel])
        return best


def profile_trace(trace: AppTrace, memory: DeviceMemory) -> AccessProfile:
    """Profile read accesses of a trace against the app's memory map.

    Each warp's reads are tallied in bulk: its load addresses go into
    one flat list, which adds one read per transaction and, once
    de-duplicated, one reading warp per block.  The latter counts
    distinct warps because warp ids are unique within a kernel (as
    :meth:`~repro.kernels.trace.KernelTrace.validate` requires).
    Every dict keeps the order in which its keys were first read.
    """
    block_reads: Counter[int] = Counter()
    object_reads: Counter[str] = Counter()
    kernel_block_warps: dict[str, dict[int, int]] = {}
    kernel_warps: dict[str, int] = {}

    for kernel in trace.kernels:
        block_warps: Counter[int] = Counter()
        n_warps = 0
        for warp in kernel.iter_warps():
            n_warps += 1
            addrs: list[int] = []
            for inst in warp.insts:
                if isinstance(inst, Load):
                    object_reads[inst.obj] += len(inst.addrs)
                    addrs.extend(inst.addrs)
            block_reads.update(addrs)
            # The keys view, not the dict: Counter.update would add a
            # mapping's (None) values instead of counting its keys.
            block_warps.update(dict.fromkeys(addrs).keys())
        # Re-launched kernels carry one name per launch (GramSchmidt's
        # ``_k<column>`` suffix), so each launch keeps its own tally.
        kernel_block_warps[kernel.name] = dict(block_warps)
        kernel_warps[kernel.name] = max(n_warps, 1)

    block_owner: dict[int, str] = {}
    for obj in memory.objects:
        for addr in obj.block_addrs():
            block_owner[addr] = obj.name

    unknown = set(block_reads) - set(block_owner)
    if unknown:
        sample = sorted(unknown)[:3]
        raise ValueError(
            f"{trace.app_name}: trace reads blocks outside any "
            f"allocation, e.g. {[hex(a) for a in sample]}"
        )

    return AccessProfile(
        app_name=trace.app_name,
        block_reads=dict(block_reads),
        object_reads=dict(object_reads),
        block_owner=block_owner,
        kernel_block_warps=kernel_block_warps,
        kernel_warps=kernel_warps,
    )
