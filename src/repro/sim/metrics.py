"""Timing-simulation result records."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class StallBreakdown:
    """Why warps could not issue (in scheduler decisions, not cycles)."""

    memory_wait: int = 0
    mshr_full: int = 0
    compare_queue_full: int = 0


@dataclass
class SimReport:
    """Outcome of one timing simulation run."""

    app_name: str
    scheme_name: str
    protected_names: tuple[str, ...]
    cycles: int
    kernel_cycles: dict[str, int]
    instructions: int
    #: Demand read transactions sent below L1 (true misses, no merges).
    demand_misses: int
    #: Extra read transactions for replica copies (detection/correction).
    replica_transactions: int
    #: Write-through store transactions sent below L1.
    store_transactions: int
    l1_accesses: int
    l1_hits: int
    l2_accesses: int
    l2_hits: int
    dram_requests: int
    dram_row_hits: int
    stalls: StallBreakdown = field(default_factory=StallBreakdown)
    #: Total cycles requests queued behind busy DRAM banks.
    dram_bank_queue_cycles: int = 0
    #: Total cycles ready lines waited for the channel data bus.
    dram_bus_queue_cycles: int = 0

    @property
    def l1_missed_accesses(self) -> int:
        """The Figure 7 companion metric: read transactions below L1,
        including replica traffic."""
        return self.demand_misses + self.replica_transactions

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def slowdown_vs(self, baseline: "SimReport") -> float:
        """Execution time normalized to a baseline run (Fig 7 y-axis)."""
        if baseline.cycles == 0:
            raise ValueError("baseline has zero cycles")
        return self.cycles / baseline.cycles

    def missed_accesses_vs(self, baseline: "SimReport") -> float:
        """L1-missed accesses normalized to a baseline run."""
        if baseline.l1_missed_accesses == 0:
            raise ValueError("baseline has zero missed accesses")
        return self.l1_missed_accesses / baseline.l1_missed_accesses

    def to_dict(self) -> dict:
        """JSON image; :meth:`from_dict` rebuilds an equal report.

        ``kernel_cycles`` travels as ``[name, cycles]`` pairs, so the
        kernel order survives canonical (key-sorted) encoding.
        """
        doc = asdict(self)
        doc["protected_names"] = list(self.protected_names)
        doc["kernel_cycles"] = [
            [name, cycles] for name, cycles in self.kernel_cycles.items()
        ]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "SimReport":
        """Rebuild a report from its :meth:`to_dict` image."""
        fields = dict(doc)
        fields["protected_names"] = tuple(fields["protected_names"])
        fields["kernel_cycles"] = {
            name: cycles for name, cycles in fields["kernel_cycles"]
        }
        fields["stalls"] = StallBreakdown(**fields["stalls"])
        return cls(**fields)

    def summary(self) -> str:
        """One-line human-readable report."""
        prot = ",".join(self.protected_names) or "-"
        return (
            f"{self.app_name} [{self.scheme_name}; protected: {prot}] "
            f"cycles={self.cycles} ipc={self.ipc:.2f} "
            f"L1 hit={self.l1_hit_rate:.1%} "
            f"missed-accesses={self.l1_missed_accesses} "
            f"(replicas {self.replica_transactions})"
        )
