"""Hardware cost model of the schemes (the paper's Section IV-C).

The implementation overhead the paper budgets per SM's LD/ST unit:

* a 128-byte *start-address table* holding the replica base addresses
  — 32 protected objects for detection (one 32-bit address each) or 16
  for detection-and-correction (two each);
* a 128-byte *load-instruction table* of up to 32 PC addresses of the
  load instructions touching protected objects (the applications never
  exceed 22);
* a 32-bit adder to rebase the original access offset onto each
  replica;
* a 256-bit comparator that checks copies 32 bytes per cycle;
* a 128-byte queue of up to 32 loads awaiting their lazy comparison.

This module enforces those capacities (so an experiment that would not
fit the proposed hardware fails loudly) and computes the comparison
cycle cost the timing simulator charges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import GpuConfig
from repro.errors import ConfigError


@dataclass(frozen=True)
class HardwareBudget:
    """Capacity limits derived from a GPU configuration."""

    addr_table_bytes: int = 128
    inst_table_bytes: int = 128
    pending_compare_entries: int = 32
    comparator_width_bits: int = 256

    @classmethod
    def from_config(cls, config: GpuConfig) -> "HardwareBudget":
        return cls(
            addr_table_bytes=config.addr_table_bytes,
            inst_table_bytes=config.inst_table_bytes,
            pending_compare_entries=config.pending_compare_entries,
            comparator_width_bits=config.comparator_width_bits,
        )

    def max_protected_objects(self, extra_copies: int) -> int:
        """Start-address-table capacity: one 32-bit (4-byte) start
        address per replica copy — 32 objects for detection, 16 for
        detection-and-correction with the paper's 128-byte table."""
        if extra_copies < 1:
            raise ConfigError("extra_copies must be at least 1")
        return self.addr_table_bytes // (4 * extra_copies)

    @property
    def max_tracked_loads(self) -> int:
        """Load-instruction-table capacity (32-bit PC per entry)."""
        return self.inst_table_bytes // 4

    def check(
        self,
        n_protected_objects: int,
        n_protected_loads: int,
        extra_copies: int,
    ) -> None:
        """Raise if protecting ``n_protected_objects`` objects with
        ``extra_copies`` replicas each exceeds the hardware."""
        self.check_copies(n_protected_objects * extra_copies,
                          n_protected_loads)

    def check_copies(self, n_copies: int, n_protected_loads: int) -> None:
        """The capacity rule: the start-address table holds one 4-byte
        base address per replica copy, the load-instruction table one
        PC per protected load.  A mixed spec's detection and correction
        objects share the one table."""
        table_bytes = 4 * n_copies
        if table_bytes > self.addr_table_bytes:
            raise ConfigError(
                f"{n_copies} replica copies need {table_bytes}B of "
                f"start-address table (limit {self.addr_table_bytes}B)"
            )
        if n_protected_loads > self.max_tracked_loads:
            raise ConfigError(
                f"{n_protected_loads} protected load instructions exceed "
                f"the {self.inst_table_bytes}B instruction table "
                f"({self.max_tracked_loads} entries)"
            )

    def compare_cycles(self, nbytes: int, n_way: int = 2) -> int:
        """Cycles the comparator needs for an ``n_way`` comparison of
        ``nbytes`` (it processes comparator_width_bits per cycle; a
        3-way vote needs two passes per chunk)."""
        if nbytes <= 0:
            raise ConfigError("compare size must be positive")
        chunk_bytes = self.comparator_width_bits // 8
        chunks = -(-nbytes // chunk_bytes)
        passes = 1 if n_way == 2 else 2
        return chunks * passes
