"""Simulated GPU configuration (the paper's Table I).

All latencies are expressed in *core* clock cycles so the simulator
runs on a single timebase; the DRAM/interconnect clock ratios from
Table I are folded into the derived cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError

KIB = 1024


@dataclass(frozen=True)
class GpuConfig:
    """Architecture parameters for the simulated GPU.

    Defaults reproduce Table I of the paper (a GTX480/Fermi-class
    configuration, the GPGPU-Sim default the authors evaluate on).
    """

    # Core features
    core_clock_mhz: int = 1400
    simt_width: int = 32
    n_sms: int = 15
    issue_width: int = 2

    # Resources per core
    shared_mem_bytes: int = 32 * KIB
    register_file_bytes: int = 32 * KIB
    max_ctas_per_sm: int = 8
    max_warps_per_sm: int = 48

    # L1 caches per core
    l1_size_bytes: int = 16 * KIB
    l1_assoc: int = 4
    icache_size_bytes: int = 2 * KIB
    icache_assoc: int = 4
    line_bytes: int = 128
    l1_mshr_entries: int = 32
    l1_mshr_max_merged: int = 8
    l1_hit_latency: int = 28

    # L2 cache (one slice per memory channel)
    l2_slice_size_bytes: int = 256 * KIB
    l2_assoc: int = 16
    l2_hit_latency: int = 40
    l2_service_cycles: int = 2  # tag-array occupancy per request

    # Memory model
    n_mem_channels: int = 6
    dram_banks_per_channel: int = 16
    mem_clock_mhz: int = 924
    dram_row_bytes: int = 2 * KIB
    dram_row_hit_cycles: int = 60
    dram_row_miss_cycles: int = 130
    dram_bus_cycles_per_line: int = 12

    # Interconnect
    interconnect_clock_mhz: int = 1400
    interconnect_latency: int = 8
    interconnect_bytes_per_cycle: int = 32

    # Reliability-scheme hardware (Section IV-C of the paper)
    addr_table_bytes: int = 128
    inst_table_bytes: int = 128
    pending_compare_entries: int = 32
    comparator_width_bits: int = 256

    def __post_init__(self) -> None:
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("line_bytes must be a positive power of two")
        if self.l1_size_bytes % (self.line_bytes * self.l1_assoc):
            raise ConfigError("L1 size must divide into line*assoc sets")
        if self.l2_slice_size_bytes % (self.line_bytes * self.l2_assoc):
            raise ConfigError("L2 slice size must divide into line*assoc sets")
        for name in ("n_sms", "n_mem_channels", "simt_width", "issue_width"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    @property
    def l2_total_bytes(self) -> int:
        """Aggregate L2 capacity across all slices (1536 KB in Table I)."""
        return self.l2_slice_size_bytes * self.n_mem_channels

    def scaled(self, **overrides) -> "GpuConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)

    def channel_of_address(self, addr: int) -> int:
        """Memory partition servicing a byte address (line-interleaved)."""
        return (addr // self.line_bytes) % self.n_mem_channels

    def describe(self) -> list[tuple[str, str]]:
        """Table I rows as (category, description) pairs."""
        return [
            (
                "Core Features",
                f"{self.core_clock_mhz}MHz core clock, "
                f"SIMT width = {self.simt_width}",
            ),
            (
                "Resources / Core",
                f"{self.shared_mem_bytes // KIB}KB shared memory, "
                f"{self.register_file_bytes // KIB}KB register file, "
                f"{self.n_sms} SMs",
            ),
            (
                "L1 Caches / Core",
                f"{self.l1_size_bytes // KIB}KB {self.l1_assoc}-way L1 data "
                f"cache, {self.icache_size_bytes // KIB}KB "
                f"{self.icache_assoc}-way I-cache, "
                f"{self.line_bytes}B cache block size",
            ),
            (
                "L2 Caches",
                f"{self.l2_assoc}-way "
                f"{self.l2_slice_size_bytes // KIB} KB/memory channel "
                f"({self.l2_total_bytes // KIB} KB in total), "
                f"{self.line_bytes}B cache block size",
            ),
            (
                "Memory Model",
                f"{self.n_mem_channels} GDDR5 Memory Controllers, "
                f"FR-FCFS scheduling, "
                f"{self.dram_banks_per_channel} DRAM-banks, "
                f"{self.mem_clock_mhz} MHz memory clock",
            ),
            (
                "Interconnect",
                f"{self.interconnect_clock_mhz}MHz interconnect clock",
            ),
        ]


#: The exact configuration evaluated in the paper (Table I).
PAPER_CONFIG = GpuConfig()


def fast_config() -> GpuConfig:
    """A reduced configuration for quick tests (fewer SMs/channels)."""
    return GpuConfig(
        n_sms=4,
        n_mem_channels=2,
        l2_slice_size_bytes=64 * KIB,
        max_warps_per_sm=24,
    )
