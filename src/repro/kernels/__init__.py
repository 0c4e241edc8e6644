"""GPGPU workload models.

Every application the paper evaluates is re-implemented here twice
over:

1. *Functionally* — NumPy math that reads kernel inputs from simulated
   device memory (through a pluggable reader, where the reliability
   schemes interpose) so injected faults propagate to real outputs.
2. *As a trace* — the warp-level, coalesced memory-transaction stream
   the CUDA kernel's loads and stores would generate, which drives the
   profiling analyses (Figs 3/4, Table III) and the timing simulator
   (Fig 7).

The access-pattern fidelity lives in the per-kernel index arithmetic,
transcribed from the paper's listings and the benchmark suites'
sources (e.g. ``r[i]`` broadcasts while ``A[i*NY+j]`` streams, and the
column-major kernels issue 32-way uncoalesced transactions).
"""

from repro.kernels.base import GpuApplication, PlainReader
from repro.kernels.registry import (
    APPLICATIONS,
    FLAT_APPLICATIONS,
    create_app,
    resilience_apps,
)
from repro.kernels.trace import (
    AppTrace,
    Compute,
    CtaTrace,
    KernelTrace,
    Load,
    Store,
    WarpTrace,
)

__all__ = [
    "GpuApplication",
    "PlainReader",
    "APPLICATIONS",
    "FLAT_APPLICATIONS",
    "create_app",
    "resilience_apps",
    "AppTrace",
    "Compute",
    "CtaTrace",
    "KernelTrace",
    "Load",
    "Store",
    "WarpTrace",
]
