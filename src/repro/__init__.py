"""repro — a full reproduction of "Data-centric Reliability Management
in GPUs" (Kadam, Smirni, Jog; DSN 2021).

The package builds, in pure Python:

* :mod:`repro.arch` — the GPU hardware substrate (device memory,
  SECDED ECC, caches, MSHRs, interconnect, DRAM) per Table I,
* :mod:`repro.sim` — a trace-driven timing simulator with warp-level
  latency tolerance,
* :mod:`repro.kernels` — the evaluated GPGPU workloads with functional
  execution and coalesced memory traces,
* :mod:`repro.profiling` — hot-block/hot-object access analysis
  (Figs 3-4, Table III),
* :mod:`repro.faults` — the multi-bit stuck-at fault-injection
  campaign framework (Figs 6, 9),
* :mod:`repro.core` — the paper's contribution: partial-replication
  detection and detection-and-correction schemes plus the end-to-end
  :class:`~repro.core.manager.ReliabilityManager`,
* :mod:`repro.analysis` — statistics, reports, and the per-figure data
  generators the benchmark harness prints,
* :mod:`repro.obs` — observability: a metrics registry shared by the
  simulator, campaigns and the executor, plus deterministic per-run
  telemetry records (JSONL) with a validating reader and summarizer.

Quickstart::

    from repro import ReliabilityManager, create_app

    app = create_app("P-BICG")
    manager = ReliabilityManager(app)
    report = manager.evaluate(scheme="correction", runs=100)
    print(report.summary())
"""

from repro.arch.config import GpuConfig, PAPER_CONFIG
from repro.core.manager import ReliabilityManager
from repro.core.schemes import (
    BaselineScheme,
    CorrectionScheme,
    DetectionScheme,
)
from repro.errors import FaultDetected, KernelCrash, ReproError
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.outcomes import Outcome
from repro.kernels.registry import (
    APPLICATIONS,
    FLAT_APPLICATIONS,
    create_app,
    resilience_apps,
)
from repro.obs import MetricsRegistry, RunRecord, TelemetryWriter
from repro.profiling.hot_blocks import classify_hot_blocks
from repro.profiling.access_profile import profile_trace

__version__ = "2.0.0"

__all__ = [
    "GpuConfig",
    "PAPER_CONFIG",
    "ReliabilityManager",
    "BaselineScheme",
    "DetectionScheme",
    "CorrectionScheme",
    "FaultDetected",
    "KernelCrash",
    "ReproError",
    "Campaign",
    "CampaignConfig",
    "Outcome",
    "MetricsRegistry",
    "RunRecord",
    "TelemetryWriter",
    "APPLICATIONS",
    "FLAT_APPLICATIONS",
    "create_app",
    "resilience_apps",
    "classify_hot_blocks",
    "profile_trace",
    "__version__",
]
