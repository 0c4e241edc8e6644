"""The stable public API of :mod:`repro`.

This module is the one import surface with a compatibility promise:
everything in ``__all__`` below keeps its name, location and calling
convention across minor releases, and ``tests/test_package_surface.py``
snapshots the list so an accidental change fails CI.  Internals
(``repro.sim``, ``repro.arch``, scheme implementation classes, worker
entry points) may move freely between releases — import them from
their defining modules at your own risk.

Deprecation policy: when a name or keyword here is renamed, the old
spelling keeps working for at least one minor release, emitting a
``DeprecationWarning`` exactly once per process, and is removed only
on a major version bump.  See docs/API.md for the vocabulary
(``jobs``, ``runs``, ``seed``, ``scheme``, ``protect``) and, under
"Removed in 2.0.0", the old spellings that release removed.

Quickstart::

    from repro.api import ReliabilityManager, create_app

    manager = ReliabilityManager(create_app("P-BICG"))
    result = manager.evaluate(scheme="correction", protect="hot",
                              runs=1000, jobs=4)

    # One request value drives every entry point:
    from repro.api import EvaluationRequest, ProtectionSpec

    request = EvaluationRequest(app="P-BICG", runs=1000, jobs=4,
                                protect=ProtectionSpec.parse(
                                    "p=correction,r=detection"))
    result = manager.evaluate(request=request)

    # Grid sweeps (one request per cell) with durable, resumable
    # progress:
    from repro.api import Session, SessionConfig, SweepSpec

    spec = SweepSpec(EvaluationRequest(app="P-BICG", runs=1000),
                     apps=("P-BICG", "A-Laplacian"),
                     schemes=("baseline", "correction"))
    session = Session(spec, store="sweep.ckpt",
                      config=SessionConfig(jobs=8))
    sweep = session.run(resume=True)

    # Design-space exploration with Pareto-front extraction:
    from repro.api import optimize

    search = optimize(app="P-BICG", strategy="greedy", runs=500,
                      store="dse.ckpt", resume=True,
                      max_overhead=0.02)
    print(search.best, search.front)
"""

from repro import __version__
from repro.arch.config import GpuConfig, PAPER_CONFIG
from repro.core.manager import ReliabilityManager
from repro.core.protection import ProtectionSpec
from repro.core.request import EvaluationRequest
from repro.errors import (
    CheckpointError,
    ConfigError,
    FaultDetected,
    KernelCrash,
    MetricsError,
    ReproError,
    SessionError,
    SessionInterrupted,
    SpecError,
    StoreError,
    TelemetryError,
    UnknownAppError,
    UnknownSchemeError,
)
from repro.faults.adaptive import (
    AdaptiveConfig,
    AdaptiveResult,
    StopDecision,
)
from repro.faults.campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
)
from repro.faults.outcomes import Outcome, RunResult
from repro.faults.selection import StratifiedSelection, stratify_by_object
from repro.kernels.registry import (
    APPLICATIONS,
    FLAT_APPLICATIONS,
    create_app,
    resilience_apps,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressEvent, TtyProgress
from repro.obs.provenance import (
    ProvenanceRecord,
    ProvenanceWriter,
    VulnerabilityProfile,
    read_provenance,
    vulnerability_profiles,
)
from repro.obs.records import (
    RunRecord,
    TelemetryWriter,
    read_decisions,
    read_records,
    write_decisions,
)
from repro.utils.stats import (
    ConfidenceInterval,
    confidence_interval,
    runs_for_margin,
    stratified_interval,
)
from repro.obs.session import SessionLog, read_session_events
from repro.obs.store import ResultsStore, ingest_files
from repro.analysis.html import render_html_report, write_html_report
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.session import (
    Session,
    SessionConfig,
    SweepResult,
    SweepSpec,
)
from repro.analysis.figures import ParetoPoint, pareto_front_series
from repro.analysis.sweep import summarize_sweep
from repro.analysis.tradeoff import tradeoff_curve
from repro.obs.search import read_search_trail
from repro.search.engine import OptimizeResult, optimize
from repro.search.pareto import Evaluation, budget_best, pareto_front
from repro.search.space import DesignPoint, DesignSpace

__all__ = [
    # applications
    "APPLICATIONS",
    "FLAT_APPLICATIONS",
    "create_app",
    "resilience_apps",
    # end-to-end management and the unified evaluation surface
    "ReliabilityManager",
    "EvaluationRequest",
    "ProtectionSpec",
    "GpuConfig",
    "PAPER_CONFIG",
    # campaigns
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "Outcome",
    "RunResult",
    # adaptive campaigns and statistics
    "AdaptiveConfig",
    "AdaptiveResult",
    "StopDecision",
    "ConfidenceInterval",
    "confidence_interval",
    "runs_for_margin",
    "stratified_interval",
    "StratifiedSelection",
    "stratify_by_object",
    # sweep sessions
    "SweepSpec",
    "Session",
    "SessionConfig",
    "SweepResult",
    "CheckpointStore",
    "summarize_sweep",
    "tradeoff_curve",
    # design-space exploration
    "optimize",
    "OptimizeResult",
    "DesignPoint",
    "DesignSpace",
    "Evaluation",
    "pareto_front",
    "budget_best",
    "ParetoPoint",
    "pareto_front_series",
    "read_search_trail",
    # observability
    "MetricsRegistry",
    "RunRecord",
    "TelemetryWriter",
    "read_records",
    "write_decisions",
    "read_decisions",
    "SessionLog",
    "read_session_events",
    # provenance and vulnerability attribution
    "ProvenanceRecord",
    "ProvenanceWriter",
    "read_provenance",
    "VulnerabilityProfile",
    "vulnerability_profiles",
    # results warehouse, reporting and live progress
    "ResultsStore",
    "ingest_files",
    "render_html_report",
    "write_html_report",
    "ProgressEvent",
    "TtyProgress",
    # errors
    "ReproError",
    "ConfigError",
    "SpecError",
    "UnknownAppError",
    "UnknownSchemeError",
    "CheckpointError",
    "SessionError",
    "SessionInterrupted",
    "StoreError",
    "TelemetryError",
    "MetricsError",
    "FaultDetected",
    "KernelCrash",
    # metadata
    "__version__",
]
