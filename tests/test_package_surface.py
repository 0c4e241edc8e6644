"""Tests for the package's public surface and error taxonomy."""

import pytest

import repro
from repro.errors import (
    AddressError,
    AllocationError,
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
    TraceError,
    UncorrectableFault,
    UnknownAppError,
    UnknownSchemeError,
)
from repro.faults.outcomes import Outcome, RunResult


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert int(major) >= 1

    def test_headline_api_importable(self):
        from repro import (
            Campaign,
            CorrectionScheme,
            DetectionScheme,
            PAPER_CONFIG,
            ReliabilityManager,
            create_app,
        )

        assert PAPER_CONFIG.n_sms == 15
        assert callable(create_app)


#: The pinned surface of ``repro.api``.  This list is the compatibility
#: contract: a name leaving it (or silently appearing in it) is an API
#: break and must be a deliberate, reviewed change here AND in
#: docs/API.md — not a side effect of a refactor.
API_SURFACE = [
    "APPLICATIONS",
    "FLAT_APPLICATIONS",
    "create_app",
    "resilience_apps",
    "ReliabilityManager",
    "EvaluationRequest",
    "ProtectionSpec",
    "GpuConfig",
    "PAPER_CONFIG",
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "Outcome",
    "RunResult",
    "AdaptiveConfig",
    "AdaptiveResult",
    "StopDecision",
    "ConfidenceInterval",
    "confidence_interval",
    "runs_for_margin",
    "stratified_interval",
    "StratifiedSelection",
    "stratify_by_object",
    "SweepSpec",
    "Session",
    "SessionConfig",
    "SweepResult",
    "CheckpointStore",
    "summarize_sweep",
    "tradeoff_curve",
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
    "MetricsRegistry",
    "RunRecord",
    "TelemetryWriter",
    "read_records",
    "write_decisions",
    "read_decisions",
    "SessionLog",
    "read_session_events",
    "ProvenanceRecord",
    "ProvenanceWriter",
    "read_provenance",
    "VulnerabilityProfile",
    "vulnerability_profiles",
    "ResultsStore",
    "ingest_files",
    "render_html_report",
    "write_html_report",
    "ProgressEvent",
    "TtyProgress",
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
    "__version__",
]


class TestApiFacade:
    def test_all_matches_pinned_snapshot(self):
        import repro.api

        assert repro.api.__all__ == API_SURFACE

    def test_every_name_resolves(self):
        import repro.api

        for name in API_SURFACE:
            assert hasattr(repro.api, name), name

    def test_star_import_exposes_exactly_the_surface(self):
        namespace = {}
        exec("from repro.api import *", namespace)
        exported = {n for n in namespace if not n.startswith("__")} \
            | {"__version__"}
        assert exported == set(API_SURFACE)

    def test_facade_names_are_canonical_objects(self):
        # The facade re-exports, never wraps: identity must hold so
        # isinstance checks work across import paths.
        import repro.api
        from repro.faults.campaign import Campaign
        from repro.runtime.session import Session, SweepSpec

        assert repro.api.Campaign is Campaign
        assert repro.api.Session is Session
        assert repro.api.SweepSpec is SweepSpec


class TestErrorTaxonomy:
    @pytest.mark.parametrize("exc_type", [
        AllocationError, AddressError, ConfigError, TraceError,
        FaultDetected, UncorrectableFault, KernelCrash,
        UnknownAppError, UnknownSchemeError, SpecError,
        TelemetryError, MetricsError, CheckpointError, SessionError,
        SessionInterrupted, StoreError,
    ])
    def test_all_derive_from_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)
        assert issubclass(exc_type, Exception)

    @pytest.mark.parametrize("exc_type", [
        UnknownAppError, UnknownSchemeError, SpecError, TelemetryError,
    ])
    def test_config_refinements(self, exc_type):
        assert issubclass(exc_type, ConfigError)

    def test_unknown_app_carries_candidates(self):
        exc = UnknownAppError("NOPE", ["A-Laplacian", "P-BICG"])
        assert exc.name == "NOPE"
        assert "P-BICG" in exc.known

    def test_session_interrupted_carries_progress(self):
        exc = SessionInterrupted(3, 8, reason="interrupted")
        assert issubclass(SessionInterrupted, SessionError)
        assert (exc.done, exc.total) == (3, 8)
        assert "3/8" in str(exc)

    def test_fault_detected_carries_location(self):
        exc = FaultDetected("weights", 3)
        assert exc.object_name == "weights"
        assert exc.block_index == 3
        assert "weights" in str(exc)

    def test_fault_detected_custom_message(self):
        exc = FaultDetected("w", 0, message="custom")
        assert str(exc) == "custom"

    def test_catching_base_catches_all(self):
        with pytest.raises(ReproError):
            raise KernelCrash("boom")


class TestOutcomeTaxonomy:
    def test_five_outcomes(self):
        assert {o.value for o in Outcome} == {
            "masked", "sdc", "detected", "corrected", "crash"}

    def test_only_sdc_is_silent(self):
        silent = [o for o in Outcome if o.is_silent_corruption]
        assert silent == [Outcome.SDC]

    def test_benign_outcomes(self):
        assert Outcome.MASKED.is_benign
        assert Outcome.CORRECTED.is_benign
        assert not Outcome.DETECTED.is_benign
        assert not Outcome.CRASH.is_benign
        assert not Outcome.SDC.is_benign

    def test_run_result_is_frozen(self):
        result = RunResult(0, Outcome.MASKED, 0.0)
        with pytest.raises(AttributeError):
            result.outcome = Outcome.SDC
