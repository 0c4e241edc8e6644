"""Tests for the unified evaluation request surface."""

import pytest

from repro.core.manager import ReliabilityManager
from repro.core.protection import ProtectionSpec
from repro.core.request import EvaluationRequest
from repro.errors import SpecError
from repro.kernels.registry import create_app
from repro.obs.metrics import MetricsRegistry
from repro.runtime.session import Session, SweepSpec


def manager(app="A-Laplacian"):
    return ReliabilityManager(create_app(app, scale="small"))


class TestValidation:
    def test_app_required(self):
        with pytest.raises(SpecError, match="app"):
            EvaluationRequest(app="")

    def test_runs_positive(self):
        with pytest.raises(SpecError, match="runs"):
            EvaluationRequest(app="P-BICG", runs=0)

    def test_jobs_floor(self):
        with pytest.raises(SpecError, match="jobs"):
            EvaluationRequest(app="P-BICG", jobs=0)

    def test_target_margin_range(self):
        with pytest.raises(SpecError, match="target_margin"):
            EvaluationRequest(app="P-BICG", target_margin=1.5)


class TestIdentity:
    def test_knobs_and_sinks_excluded_from_digest(self):
        plain = EvaluationRequest(app="P-BICG", runs=10)
        knobbed = EvaluationRequest(app="P-BICG", runs=10, jobs=8,
                                    batch=16,
                                    metrics=MetricsRegistry())
        assert plain.digest() == knobbed.digest()

    def test_typed_protection_changes_identity(self):
        spec = ProtectionSpec.parse("p=correction")
        a = EvaluationRequest(app="P-BICG", protect=spec)
        b = EvaluationRequest(app="P-BICG", protect="hot")
        assert a.digest() != b.digest()
        assert a.to_dict()["scheme"] == "spec"
        assert a.to_dict()["protect"] == spec.to_dict()

    def test_equals_string_shorthand_is_typed(self):
        request = EvaluationRequest(app="P-BICG",
                                    protect="p=correction")
        assert request.protection == ProtectionSpec.parse(
            "p=correction")

    def test_contextual_shorthand_stays_downstream(self):
        assert EvaluationRequest(app="P-BICG",
                                 protect="hot").protection is None

    def test_conditional_keys_only_when_set(self):
        doc = EvaluationRequest(app="P-BICG").to_dict()
        assert "secded" not in doc
        assert "target_margin" not in doc
        assert "chunk_runs" not in doc


class TestManagerSurface:
    def test_request_equals_kwargs(self):
        m = manager()
        request = EvaluationRequest(app="A-Laplacian",
                                    scheme="correction", protect="hot",
                                    runs=8, seed=5)
        via_request = m.evaluate(request=request)
        via_kwargs = m.evaluate(scheme="correction", protect="hot",
                                runs=8, seed=5)
        assert via_request.to_dict() == via_kwargs.to_dict()

    def test_request_with_typed_protection(self):
        m = manager()
        hot = m.app.object_importance[0]
        request = EvaluationRequest(
            app="A-Laplacian", runs=8, seed=5,
            protect=ProtectionSpec.parse(f"{hot}=correction"))
        result = m.evaluate(request=request)
        assert result.n_runs == 8

    def test_wrong_app_rejected(self):
        request = EvaluationRequest(app="P-BICG", runs=4)
        with pytest.raises(SpecError, match="P-BICG"):
            manager("A-Laplacian").evaluate(request=request)

    def test_adaptive_request_needs_a_margin(self):
        request = EvaluationRequest(app="A-Laplacian", runs=4)
        with pytest.raises(SpecError, match="target_margin"):
            manager().evaluate_adaptive(request=request)


class TestSessionSurface:
    def test_session_accepts_a_request(self):
        request = EvaluationRequest(app="A-Laplacian",
                                    scheme="baseline", protect="none",
                                    runs=8, seed=5, scale="small",
                                    batch=4, jobs=1)
        session = Session(request)
        assert session.config.batch == 4
        sweep = session.run()
        assert sweep.entries[0].result.n_runs == 8

    def test_from_request_equals_explicit_spec(self):
        request = EvaluationRequest(app="A-Laplacian",
                                    scheme="baseline", protect="none",
                                    runs=8, seed=5, scale="small",
                                    collect_records=True)
        explicit = SweepSpec(apps=("A-Laplacian",),
                             schemes=("baseline",),
                             protects=("none",), runs=8, seed=5,
                             scale="small")
        assert SweepSpec.from_request(request).digest() == \
            explicit.digest()

    def test_provenance_not_supported_by_sessions(self):
        request = EvaluationRequest(app="A-Laplacian", runs=4,
                                    collect_provenance=True)
        with pytest.raises(SpecError, match="provenance"):
            SweepSpec.from_request(request)
