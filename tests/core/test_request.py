"""Tests for the unified evaluation request surface."""

import dataclasses

import pytest

from repro.core.manager import ReliabilityManager
from repro.core.protection import ProtectionSpec
from repro.core.request import EvaluationRequest
from repro.errors import SpecError, UnknownAppError, UnknownSchemeError
from repro.kernels.bicg import Bicg
from repro.kernels.registry import create_app
from repro.obs.metrics import MetricsRegistry
from repro.runtime.session import Session, SweepSpec


class _UserBicg(Bicg):
    """A user application: a subclass no registry names."""

    name = "X-UserBicg"


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

    def test_unknown_scheme(self):
        with pytest.raises(UnknownSchemeError):
            EvaluationRequest(app="P-BICG", scheme="tmr")

    def test_unregistered_app_checked_where_it_is_built(self):
        # A user application subclass is no registry name, so the
        # request accepts it; a session builds apps by name and fails.
        request = EvaluationRequest(app="NOT-AN-APP")
        with pytest.raises(UnknownAppError):
            Session(request)

    @pytest.mark.parametrize("protect", [True, "warm", 1.5, "p="])
    def test_bad_protect_rejected(self, protect):
        with pytest.raises(SpecError, match="protect"):
            EvaluationRequest(app="P-BICG", protect=protect)

    def test_unknown_scale(self):
        with pytest.raises(SpecError, match="scale"):
            EvaluationRequest(app="P-BICG", scale="huge")

    def test_chunk_runs_positive(self):
        with pytest.raises(SpecError, match="chunk_runs"):
            EvaluationRequest(app="P-BICG", chunk_runs=0)


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
                                    runs=8, seed=5, scale="small")
        via_request = m.evaluate(request=request)
        via_kwargs = m.evaluate(scheme="correction", protect="hot",
                                runs=8, seed=5)
        assert via_request.to_dict() == via_kwargs.to_dict()

    def test_request_with_typed_protection(self):
        m = manager()
        hot = m.app.object_importance[0]
        request = EvaluationRequest(
            app="A-Laplacian", runs=8, seed=5, scale="small",
            protect=ProtectionSpec.parse(f"{hot}=correction"))
        result = m.evaluate(request=request)
        assert result.n_runs == 8

    def test_wrong_app_rejected(self):
        request = EvaluationRequest(app="P-BICG", runs=4)
        with pytest.raises(SpecError, match="P-BICG"):
            manager("A-Laplacian").evaluate(request=request)

    @pytest.mark.parametrize("instance", [
        dict(scale="default"), dict(scale="small", app_seed=77)])
    def test_other_app_instance_rejected(self, instance):
        # A small-scale, seed-1234 manager drives one instance only;
        # a request for another would run on the wrong inputs.
        request = EvaluationRequest(app="A-Laplacian", runs=4,
                                    **instance)
        with pytest.raises(SpecError, match="different"):
            manager().evaluate(request=request)
        with pytest.raises(SpecError, match="different"):
            manager().evaluate_adaptive(
                request=EvaluationRequest(app="A-Laplacian", runs=4,
                                          target_margin=0.1, **instance))

    def test_user_application_evaluates(self):
        m = ReliabilityManager(_UserBicg(nx=96, ny=96))
        via_kwargs = m.evaluate(runs=4)
        via_request = m.evaluate(
            request=EvaluationRequest(app="X-UserBicg", runs=4))
        assert via_kwargs.n_runs == 4
        assert via_request.to_dict() == via_kwargs.to_dict()

    def test_custom_sizes_take_the_keyword_surface(self):
        # No (scale, app_seed) builds this instance, so no request
        # names it; the keyword surface still drives it.
        m = ReliabilityManager(
            create_app("A-Laplacian", height=40, width=40))
        assert m.evaluate(runs=4).n_runs == 4
        for scale in ("default", "small"):
            with pytest.raises(SpecError, match="different"):
                m.evaluate(request=EvaluationRequest(
                    app="A-Laplacian", runs=4, scale=scale))

    def test_secded_keywords_equal_request(self):
        m = manager("P-BICG")
        fields = dict(secded=True, n_bits=3, runs=16, seed=5)
        via_kwargs = m.evaluate(**fields)
        via_request = m.evaluate(request=EvaluationRequest(
            app="P-BICG", scale="small", **fields))
        assert via_kwargs.to_dict() == via_request.to_dict()

    def test_adaptive_chunk_runs_keyword(self):
        m = manager()
        fields = dict(target_margin=0.1, chunk_runs=32, runs=256)
        via_kwargs = m.evaluate_adaptive(**fields)
        via_request = m.evaluate_adaptive(request=EvaluationRequest(
            app="A-Laplacian", scale="small", **fields))
        committed = [d.committed for d in via_kwargs.decisions]
        assert committed and all(n % 32 == 0 for n in committed)
        assert [d.to_dict() for d in via_kwargs.decisions] == \
            [d.to_dict() for d in via_request.decisions]

    def test_request_and_fields_rejected(self):
        # The fields are never dropped in silence.
        request = EvaluationRequest(app="A-Laplacian", runs=8,
                                    scale="small")
        with pytest.raises(SpecError, match="runs"):
            manager().evaluate(request=request, runs=4)
        with pytest.raises(SpecError, match="scheme"):
            manager().evaluate_adaptive(
                request=dataclasses.replace(request, target_margin=0.1),
                scheme="detection")

    @pytest.mark.parametrize("fixed", [
        dict(scale="small"), dict(app_seed=77), dict(app="A-Laplacian")])
    def test_application_fields_rejected(self, fixed):
        with pytest.raises(SpecError, match="fixes"):
            manager().evaluate(runs=4, **fixed)

    @pytest.mark.parametrize("fixed", [
        dict(scheme="detection"), dict(protect="all"),
        dict(selection="uniform")])
    def test_motivation_fixes_its_arm(self, fixed):
        with pytest.raises(SpecError, match="fixes"):
            manager().motivation("hot", runs=4, **fixed)

    def test_adaptive_request_needs_a_margin(self):
        request = EvaluationRequest(app="A-Laplacian", runs=4,
                                    scale="small")
        with pytest.raises(SpecError, match="target_margin"):
            manager().evaluate_adaptive(request=request)


class TestSessionSurface:
    def test_session_accepts_a_request(self):
        request = EvaluationRequest(app="A-Laplacian",
                                    scheme="baseline", protect="none",
                                    runs=8, seed=5, scale="small",
                                    batch=4, jobs=1, chunk_runs=8)
        session = Session(request)
        assert session.requests == (request,)
        sweep = session.run()
        assert sweep.entries[0].result.n_runs == 8
        # The cell ran at its own request's batch: two 4-lane batches.
        histograms = sweep.entries[0].result.metrics_snapshot[
            "histograms"]
        assert histograms["campaign.batch_ms"]["count"] == 2

    def test_request_equals_one_cell_grid(self):
        request = EvaluationRequest(app="A-Laplacian",
                                    scheme="baseline", protect="none",
                                    runs=8, seed=5, scale="small",
                                    collect_records=True)
        grid = SweepSpec(dataclasses.replace(request, scheme="detection"),
                         schemes=("baseline",), protects=("none",))
        assert tuple(grid) == (request,)
        assert Session(grid).digest() == Session(request).digest()

    def test_provenance_not_supported_by_sessions(self):
        request = EvaluationRequest(app="A-Laplacian", runs=4,
                                    collect_provenance=True)
        with pytest.raises(SpecError, match="provenance"):
            Session(request)
