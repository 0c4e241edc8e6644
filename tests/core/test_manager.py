"""Tests for the ReliabilityManager end-to-end API."""

import pytest

from repro.arch.address_space import DeviceMemory
from repro.core.manager import ReliabilityManager
from repro.errors import ConfigError
from repro.faults.outcomes import Outcome
from repro.kernels.registry import create_app
from repro.runtime.cache import app_context


class TestProtectionLevels:
    def test_named_levels(self, laplacian_manager):
        m = laplacian_manager
        assert m.protected_names("none") == ()
        assert m.protected_names("hot") == (
            "Filter", "Filter_Height", "Filter_Width")
        assert m.protected_names("all") == (
            "Filter", "Filter_Height", "Filter_Width", "Image")

    def test_integer_levels_are_cumulative(self, laplacian_manager):
        m = laplacian_manager
        assert m.protected_names(0) == ()
        assert m.protected_names(1) == ("Filter",)
        assert m.protected_names(2) == ("Filter", "Filter_Height")

    def test_out_of_range_rejected(self, laplacian_manager):
        with pytest.raises(ConfigError):
            laplacian_manager.protected_names(9)
        with pytest.raises(ConfigError):
            laplacian_manager.protected_names("everything")


class TestSelections:
    def test_selection_kinds(self, laplacian_manager):
        m = laplacian_manager
        for kind in ("hot", "rest", "access-weighted",
                     "miss-weighted", "uniform"):
            sel = m.selection(kind)
            assert sel.population > 0

    def test_hot_selection_covers_hot_object_blocks(
        self, laplacian_manager
    ):
        m = laplacian_manager
        sel = m.selection("hot")
        assert sel.population == 3  # Filter + Height + Width blocks

    def test_rest_excludes_hot(self, laplacian_manager):
        m = laplacian_manager
        hot = m.selection("hot").population
        rest = m.selection("rest").population
        assert hot + rest == m.profile.n_blocks

    def test_unknown_kind_rejected(self, laplacian_manager):
        with pytest.raises(ConfigError):
            laplacian_manager.selection("lucky-dip")


class TestExperiments:
    def test_evaluate_baseline_vs_protected(self, laplacian_manager):
        m = laplacian_manager
        base = m.evaluate(scheme="baseline", protect="none", runs=30,
                          selection="hot")
        prot = m.evaluate(scheme="correction", protect="hot", runs=30,
                          selection="hot")
        bad_base = base.sdc_count + base.count(Outcome.CRASH)
        bad_prot = prot.sdc_count + prot.count(Outcome.CRASH)
        assert bad_base > 0
        assert bad_prot == 0

    def test_motivation_hot_worse_than_rest(self, laplacian_manager):
        m = laplacian_manager
        hot = m.motivation("hot", runs=30)
        rest = m.motivation("rest", runs=30)
        bad_hot = hot.sdc_count + hot.count(Outcome.CRASH)
        bad_rest = rest.sdc_count + rest.count(Outcome.CRASH)
        assert bad_hot > bad_rest

    def test_motivation_space_validated(self, laplacian_manager):
        with pytest.raises(ConfigError):
            laplacian_manager.motivation("lukewarm", runs=5)

    def test_simulate_performance_baseline(self, laplacian_manager):
        report = laplacian_manager.simulate_performance(
            "baseline", "none")
        assert report.cycles > 0
        assert report.replica_transactions == 0

    def test_simulate_performance_protection_adds_replicas(
        self, laplacian_manager
    ):
        report = laplacian_manager.simulate_performance(
            "correction", "hot")
        assert report.replica_transactions > 0
        assert report.scheme_name == "correction"


class TestCaching:
    def test_artifacts_are_cached(self, laplacian_manager):
        m = laplacian_manager
        assert m.profile is m.profile
        assert m.trace is m.trace
        assert m.hot_blocks is m.hot_blocks

    def test_memory_and_trace_are_the_app_contexts(self, laplacian_manager):
        context = app_context(laplacian_manager.app)
        assert laplacian_manager.memory is context.pristine
        assert laplacian_manager.trace is context.trace

    @pytest.mark.parametrize("scheme", ["baseline", "correction"])
    def test_campaigns_inject_into_the_managers_memory(self, scheme,
                                                       monkeypatch):
        manager = ReliabilityManager(create_app("A-Laplacian",
                                                scale="small"))
        sources = []
        for name in ("clone", "cow_clone"):
            def spy(memory, _original=getattr(DeviceMemory, name)):
                sources.append(memory)
                return _original(memory)
            monkeypatch.setattr(DeviceMemory, name, spy)
        result = manager.evaluate(scheme=scheme, protect="hot", runs=4)
        assert result.n_runs == 4
        assert sources[0] is manager.memory

    def test_invalid_declarations_rejected_at_construction(self):
        app = create_app("P-BICG", scale="small")
        app.hot_object_names  # sanity: accessible

        class Broken(type(app)):
            @property
            def hot_object_names(self):
                return {"A"}  # not a prefix of ["p", "r", "A"]

        broken = Broken(nx=32, ny=32)
        with pytest.raises(ConfigError):
            ReliabilityManager(broken)
