"""Tests for the renamed-keyword compatibility shims."""

import warnings

import pytest

from repro._compat import UNSET, reset_warnings, resolve_renamed
from repro.errors import SpecError
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.selection import uniform_selection
from repro.kernels.registry import create_app


@pytest.fixture(autouse=True)
def fresh_warning_registry():
    reset_warnings()
    yield
    reset_warnings()


def make_campaign(**kwargs):
    app = create_app("A-Laplacian", scale="small")
    memory = app.fresh_memory()
    hot = tuple(app.hot_object_names)
    pool = [
        a for n in hot for a in memory.object(n).block_addrs()
    ]
    kwargs = {
        key: (hot if value is HOT else value)
        for key, value in kwargs.items()
    }
    return Campaign(app, uniform_selection(pool),
                    config=CampaignConfig(runs=4, seed=9), **kwargs)


#: Placeholder resolved to the app's real hot-object names.
HOT = object()


class TestResolveRenamed:
    def test_new_spelling_passes_through_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = resolve_renamed("F", "old", "new", UNSET, 42)
        assert value == 42

    def test_old_spelling_warns_and_wins(self):
        with pytest.warns(DeprecationWarning, match="'old'.*'new'"):
            value = resolve_renamed("F", "old", "new", 7, UNSET)
        assert value == 7

    def test_warns_exactly_once_per_process(self):
        with pytest.warns(DeprecationWarning):
            resolve_renamed("F", "old", "new", 1, UNSET)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolve_renamed("F", "old", "new", 2, UNSET)

    def test_distinct_keywords_each_warn(self):
        with pytest.warns(DeprecationWarning):
            resolve_renamed("F", "old_a", "new_a", 1, UNSET)
        with pytest.warns(DeprecationWarning):
            resolve_renamed("F", "old_b", "new_b", 1, UNSET)

    def test_both_spellings_rejected(self):
        with pytest.raises(SpecError, match="both"):
            resolve_renamed("F", "old", "new", 1, 2)


class TestCampaignShims:
    def test_scheme_name_still_works(self):
        with pytest.warns(DeprecationWarning, match="scheme_name"):
            campaign = make_campaign(scheme_name="detection",
                                     protect=HOT)
        assert campaign.scheme == "detection"
        assert campaign.scheme_name == "detection"

    def test_protected_names_still_works(self):
        with pytest.warns(DeprecationWarning, match="protected_names"):
            campaign = make_campaign(protected_names=HOT)
        assert campaign.protect == campaign.protected_names
        assert len(campaign.protect) > 0

    def test_old_and_new_spellings_agree(self):
        with pytest.warns(DeprecationWarning):
            old = make_campaign(scheme_name="correction",
                                protected_names=HOT)
        new = make_campaign(scheme="correction", protect=HOT)
        assert old.run().to_dict() == new.run().to_dict()

    def test_both_spellings_at_once_rejected(self):
        with pytest.raises(SpecError, match="scheme"):
            make_campaign(scheme="baseline", scheme_name="baseline")

    def test_canonical_spelling_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_campaign(scheme="baseline")


class TestRunSweepShim:
    SPEC_KW = dict(app="A-Laplacian", scheme="baseline",
                   protect="none", runs=4, seed=9, scale="small",
                   collect_records=True)

    def test_checkpoint_dir_still_works(self, tmp_path):
        from repro.core.request import EvaluationRequest
        from repro.runtime.session import run_sweep

        spec = EvaluationRequest(**self.SPEC_KW)
        with pytest.warns(DeprecationWarning, match="checkpoint_dir"):
            old = run_sweep(spec, checkpoint_dir=str(tmp_path / "a"))
        new = run_sweep(spec, store=str(tmp_path / "b"))
        assert old.to_dict() == new.to_dict()

    def test_both_spellings_rejected(self, tmp_path):
        from repro.core.request import EvaluationRequest
        from repro.runtime.session import run_sweep

        spec = EvaluationRequest(**self.SPEC_KW)
        with pytest.raises(SpecError, match="both"):
            run_sweep(spec, store=str(tmp_path / "a"),
                      checkpoint_dir=str(tmp_path / "b"))

    def test_store_spelling_never_warns(self, tmp_path):
        from repro.core.request import EvaluationRequest
        from repro.runtime.session import run_sweep

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_sweep(EvaluationRequest(**self.SPEC_KW),
                      store=str(tmp_path / "s"))
