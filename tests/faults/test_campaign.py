"""Tests for the fault-injection campaign runner."""

import pytest

from repro.core.protection import ProtectionSpec
from repro.core.replication import replicate_spec
from repro.errors import ConfigError, SpecError
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.outcomes import Outcome
from repro.faults.selection import hot_selection, uniform_selection
from repro.kernels.registry import create_app


def make_campaign(app_name="A-Laplacian", scheme="baseline",
                  protected=(), selection_pool="hot", runs=10,
                  n_bits=2, n_blocks=1, **kwargs):
    app = create_app(app_name, scale="small")
    memory = app.fresh_memory()
    if selection_pool == "hot":
        pool = [
            a for n in app.hot_object_names
            for a in memory.object(n).block_addrs()
        ]
    else:
        pool = [
            a for o in memory.objects for a in o.block_addrs()
        ]
    return Campaign(
        app,
        uniform_selection(pool),
        scheme=scheme,
        protect=protected,
        config=CampaignConfig(runs=runs, n_blocks=n_blocks,
                              n_bits=n_bits, seed=77),
        **kwargs,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CampaignConfig(runs=0)
        with pytest.raises(ConfigError):
            CampaignConfig(n_blocks=0)
        with pytest.raises(ConfigError):
            CampaignConfig(n_bits=0)
        with pytest.raises(ConfigError):
            CampaignConfig(n_bits=40)

    def test_writable_protected_object_refused_at_construction(self):
        # P-BICG's output vector s is written by its kernel.
        with pytest.raises(ConfigError,
                           match="cannot protect writable object 's'"):
            make_campaign("P-BICG", scheme="detection", protected=("s",))

    def test_writable_object_in_mixed_protection_refused(self):
        app = create_app("P-BICG", scale="small")
        spec = ProtectionSpec.parse("r=correction,s=detection")
        with pytest.raises(ConfigError,
                           match="cannot protect writable object 's'"):
            Campaign(app, uniform_selection([0]), protection=spec)

    def test_unknown_protected_object_refused_at_construction(self):
        # Before any chunk runs, so the executor never retries it; the
        # timing model's replica allocation refuses it the same way.
        app = create_app("P-BICG", scale="small")
        spec = ProtectionSpec.parse("r=correction,nope=detection")
        with pytest.raises(SpecError, match="cannot protect 'nope'"):
            Campaign(app, uniform_selection([0]), protection=spec)
        with pytest.raises(SpecError, match="cannot protect 'nope'"):
            replicate_spec(app.fresh_memory(), spec, populate=False)


class TestBaselineCampaign:
    def test_outcome_counts_sum_to_runs(self):
        result = make_campaign(runs=12).run()
        assert result.n_runs == 12
        assert sum(result.counts.values()) == 12

    def test_hot_faults_cause_bad_outcomes(self):
        """Faults uniformly in laplacian's hot blocks (filter + bounds)
        frequently produce SDC or crash under no protection."""
        result = make_campaign(runs=40).run()
        bad = result.sdc_count + result.count(Outcome.CRASH)
        assert bad > 10
        assert result.count(Outcome.DETECTED) == 0
        assert result.count(Outcome.CORRECTED) == 0

    def test_reproducible(self):
        a = make_campaign(runs=15).run()
        b = make_campaign(runs=15).run()
        assert a.counts == b.counts

    def test_seed_changes_outcomes(self):
        app = create_app("A-Laplacian", scale="small")
        memory = app.fresh_memory()
        pool = [
            a for n in app.hot_object_names
            for a in memory.object(n).block_addrs()
        ]
        runs = []
        for seed in (1, 2):
            campaign = Campaign(
                app, uniform_selection(pool),
                config=CampaignConfig(runs=20, seed=seed),
                keep_runs=True,
            )
            runs.append([r.outcome for r in campaign.run().runs])
        assert runs[0] != runs[1]

    def test_keep_runs_records_details(self):
        campaign = make_campaign(runs=5, keep_runs=True)
        result = campaign.run()
        assert len(result.runs) == 5
        assert [r.run_index for r in result.runs] == list(range(5))


class TestDetectionCampaign:
    def test_hot_faults_get_detected(self):
        result = make_campaign(
            scheme="detection",
            protected=("Filter", "Filter_Height", "Filter_Width"),
            runs=40,
        ).run()
        assert result.count(Outcome.DETECTED) > 10
        assert result.sdc_count == 0
        assert result.count(Outcome.CRASH) == 0

    def test_masked_when_stuck_matches_data(self):
        # Some stuck-at values equal the stored bits: no mismatch, no
        # detection, clean output.
        result = make_campaign(
            scheme="detection",
            protected=("Filter", "Filter_Height", "Filter_Width"),
            runs=40,
        ).run()
        assert result.count(Outcome.MASKED) > 0


class TestCorrectionCampaign:
    def test_hot_faults_get_corrected(self):
        result = make_campaign(
            scheme="correction",
            protected=("Filter", "Filter_Height", "Filter_Width"),
            runs=40,
        ).run()
        assert result.count(Outcome.CORRECTED) > 10
        assert result.sdc_count == 0
        assert result.count(Outcome.CRASH) == 0

    def test_corrected_outputs_match_golden(self):
        campaign = make_campaign(
            scheme="correction",
            protected=("Filter", "Filter_Height", "Filter_Width"),
            runs=20, keep_runs=True,
        )
        result = campaign.run()
        for run in result.runs:
            assert run.outcome in (Outcome.CORRECTED, Outcome.MASKED)
            assert run.error == 0.0


class TestUnprotectedSpace:
    def test_faults_outside_protection_still_hurt(self):
        """Protecting the hot objects does nothing for faults injected
        into the rest of memory (but those rarely exceed thresholds)."""
        result = make_campaign(
            scheme="correction",
            protected=("Filter", "Filter_Height", "Filter_Width"),
            selection_pool="all",
            runs=40, n_bits=4, n_blocks=5,
        ).run()
        # Runs exist where nothing was corrected (fault hit image/output
        # space only).
        assert result.count(Outcome.MASKED) + result.sdc_count > 0


class TestRunMemoization:
    def test_live_words_memo_matches_direct(self):
        from repro.faults.model import live_words

        campaign = make_campaign(runs=5)
        addr = campaign._pristine.object("Filter").base_addr
        direct = live_words(campaign._pristine.object_at(addr), addr)
        assert campaign._live_words_for(addr) == direct
        # Second lookup must come from the memo, not a recomputation.
        assert campaign._live_words_for(addr) is \
            campaign._live_words_for(addr)

    def test_memoized_campaign_reproduces_fresh_one(self):
        first = make_campaign(runs=15, keep_runs=True)
        warmed = first.run()  # memo populated across the 15 runs
        fresh = make_campaign(runs=15, keep_runs=True).run()
        assert [r.outcome for r in warmed.runs] == \
            [r.outcome for r in fresh.runs]

    def test_secded_cow_matches_full_clone(self):
        app = create_app("A-Laplacian", scale="small")
        memory = app.fresh_memory()
        pool = [
            a for n in app.hot_object_names
            for a in memory.object(n).block_addrs()
        ]
        campaign = Campaign(
            app, uniform_selection(pool),
            config=CampaignConfig(runs=25, seed=77, secded=True),
            keep_runs=True,
        )
        cow = campaign.run()
        full = [campaign._run_reference(i) for i in range(25)]
        assert [(r.run_index, r.outcome) for r in full] == \
            [(r.run_index, r.outcome) for r in cow.runs]


class TestMultiBlockMultiBit:
    def test_more_faults_more_damage(self):
        # The hot pool has only 3 blocks, so the 5-block configuration
        # samples the whole application space instead.
        weak = make_campaign(runs=40, n_bits=2, n_blocks=1,
                             selection_pool="all").run()
        strong = make_campaign(runs=40, n_bits=4, n_blocks=5,
                               selection_pool="all").run()
        bad_weak = weak.sdc_count + weak.count(Outcome.CRASH)
        bad_strong = strong.sdc_count + strong.count(Outcome.CRASH)
        assert bad_strong >= bad_weak

    def test_summary_and_interval(self):
        result = make_campaign(runs=25).run()
        text = result.summary()
        assert "A-Laplacian" in text
        assert result.sdc_interval().runs == 25
