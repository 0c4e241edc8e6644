"""Tests for CI-driven adaptive campaigns (repro.faults.adaptive)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.faults.adaptive import (
    AdaptiveConfig,
    StopDecision,
    should_stop,
)
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.selection import uniform_selection
from repro.kernels.registry import create_app
from repro.utils.stats import confidence_interval, zero_run_interval


def make_campaign(app_name="P-BICG", scheme="detection", protect=("A",),
                  runs=400, seed=20210621, **kwargs):
    app = create_app(app_name, scale="small")
    memory = app.fresh_memory()
    pool = [a for o in memory.objects for a in o.block_addrs()]
    return Campaign(
        app,
        uniform_selection(pool),
        scheme=scheme,
        protect=protect,
        config=CampaignConfig(runs=runs, seed=seed),
        **kwargs,
    )


class TestAdaptiveConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AdaptiveConfig(target_margin=0.0)
        with pytest.raises(ConfigError):
            AdaptiveConfig(target_margin=1.0)
        with pytest.raises(ConfigError):
            AdaptiveConfig(target_margin=0.05, check_every=0)
        with pytest.raises(ConfigError):
            AdaptiveConfig(target_margin=0.05, min_runs=-1)
        with pytest.raises(ValueError):
            AdaptiveConfig(target_margin=0.05, level=0.8)

    def test_to_dict_is_stable(self):
        cfg = AdaptiveConfig(target_margin=0.03)
        assert cfg.to_dict() == {
            "target_margin": 0.03, "level": 0.95,
            "check_every": 64, "min_runs": 0,
        }

    def test_target_margin_shorthand(self):
        campaign = make_campaign(target_margin=0.05)
        assert campaign.adaptive == AdaptiveConfig(target_margin=0.05)

    def test_shorthand_conflicts_with_explicit_config(self):
        with pytest.raises(ConfigError):
            make_campaign(target_margin=0.05,
                          adaptive=AdaptiveConfig(target_margin=0.05))


class TestStoppingRule:
    def test_zero_runs_never_stops(self):
        stop, interval = should_stop(0, 0, target_margin=0.5)
        assert not stop
        assert interval == zero_run_interval()

    def test_wilson_margin_drives_the_rule(self):
        # The degenerate-CI regression this PR fixes: one MASKED run
        # under the normal approximation has margin 0 and would stop
        # instantly; Wilson keeps the campaign honest.
        stop, interval = should_stop(0, 1, target_margin=0.03)
        assert not stop
        assert interval.margin > 0.5

    def test_stops_once_margin_met(self):
        stop, interval = should_stop(0, 200, target_margin=0.03)
        assert stop
        assert interval.margin <= 0.03

    def test_plan_spans_covers_budget_exactly(self):
        from repro.runtime.executor import plan_chunks

        spans = plan_chunks(100, 1, chunk_size=32)
        assert spans == [(0, 32), (32, 64), (64, 96), (96, 100)]


class TestAdaptiveCampaign:
    def test_converges_before_budget(self):
        campaign = make_campaign(target_margin=0.05, batch=16)
        result = campaign.run()
        adaptive = campaign.adaptive_result
        assert adaptive.converged
        assert adaptive.stopped_at == result.n_runs < 400
        assert adaptive.interval.margin <= 0.05
        # decisions evaluate at every committed chunk boundary and
        # only the last one stops
        assert [d.stop for d in adaptive.decisions] \
            == [False] * (len(adaptive.decisions) - 1) + [True]
        assert adaptive.decisions[-1].committed == adaptive.stopped_at

    def test_budget_exhaustion_reports_unconverged(self):
        campaign = make_campaign(runs=64,
                                 adaptive=AdaptiveConfig(
                                     target_margin=0.001, check_every=32))
        result = campaign.run()
        adaptive = campaign.adaptive_result
        assert not adaptive.converged
        assert result.n_runs == adaptive.budget == 64

    def test_min_runs_floor_delays_the_stop(self):
        eager = make_campaign(
            adaptive=AdaptiveConfig(target_margin=0.05, check_every=64))
        eager.run()
        floored = make_campaign(
            adaptive=AdaptiveConfig(target_margin=0.05, check_every=64,
                                    min_runs=256))
        floored.run()
        assert floored.adaptive_result.stopped_at >= 256 \
            > eager.adaptive_result.stopped_at

    def test_run_adaptive_leaves_the_campaign_batch_alone(self):
        campaign = make_campaign(target_margin=0.05, batch=16)
        adaptive = campaign.run_adaptive()
        assert campaign.batch == 16
        # the commit chunks still swept through the batch engine
        assert adaptive.analytic_runs > 0

    def test_run_adaptive_requires_a_config(self):
        campaign = make_campaign()
        with pytest.raises(ConfigError):
            campaign.run_adaptive()

    def test_simulated_run_accounting(self):
        campaign = make_campaign(target_margin=0.05, batch=16)
        campaign.run()
        adaptive = campaign.adaptive_result
        assert adaptive.simulated_runs + adaptive.analytic_runs \
            == adaptive.stopped_at
        assert adaptive.analytic_runs > 0  # pruning/analytic lanes fire

    def test_spec_identity_gains_adaptive_key_only_when_enabled(self):
        plain = make_campaign()
        adaptive = make_campaign(target_margin=0.05)
        assert "adaptive" not in plain.spec_identity()
        assert adaptive.spec_identity()["adaptive"] \
            == AdaptiveConfig(target_margin=0.05).to_dict()
        # everything else is unchanged
        stripped = dict(adaptive.spec_identity())
        del stripped["adaptive"]
        assert stripped == plain.spec_identity()


class TestDeterminism:
    """The committed result is byte-identical at any jobs/batch."""

    @pytest.mark.parametrize("jobs,batch", [(1, 1), (1, 8), (2, 1),
                                            (2, 8)])
    def test_jobs_and_batch_invariance(self, jobs, batch):
        reference = make_campaign(target_margin=0.05,
                                  collect_records=True)
        ref_result = reference.run()
        campaign = make_campaign(target_margin=0.05, jobs=jobs,
                                 batch=batch, collect_records=True)
        result = campaign.run()
        assert result.to_dict() == ref_result.to_dict()
        assert [d.to_dict() for d in campaign.adaptive_result.decisions] \
            == [d.to_dict()
                for d in reference.adaptive_result.decisions]

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        import repro.runtime.executor as executor

        monkeypatch.setattr(executor, "_make_pool",
                            lambda context, jobs: None)
        reference = make_campaign(target_margin=0.05)
        ref_result = reference.run()
        campaign = make_campaign(target_margin=0.05, jobs=4)
        result = campaign.run()
        assert result.to_dict() == ref_result.to_dict()
        counters = campaign.metrics.snapshot()["counters"]
        assert counters["session.fallback_serial"] == 1


class TestDecisionRecords:
    def test_round_trip_through_jsonl(self, tmp_path):
        from repro.obs.records import read_decisions, write_decisions

        campaign = make_campaign(target_margin=0.05, batch=16)
        campaign.run()
        path = tmp_path / "decisions.jsonl"
        n = write_decisions(str(path), campaign.adaptive_result.decisions)
        loaded = read_decisions(str(path))
        assert n == len(loaded) \
            == len(campaign.adaptive_result.decisions)
        for decision, image in zip(campaign.adaptive_result.decisions,
                                   loaded):
            expected = {"version": 1}
            expected.update(decision.to_dict())
            assert image == expected

    def test_malformed_decisions_rejected(self, tmp_path):
        from repro.errors import TelemetryError
        from repro.obs.records import read_decisions

        path = tmp_path / "bad.jsonl"
        path.write_text('{"version":1,"committed":0,"sdc":0,'
                        '"stop":false,"interval":{}}\n')
        with pytest.raises(TelemetryError):
            read_decisions(str(path))

    def test_decision_to_dict_embeds_interval_bounds(self):
        interval = confidence_interval(1, 64)
        decision = StopDecision(committed=64, sdc=1, interval=interval,
                                stop=False)
        image = decision.to_dict()
        assert image["interval"]["low"] == interval.low
        assert image["interval"]["high"] == interval.high
