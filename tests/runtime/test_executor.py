"""Tests for the parallel campaign execution engine.

The engine's contract is bit-reproducibility: any worker count and
chunk size must produce the exact serial reference result, because
each run derives solely from (campaign seed, run index).
"""

import pickle

import pytest

from repro.core.manager import ReliabilityManager
from repro.errors import ConfigError
from repro.faults.campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    merge_sorted_runs,
)
from repro.faults.outcomes import Outcome, RunResult
from repro.faults.selection import uniform_selection
from repro.kernels.registry import create_app
from repro.obs.metrics import MetricsRegistry
from repro.runtime import (
    CampaignSpec,
    SessionConfig,
    WorkUnit,
    app_cache_key,
    app_context,
    plan_chunks,
)
from repro.runtime.executor import _run_units


def make_campaign(app_name="A-Laplacian", scheme="baseline",
                  runs=12, **kwargs):
    app = create_app(app_name, scale="small")
    memory = app.fresh_memory()
    protected = kwargs.pop("protected", None)
    if protected is None and scheme != "baseline":
        protected = tuple(app.hot_object_names)
    pool = [
        a for n in app.hot_object_names
        for a in memory.object(n).block_addrs()
    ]
    return Campaign(
        app,
        uniform_selection(pool),
        scheme=scheme,
        protect=protected or (),
        config=CampaignConfig(runs=runs, seed=77),
        **kwargs,
    )


def run_signature(result):
    return [
        (r.run_index, r.outcome, r.error, r.detail) for r in result.runs
    ]


def reference_signature(campaign):
    """Signature of the deep-copy reference flow, run by run."""
    return [
        (r.run_index, r.outcome, r.error, r.detail)
        for r in map(campaign._run_reference,
                     range(campaign.config.runs))
    ]


class TestPlanChunks:
    def test_covers_index_space_exactly(self):
        spans = plan_chunks(100, 4)
        assert spans[0][0] == 0
        assert spans[-1][1] == 100
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert start == stop

    def test_chunk_size_override(self):
        assert plan_chunks(10, 4, chunk_size=3) == [
            (0, 3), (3, 6), (6, 9), (9, 10)]

    def test_degenerate_cases(self):
        assert plan_chunks(0, 4) == []
        assert plan_chunks(1, 8) == [(0, 1)]

    def test_bad_chunk_size(self):
        with pytest.raises(ConfigError):
            plan_chunks(10, 2, chunk_size=0)


class TestMerge:
    def _result(self, indices):
        res = CampaignResult(
            app_name="app", scheme_name="baseline",
            selection_name="uniform", config=CampaignConfig(runs=4),
        )
        for i in indices:
            res.counts[Outcome.MASKED] += 1
            res.runs.append(RunResult(i, Outcome.MASKED, 0.0))
        return res

    def test_merge_restores_run_order(self):
        merged = CampaignResult.merge(
            [self._result([2, 3]), self._result([0, 1])])
        assert [r.run_index for r in merged.runs] == [0, 1, 2, 3]
        assert merged.counts[Outcome.MASKED] == 4

    def test_merge_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            merge_sorted_runs([[RunResult(1, Outcome.MASKED, 0.0)],
                               [RunResult(1, Outcome.MASKED, 0.0)]])

    def test_merge_rejects_mixed_campaigns(self):
        other = self._result([0])
        other.scheme_name = "correction"
        with pytest.raises(ConfigError):
            CampaignResult.merge([self._result([1]), other])

    def test_merge_rejects_empty(self):
        with pytest.raises(ConfigError):
            CampaignResult.merge([])

    def test_validate_catches_disorder(self):
        res = self._result([1])
        res.runs.insert(0, RunResult(5, Outcome.MASKED, 0.0))
        res.counts[Outcome.MASKED] += 1
        with pytest.raises(ConfigError):
            res.validate()


class TestCampaignValidation:
    def test_bad_jobs(self):
        with pytest.raises(ConfigError):
            make_campaign(jobs=0)


@pytest.mark.parametrize("app_name", ["A-Laplacian", "P-BICG"])
@pytest.mark.parametrize("scheme", ["detection", "correction"])
class TestParallelDeterminism:
    def test_jobs4_matches_serial(self, app_name, scheme):
        serial = make_campaign(app_name, scheme, runs=16,
                               keep_runs=True).run()
        parallel = make_campaign(app_name, scheme, runs=16,
                                 keep_runs=True, jobs=4).run()
        assert parallel.counts == serial.counts
        assert run_signature(parallel) == run_signature(serial)

    def test_cow_matches_full_clone(self, app_name, scheme):
        full = reference_signature(make_campaign(app_name, scheme,
                                                 runs=16))
        cow = make_campaign(app_name, scheme, runs=16,
                            keep_runs=True).run()
        assert run_signature(cow) == full


class TestParallelBaseline:
    def test_jobs4_matches_serial(self):
        serial = make_campaign(runs=16, keep_runs=True).run()
        parallel = make_campaign(runs=16, keep_runs=True, jobs=4).run()
        assert parallel.counts == serial.counts
        assert run_signature(parallel) == run_signature(serial)

    def test_run_jobs_override(self):
        campaign = make_campaign(runs=16, keep_runs=True)
        serial = campaign.run()
        parallel = make_campaign(runs=16, keep_runs=True).run(jobs=3)
        assert run_signature(parallel) == run_signature(serial)


class TestExecutor:
    def test_serial_when_one_job(self, capsys):
        campaign = make_campaign(runs=6)
        result = campaign.run(jobs=1)
        assert result.n_runs == 6
        assert campaign.metrics.counters["executor.used_jobs"] == 1
        assert "session.fallback_serial" not in campaign.metrics.counters
        assert "degrading" not in capsys.readouterr().err

    def test_jobs_capped_by_runs(self):
        campaign = make_campaign(runs=1)
        result = campaign.run(jobs=8)
        assert result.n_runs == 1
        assert campaign.metrics.counters["executor.used_jobs"] == 1

    def test_explicit_chunk_size(self):
        campaign = make_campaign(runs=10, keep_runs=True)
        reference = make_campaign(runs=10, keep_runs=True).run()
        units = [WorkUnit(0, start, stop)
                 for start, stop in plan_chunks(10, 2, chunk_size=3)]
        parts = {}

        def on_done(unit, result, _source):
            parts[unit] = result
            return True

        reason = _run_units([campaign], units, on_done,
                            SessionConfig(jobs=2),
                            metrics=campaign.metrics)
        assert reason is None
        merged = CampaignResult.merge([parts[u] for u in units])
        assert run_signature(merged) == run_signature(reference)

    @pytest.mark.parametrize("batch", [1, 16])
    def test_chunk_plan_ignores_the_batch(self, batch):
        """A chunk plan depends only on runs, jobs and chunk size: a
        48-run campaign at two jobs sweeps 8 spans at any batch."""
        campaign = make_campaign(runs=48, jobs=2, batch=batch)
        campaign.run()
        assert campaign.metrics.counters["executor.chunks"] == 8

    def test_pool_failure_degrades_to_serial(self, monkeypatch, capsys):
        import repro.runtime.executor as executor_mod

        monkeypatch.setattr(executor_mod, "_make_pool",
                            lambda context, jobs: None)
        reference = make_campaign(runs=10, keep_runs=True).run()
        campaign = make_campaign(runs=10, keep_runs=True)
        assert run_signature(campaign.run(jobs=2)) == \
            run_signature(reference)
        counters = campaign.metrics.counters
        assert counters["executor.used_jobs"] == 1
        assert counters["session.fallback_serial"] == 1
        assert "degrading to serial execution (could not create worker " \
            "pool)" in capsys.readouterr().err

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigError):
            make_campaign(runs=4).run(jobs=0)


class TestOneDriver:
    """Every campaign entry commits what :meth:`Campaign.run` commits
    and publishes one metric set, with or without a stop rule."""

    @staticmethod
    def adaptive_campaign():
        manager = ReliabilityManager(create_app("P-BICG", scale="small"))
        return Campaign(
            manager.app, manager.selection("access-weighted"),
            scheme="detection", protect=manager.protected_names("hot"),
            config=CampaignConfig(runs=400), target_margin=0.05,
        )

    def test_executor_honours_the_stop_rule(self):
        via_adaptive = self.adaptive_campaign().run_adaptive().result
        via_run = self.adaptive_campaign().run()
        assert via_run.n_runs == 128
        assert via_adaptive.to_dict() == via_run.to_dict()

    def test_adaptive_campaign_publishes_the_executor_metrics(self):
        manager = ReliabilityManager(create_app("P-BICG", scale="small"))
        published = []
        for margin in (None, 0.05):
            registry = MetricsRegistry()
            manager.evaluate(scheme="detection", protect="hot", runs=400,
                             target_margin=margin, metrics=registry)
            snapshot = registry.snapshot()
            published.append({
                name for kind in ("counters", "histograms")
                for name in snapshot[kind]
                if name.startswith(("executor.", "runtime.app_cache."))
            })
        assert published[0] == published[1]
        assert {"executor.chunks", "executor.used_jobs",
                "executor.wall_ms", "executor.worker_utilization_pct",
                "runtime.app_cache.entries"} <= published[1]


class TestCampaignSpec:
    def test_pickle_roundtrip_runs_identically(self):
        campaign = make_campaign("A-Laplacian", "correction", runs=8,
                                 keep_runs=True)
        reference = campaign.run()
        spec = CampaignSpec.from_campaign(campaign)
        spec = pickle.loads(pickle.dumps(spec))
        rebuilt = Campaign(
            spec.app, spec.selection, scheme=spec.scheme_name,
            protect=spec.protected_names, config=spec.config,
            keep_runs=spec.keep_runs,
        )
        assert run_signature(rebuilt.run()) == run_signature(reference)
        assert reference_signature(rebuilt) == run_signature(reference)

    def test_tokens_unique(self):
        campaign = make_campaign(runs=4)
        a = CampaignSpec.from_campaign(campaign)
        b = CampaignSpec.from_campaign(campaign)
        assert a.token != b.token


class TestAppCache:
    def test_identical_apps_share_context(self):
        a = create_app("A-Laplacian", scale="small")
        b = create_app("A-Laplacian", scale="small")
        assert app_cache_key(a) == app_cache_key(b)
        assert app_context(a) is app_context(b)

    def test_different_scale_distinct(self):
        a = create_app("P-BICG", scale="small")
        b = create_app("P-BICG", scale="default")
        assert app_cache_key(a) != app_cache_key(b)

    def test_campaigns_share_pristine_memory(self):
        first = make_campaign(runs=4)
        second = make_campaign(runs=4)
        assert first._pristine is second._pristine
        assert first._golden is second._golden
