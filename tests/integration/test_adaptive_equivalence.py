"""A/B equivalence: adaptive campaigns vs exhaustive fixed budgets.

The adaptive driver (CI-driven early stopping + analytic equivalence
pruning) is only admissible if it changes *cost*, never *statistics*:
the committed prefix is byte-identical to the same prefix of the
exhaustive campaign, and the early-stopped estimate must agree with
the exhaustive answer within its own confidence interval.  These
tests pin both properties on two seed apps, including configurations
with nonzero SDC rates so the agreement checks are not vacuous.
"""

import pytest

from repro.cli import main
from repro.core.manager import ReliabilityManager
from repro.faults.outcomes import Outcome
from repro.kernels.registry import create_app

BUDGET = 1000
TARGET = 0.03


def manager_for(app_name):
    return ReliabilityManager(create_app(app_name, scale="small"))


class TestAdaptiveMatchesExhaustive:
    """The acceptance bar: +/-3% margin, >=10x fewer simulated runs."""

    @pytest.mark.parametrize("app_name", ["P-BICG", "A-Laplacian"])
    def test_protected_evaluation(self, app_name):
        manager = manager_for(app_name)
        adaptive = manager.evaluate_adaptive(
            target_margin=TARGET, scheme="correction", protect="hot",
            runs=BUDGET, batch=64)
        exhaustive = manager.evaluate(
            scheme="correction", protect="hot", runs=BUDGET, batch=64)

        assert adaptive.converged
        assert adaptive.interval.margin <= TARGET
        # the headline cost win: >=10x fewer *simulated* runs than the
        # paper's fixed-1000 protocol (analytic lanes are free)
        assert adaptive.simulated_runs * 10 <= BUDGET
        # statistical identity: each estimate inside the other's CI
        exhaustive_ci = exhaustive.sdc_interval()
        assert exhaustive_ci.low <= adaptive.interval.proportion \
            <= exhaustive_ci.high
        assert adaptive.interval.low <= exhaustive.sdc_rate \
            <= adaptive.interval.high

    @pytest.mark.parametrize("app_name,scheme,protect", [
        ("P-BICG", "detection", 1),
        ("A-Laplacian", "baseline", "none"),
    ])
    def test_nonzero_sdc_configurations(self, app_name, scheme,
                                        protect):
        # Unprotected / partially protected arms have real SDC rates,
        # so agreement here is a live check, not 0 == 0.
        manager = manager_for(app_name)
        adaptive = manager.evaluate_adaptive(
            target_margin=TARGET, scheme=scheme, protect=protect,
            runs=BUDGET, batch=64)
        exhaustive = manager.evaluate(
            scheme=scheme, protect=protect, runs=BUDGET, batch=64)

        assert adaptive.converged
        assert exhaustive.sdc_count > 0
        assert adaptive.result.sdc_count > 0
        exhaustive_ci = exhaustive.sdc_interval()
        assert exhaustive_ci.low <= adaptive.interval.proportion \
            <= exhaustive_ci.high
        assert adaptive.interval.low <= exhaustive.sdc_rate \
            <= adaptive.interval.high

    def test_committed_prefix_is_the_exhaustive_prefix(self):
        # Early stopping truncates, never resamples: the committed
        # runs are byte-identical to the first stopped_at runs of the
        # exhaustive campaign.
        manager = manager_for("P-BICG")
        adaptive = manager.evaluate_adaptive(
            target_margin=TARGET, scheme="correction", protect="hot",
            runs=BUDGET, batch=64)
        prefix = manager.evaluate(
            scheme="correction", protect="hot",
            runs=adaptive.stopped_at, batch=64)
        committed, reference = (adaptive.result.to_dict(),
                                prefix.to_dict())
        # the specs differ only in how many runs they *budgeted*
        assert committed["config"].pop("runs") == BUDGET
        assert reference["config"].pop("runs") == adaptive.stopped_at
        assert committed == reference


class TestStopReproducibility:
    def test_stop_decisions_are_execution_plan_invariant(self):
        manager = manager_for("A-Laplacian")
        trails = []
        for jobs, batch in ((1, 64), (2, 16)):
            adaptive = manager.evaluate_adaptive(
                target_margin=TARGET, scheme="correction",
                protect="hot", runs=BUDGET, jobs=jobs, batch=batch)
            trails.append((
                adaptive.result.to_dict(),
                [d.to_dict() for d in adaptive.decisions],
            ))
        assert trails[0] == trails[1]


class TestEntryPointEquivalence:
    """One request, five entry points, the same committed bytes."""

    @staticmethod
    def _bytes(tmp_path, name, result, decisions):
        from repro.obs.records import TelemetryWriter, write_decisions

        records = tmp_path / f"{name}.records.jsonl"
        with TelemetryWriter(str(records)) as writer:
            writer.write_result(result)
        trail = None
        if decisions is not None:
            trail = tmp_path / f"{name}.decisions.jsonl"
            write_decisions(str(trail), decisions)
            trail = trail.read_bytes()
        return records.read_bytes(), trail

    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("app_name,scheme,protect,runs", [
        ("P-BICG", "detection", "hot", 400),
        ("A-Laplacian", "baseline", "none", 1000),
    ])
    def test_every_entry_point_commits_the_same_runs(
            self, tmp_path, app_name, scheme, protect, runs, jobs,
            batch):
        from repro.core.request import EvaluationRequest
        from repro.faults.campaign import Campaign, CampaignConfig
        from repro.runtime.session import Session

        request = EvaluationRequest(
            app=app_name, scheme=scheme, protect=protect, runs=runs,
            scale="small", target_margin=0.05, collect_records=True,
            jobs=jobs, batch=batch)
        manager = manager_for(app_name)
        outputs = {}

        result = manager.evaluate(request=request)
        outputs["evaluate"] = self._bytes(tmp_path, "evaluate", result,
                                          None)

        adaptive = manager.evaluate_adaptive(
            target_margin=0.05, scheme=scheme, protect=protect,
            runs=runs, collect_records=True, jobs=jobs, batch=batch)
        outputs["evaluate_adaptive"] = self._bytes(
            tmp_path, "evaluate_adaptive", adaptive.result,
            adaptive.decisions)

        campaign = Campaign(
            manager.app, manager.selection(request.selection),
            scheme=scheme, protect=manager.protected_names(protect),
            config=CampaignConfig(runs=runs, seed=request.seed),
            collect_records=True, jobs=jobs, batch=batch,
            target_margin=0.05)
        adaptive = campaign.run_adaptive()
        outputs["run_adaptive"] = self._bytes(
            tmp_path, "run_adaptive", adaptive.result,
            adaptive.decisions)

        entry = Session(request).run().entries[0]
        outputs["session"] = self._bytes(
            tmp_path, "session", entry.result, entry.decisions)

        records = tmp_path / "cli.records.jsonl"
        trail = tmp_path / "cli.decisions.jsonl"
        assert main([
            "-q", "campaign", app_name, "--scale", "small",
            "--scheme", scheme, "--protect", protect,
            "--runs", str(runs), "--target-margin", "0.05",
            "--jobs", str(jobs), "--batch", str(batch),
            "--telemetry", str(records), "--decisions", str(trail),
        ]) == 0
        outputs["cli"] = (records.read_bytes(), trail.read_bytes())

        records, trail = outputs.pop("evaluate_adaptive")
        assert trail and records
        for name, (other_records, other_trail) in outputs.items():
            assert other_records == records, name
            if other_trail is not None:
                assert other_trail == trail, name

    def test_request_chunk_runs_is_the_check_every(self, tmp_path):
        # A request's chunk_runs moves the decision boundaries of every
        # entry point alike (32-run boundaries stop this cell at 96
        # runs; the default 64-run ones at 128).
        from repro.core.request import EvaluationRequest
        from repro.runtime.session import Session

        request = EvaluationRequest(
            app="P-BICG", scheme="detection", protect="hot", runs=400,
            scale="small", target_margin=0.05, chunk_runs=32,
            collect_records=True)
        result = manager_for("P-BICG").evaluate(request=request)
        entry = Session(request).run().entries[0]
        assert result.n_runs == entry.result.n_runs == 96
        assert self._bytes(tmp_path, "evaluate", result, None) \
            == self._bytes(tmp_path, "session", entry.result, None)


class TestTradeoffEntryPoint:
    """Each tradeoff level is the campaign ``evaluate`` runs for it."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_levels_are_their_campaigns(self, tmp_path, jobs):
        from repro.analysis.tradeoff import tradeoff_curve
        from repro.obs.records import TelemetryWriter

        manager = manager_for("P-BICG")
        curve = tmp_path / "curve.jsonl"
        with TelemetryWriter(str(curve)) as writer:
            points = tradeoff_curve(manager, scheme="correction", runs=48,
                                    jobs=jobs, telemetry=writer)
        expected = b""
        for point in points:
            level = point.n_protected
            result = manager.evaluate(
                scheme="correction" if level else "baseline",
                protect=level, runs=48, collect_records=True)
            assert (point.sdc_count, point.runs) == \
                (result.sdc_count, result.n_runs)
            records = tmp_path / f"level{level}.jsonl"
            with TelemetryWriter(str(records)) as writer:
                writer.write_result(result)
            expected += records.read_bytes()
        assert curve.read_bytes() == expected


class TestFigureGridEntryPoint:
    """Each figure-grid cell is the evaluation its entry point runs,
    and a grid at the manager's ``jobs`` shares one worker pool."""

    @staticmethod
    def count_pools(monkeypatch):
        import repro.runtime.executor as executor_mod

        pools = []
        make_pool = executor_mod._make_pool

        def counting(context, jobs):
            pools.append(jobs)
            return make_pool(context, jobs)

        monkeypatch.setattr(executor_mod, "_make_pool", counting)
        return pools

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_campaign_grids_are_their_campaigns(self, monkeypatch, jobs):
        from repro.analysis.figures import fig6_grid, fig9_grid

        pools = self.count_pools(monkeypatch)
        manager = ReliabilityManager(
            create_app("P-BICG", scale="small"), jobs=jobs)
        fig6 = fig6_grid(manager, runs=24, seed=3)
        assert pools == [2] * (jobs > 1)
        fig9 = fig9_grid(manager, "correction", runs=24, seed=3)
        assert pools == [2, 2] * (jobs > 1)

        serial = manager_for("P-BICG")
        for cell in fig6:
            result = serial.motivation(
                cell.space, runs=24, n_blocks=cell.n_blocks,
                n_bits=cell.n_bits, seed=3)
            assert (cell.sdc, cell.crash, cell.masked, cell.runs) == (
                result.sdc_count, result.count(Outcome.CRASH),
                result.count(Outcome.MASKED), result.n_runs)
        for cell in fig9:
            result = serial.evaluate(
                scheme=cell.scheme, protect=cell.n_protected, runs=24,
                n_blocks=cell.n_blocks, n_bits=cell.n_bits, seed=3)
            assert (cell.sdc, cell.detected, cell.corrected, cell.crash,
                    cell.runs) == (
                result.sdc_count, result.count(Outcome.DETECTED),
                result.count(Outcome.CORRECTED),
                result.count(Outcome.CRASH), result.n_runs)

    def test_fig7_rows_are_their_simulations(self):
        from repro.analysis.figures import fig7_sweep

        manager = manager_for("P-BICG")
        baseline, rows = fig7_sweep(manager)
        assert baseline == manager.simulate_performance("baseline", "none")
        assert len(rows) == 2 * len(manager.app.object_importance)
        for row in rows:
            report = manager.simulate_performance(row.scheme,
                                                  row.n_protected)
            assert (row.norm_time, row.norm_missed_accesses,
                    row.replica_transactions) == (
                report.slowdown_vs(baseline),
                report.missed_accesses_vs(baseline),
                report.replica_transactions)
