"""Tests for the figure data generators and the tradeoff sweep."""

import pytest

from repro.analysis.figures import (
    FAULT_GRID,
    average_sdc_drop,
    fig2_rows,
    fig3_series,
    fig4_series,
    fig6_grid,
    fig7_sweep,
    fig9_grid,
    table1_rows,
    table2_rows,
    table3_rows,
)
from repro.analysis.tradeoff import knee_point, tradeoff_curve
from repro.core.request import EvaluationRequest
from repro.errors import SpecError


class TestFig2:
    def test_rows_chronological(self):
        rows = fig2_rows()
        years = [r[2] for r in rows]
        assert years == sorted(years)

    def test_ampere_l2_jump(self):
        rows = {r[1]: r[3] for r in fig2_rows()}
        a100 = rows["A100 (Ampere)"]
        volta = rows["Tesla V100 (Volta)"]
        assert a100 > 6 * volta  # the paper's "10x larger" point


class TestFig3And4:
    def test_fig3_series_fields(self, laplacian_manager):
        series = fig3_series(laplacian_manager)
        assert series.app_name == "A-Laplacian"
        assert 0 < series.tail_share(0.05) <= 1.0
        assert series.normalized_counts.max() == 1.0

    def test_fig4_series_fields(self, laplacian_manager):
        series = fig4_series(laplacian_manager)
        assert len(series.warp_share_percent) == \
            laplacian_manager.profile.n_blocks
        assert series.hot_mean_share > series.rest_mean_share


class TestFig6:
    def test_grid_covers_both_spaces(self, laplacian_manager):
        cells = fig6_grid(laplacian_manager, runs=5)
        assert len(cells) == 2 * len(FAULT_GRID)
        assert {c.space for c in cells} == {"hot", "rest"}
        for cell in cells:
            assert cell.sdc + cell.crash + cell.masked <= cell.runs


class TestFig7:
    def test_sweep_rows(self, laplacian_manager):
        baseline, rows = fig7_sweep(laplacian_manager)
        n_objects = len(laplacian_manager.app.object_importance)
        assert len(rows) == 2 * n_objects
        assert baseline.replica_transactions == 0
        # Normalized missed accesses grow monotonically with coverage
        # within a scheme.
        for scheme in ("detection", "correction"):
            series = [r.norm_missed_accesses for r in rows
                      if r.scheme == scheme]
            assert all(b >= a - 1e-9 for a, b in zip(series,
                                                     series[1:]))


class TestFig9:
    def test_grid_and_average_drop(self, laplacian_manager):
        cells = fig9_grid(
            laplacian_manager, scheme="correction", runs=15,
            levels=[0, 3], grid=((1, 3), (1, 4)), selection="hot",
        )
        assert len(cells) == 4
        drop = average_sdc_drop(cells, hot_level=3)
        assert 0.0 <= drop <= 100.0

    def test_level_zero_is_baseline(self, laplacian_manager):
        cells = fig9_grid(
            laplacian_manager, scheme="correction", runs=5,
            levels=[0], grid=((1, 2),),
        )
        assert cells[0].scheme == "baseline"
        assert cells[0].detected == cells[0].corrected == 0


class TestTables:
    def test_table1_matches_config(self):
        rows = dict(table1_rows())
        assert "15 SMs" in rows["Resources / Core"]

    def test_table2_all_apps(self):
        rows = table2_rows()
        assert len(rows) == 8
        by_app = {r[0]: r for r in rows}
        assert by_app["C-NN"][1] == "Vector Classifications"
        assert "Mis-classifications" in by_app["C-NN"][2].replace(
            "mis-classifications", "Mis-classifications")
        assert "Normalized Root Mean Square" in by_app["A-Sobel"][2]

    def test_table3_rows(self, laplacian_manager, mvt_manager):
        rows = table3_rows([laplacian_manager, mvt_manager])
        assert [r.app_name for r in rows] == ["A-Laplacian", "P-MVT"]


class TestTradeoff:
    def test_curve_structure(self, laplacian_manager):
        points = tradeoff_curve(laplacian_manager, runs=10)
        n_objects = len(laplacian_manager.app.object_importance)
        assert len(points) == n_objects + 1
        assert points[0].n_protected == 0
        assert points[0].slowdown == 1.0
        assert points[-1].protected_names == tuple(
            laplacian_manager.app.object_importance)

    def test_knee_prefers_cheap_protection(self, laplacian_manager):
        points = tradeoff_curve(laplacian_manager, runs=10,
                                selection="hot")
        knee = knee_point(points)
        # Protecting the 3 hot objects already reaches zero SDCs; the
        # knee must not pay for protecting the whole image too.
        assert knee.n_protected <= 3

    def test_request_equals_keywords(self, laplacian_manager):
        request = EvaluationRequest(app="A-Laplacian", scale="small",
                                    runs=12, n_bits=3, seed=7)
        assert tradeoff_curve(laplacian_manager, request) == \
            tradeoff_curve(laplacian_manager, runs=12, n_bits=3, seed=7)

    def test_request_and_fields_rejected(self, laplacian_manager):
        request = EvaluationRequest(app="A-Laplacian", scale="small",
                                    runs=12)
        with pytest.raises(SpecError, match="runs"):
            tradeoff_curve(laplacian_manager, request, runs=4)

    def test_typed_protection_rejected(self, laplacian_manager):
        # The curve sweeps cumulative levels; a typed assignment would
        # be replaced by them in silence.
        hot = laplacian_manager.app.object_importance[0]
        request = EvaluationRequest(app="A-Laplacian", scale="small",
                                    runs=4, protect=f"{hot}=detection")
        with pytest.raises(SpecError, match="typed"):
            tradeoff_curve(laplacian_manager, request)

    @pytest.mark.parametrize("fields", [
        dict(scheme="baseline"), dict(protect="all"), dict(secded=True),
        dict(target_margin=0.1)])
    def test_unsweepable_experiment_rejected(self, laplacian_manager,
                                             fields):
        # A baseline curve protects nothing at any level; SECDED and
        # early stopping have no place in a full-budget timing sweep.
        with pytest.raises(SpecError):
            tradeoff_curve(laplacian_manager, runs=4, **fields)

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            knee_point([])

class TestTradeoffSession:
    def test_curve_runs_as_one_session(self, laplacian_manager,
                                       monkeypatch):
        import repro.runtime.executor as executor_mod
        from repro.obs.metrics import MetricsRegistry

        pools = []
        make_pool = executor_mod._make_pool

        def counting(context, jobs):
            pools.append(jobs)
            return make_pool(context, jobs)

        monkeypatch.setattr(executor_mod, "_make_pool", counting)
        metrics = MetricsRegistry()
        pooled = tradeoff_curve(laplacian_manager, runs=24, jobs=2,
                                metrics=metrics)
        assert pools == [2]
        n_levels = len(laplacian_manager.app.object_importance) + 1
        assert metrics.counter(
            "session.simulations.executed").value == n_levels
        assert pooled == tradeoff_curve(laplacian_manager, runs=24,
                                        jobs=1)
