"""Tests for sweep-level aggregation and reporting."""

import pytest

from repro.analysis.sweep import (
    SweepCellSummary,
    sdc_reduction_by_app,
    summarize_sweep,
    sweep_table,
)
from repro.faults.campaign import CampaignConfig, CampaignResult
from repro.faults.outcomes import Outcome
from repro.core.request import EvaluationRequest
from repro.runtime.session import SweepEntry, SweepResult


def make_cell(app="A-Laplacian", scheme="baseline", protect="hot",
              runs=10) -> EvaluationRequest:
    return EvaluationRequest(app=app, scheme=scheme, protect=protect,
                             selection="uniform", runs=runs, seed=1)


def make_result(app, scheme, counts) -> CampaignResult:
    result = CampaignResult(
        app_name=app, scheme_name=scheme, selection_name="uniform",
        config=CampaignConfig(runs=sum(counts.values()), seed=1),
    )
    for outcome, n in counts.items():
        result.counts[outcome] += n
    return result


def make_sweep(*cells) -> SweepResult:
    sweep = SweepResult(spec={"cells": []})
    for cell, counts in cells:
        sweep.entries.append(SweepEntry(
            cell=cell, digest="0" * 64,
            result=make_result(cell.app, cell.scheme, counts),
        ))
    return sweep


BASELINE = (make_cell(), {Outcome.MASKED: 6, Outcome.SDC: 4})
CORRECTION = (make_cell(scheme="correction"),
              {Outcome.MASKED: 6, Outcome.SDC: 1, Outcome.CORRECTED: 3})


class TestSummarizeSweep:
    def test_rows_in_cell_order(self):
        rows = summarize_sweep(make_sweep(BASELINE, CORRECTION))
        assert [r.scheme for r in rows] == ["baseline", "correction"]

    def test_counts_and_rate(self):
        row = summarize_sweep(make_sweep(BASELINE))[0]
        assert (row.masked, row.sdc, row.runs) == (6, 4, 10)
        assert row.sdc_rate == pytest.approx(0.4)

    def test_interval_covers_rate(self):
        row = summarize_sweep(make_sweep(BASELINE))[0]
        assert row.sdc_interval.low <= row.sdc_rate \
            <= row.sdc_interval.high

    def test_zero_runs_rate(self):
        row = SweepCellSummary(
            app="X", scheme="baseline", protect="hot", runs=0,
            masked=0, sdc=0, detected=0, corrected=0, crash=0,
            sdc_interval=None,
        )
        assert row.sdc_rate == 0.0


class TestSweepTable:
    def test_renders_all_cells(self):
        rows = summarize_sweep(make_sweep(BASELINE, CORRECTION))
        rendered = sweep_table(rows).render()
        assert "baseline" in rendered
        assert "correction" in rendered
        assert "0.4000" in rendered


class TestSdcReduction:
    def test_reduction_vs_baseline(self):
        rows = summarize_sweep(make_sweep(BASELINE, CORRECTION))
        reductions = sdc_reduction_by_app(rows)
        assert reductions["A-Laplacian"]["correction~hot"] \
            == pytest.approx(75.0)

    def test_no_baseline_no_rows(self):
        rows = summarize_sweep(make_sweep(CORRECTION))
        assert sdc_reduction_by_app(rows) == {}

    def test_zero_baseline_sdc_reports_zero(self):
        clean = (make_cell(), {Outcome.MASKED: 10})
        rows = summarize_sweep(make_sweep(clean, CORRECTION))
        assert sdc_reduction_by_app(rows)["A-Laplacian"][
            "correction~hot"] == 0.0
