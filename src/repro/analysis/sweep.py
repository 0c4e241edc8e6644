"""Sweep-level aggregation: summarize a grid of campaign results.

Where :mod:`repro.analysis.report` renders one campaign,
this module reduces a whole :class:`~repro.runtime.session.SweepResult`
— every (app, scheme, protect) cell — into comparable rows: outcome
tallies, SDC rate with its confidence interval, and the per-app SDC
reduction of each protected cell against its unprotected baseline
cell when the sweep includes one (the paper's headline Fig 9 view).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.outcomes import Outcome
from repro.utils.stats import ConfidenceInterval
from repro.utils.tables import TextTable


@dataclass(frozen=True)
class SweepCellSummary:
    """One sweep cell reduced to its comparable numbers."""

    app: str
    scheme: str
    protect: int | str
    runs: int
    masked: int
    sdc: int
    detected: int
    corrected: int
    crash: int
    sdc_interval: ConfidenceInterval

    @property
    def sdc_rate(self) -> float:
        return self.sdc / self.runs if self.runs else 0.0


def summarize_sweep(sweep) -> list[SweepCellSummary]:
    """Reduce a :class:`~repro.runtime.session.SweepResult` to rows,
    in cell order."""
    rows = []
    for entry in sweep.entries:
        cell, result = entry.cell, entry.result
        rows.append(SweepCellSummary(
            app=cell.app,
            # The campaign's label: a typed protection names its own.
            scheme=result.scheme_name,
            protect=cell.protect,
            runs=result.n_runs,
            masked=result.count(Outcome.MASKED),
            sdc=result.count(Outcome.SDC),
            detected=result.count(Outcome.DETECTED),
            corrected=result.count(Outcome.CORRECTED),
            crash=result.count(Outcome.CRASH),
            sdc_interval=result.sdc_interval(),
        ))
    return rows


def sweep_table(rows: list[SweepCellSummary]) -> TextTable:
    """Render summary rows as the CLI's sweep result table."""
    table = TextTable(
        ["app", "scheme", "protect", "runs", "masked", "sdc",
         "detected", "corrected", "crash", "sdc-rate"],
        float_format="{:.4f}",
    )
    for row in rows:
        table.add_row([
            row.app, row.scheme, str(row.protect), row.runs,
            row.masked, row.sdc, row.detected, row.corrected,
            row.crash, row.sdc_rate,
        ])
    return table


def sdc_reduction_by_app(
    rows: list[SweepCellSummary],
) -> dict[str, dict[str, float]]:
    """Per-app SDC reduction of each protected cell vs its baseline.

    The reference for an app is its ``scheme == "baseline"`` cell (the
    unprotected arm).  Apps without one are skipped.  Returns
    ``{app: {"<scheme>~<protect>": percent_reduction}}`` where 100.0
    means every baseline SDC was eliminated; a cell with zero baseline
    SDCs reports 0.0 (nothing to reduce).
    """
    baselines: dict[str, SweepCellSummary] = {}
    for row in rows:
        if row.scheme == "baseline" and row.app not in baselines:
            baselines[row.app] = row
    reductions: dict[str, dict[str, float]] = {}
    for row in rows:
        base = baselines.get(row.app)
        if base is None or row is base:
            continue
        if base.sdc == 0:
            pct = 0.0
        else:
            pct = 100.0 * (base.sdc - row.sdc) / base.sdc
        reductions.setdefault(row.app, {})[
            f"{row.scheme}~{row.protect}"] = pct
    return reductions
