"""Reliability/performance tradeoff sweep (the paper's Section V-C).

For each cumulative protection level (0..N objects, Figs 7/9 x-axis)
run one timing simulation and one fault campaign, all in one drive of
the execution core, yielding the curve from which a user picks their
operating point: protecting exactly the hot objects buys nearly the
whole SDC reduction at a sliver of the full-replication cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.manager import ReliabilityManager


@dataclass(frozen=True)
class TradeoffPoint:
    """One protection level of the sweep."""

    n_protected: int
    protected_names: tuple[str, ...]
    slowdown: float
    missed_accesses_ratio: float
    sdc_count: int
    detected_count: int
    corrected_count: int
    runs: int

    @property
    def sdc_rate(self) -> float:
        return self.sdc_count / self.runs if self.runs else 0.0


def tradeoff_curve(
    manager: ReliabilityManager,
    scheme: str = "correction",
    runs: int = 200,
    n_blocks: int = 1,
    n_bits: int = 2,
    selection: str = "access-weighted",
    seed: int = 20210621,
    jobs: int | None = None,
    telemetry=None,
    metrics=None,
) -> list[TradeoffPoint]:
    """Sweep protection from 0 to all input objects.

    The N+1 levels' campaigns and timing simulations run in one drive
    of the execution core, so at ``jobs > 1`` (default: the manager's
    setting) the simulations share one worker pool with the chunks.
    ``telemetry`` is an optional
    :class:`~repro.obs.records.TelemetryWriter`: each level's campaign
    then collects per-run records and appends them, in level order, to
    the writer.  ``metrics`` optionally receives every campaign's
    observability and the drive's ``session.*`` counters.
    """
    from repro.faults.outcomes import Outcome
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.executor import SimUnit, _run_campaigns

    metrics = metrics if metrics is not None else MetricsRegistry()
    levels = range(len(manager.app.object_importance) + 1)
    arms = [(scheme if level else "baseline", level) for level in levels]
    campaigns = [
        manager._request_campaign(
            metrics=metrics, scheme=arm, protect=level, runs=runs,
            n_blocks=n_blocks, n_bits=n_bits, selection=selection,
            seed=seed, jobs=jobs, collect_records=telemetry is not None)
        for arm, level in arms
    ]
    sims = [SimUnit(manager.app, manager.config, manager.budget,
                    manager.protection_spec(*arm)) for arm in arms]
    results, drive = _run_campaigns(campaigns, campaigns[0].jobs,
                                    metrics=metrics, sims=sims)
    reports = [drive.reports[sim.digest] for sim in sims]
    if telemetry is not None:
        for result in results:
            telemetry.write_result(result)
    return [
        TradeoffPoint(
            n_protected=level,
            protected_names=manager.protected_names(level),
            slowdown=report.slowdown_vs(reports[0]),
            missed_accesses_ratio=report.missed_accesses_vs(reports[0]),
            sdc_count=result.sdc_count,
            detected_count=result.count(Outcome.DETECTED),
            corrected_count=result.count(Outcome.CORRECTED),
            runs=result.n_runs,
        )
        for level, result, report in zip(levels, results, reports)
    ]


def knee_point(points: list[TradeoffPoint]) -> TradeoffPoint:
    """The sweet spot: the cheapest level achieving (nearly) the best
    reliability — lowest SDC count, ties broken by lowest slowdown."""
    if not points:
        raise ValueError("empty tradeoff curve")
    best_sdc = min(p.sdc_count for p in points)
    candidates = [p for p in points if p.sdc_count <= best_sdc]
    return min(candidates, key=lambda p: (p.slowdown, p.n_protected))
