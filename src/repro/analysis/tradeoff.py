"""Reliability/performance tradeoff sweep (the paper's Section V-C).

For each cumulative protection level (0..N objects, Figs 7/9 x-axis)
run one timing simulation and one fault campaign, all in one drive of
the execution core, yielding the curve from which a user picks their
operating point: protecting exactly the hot objects buys nearly the
whole SDC reduction at a sliver of the full-replication cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.manager import ReliabilityManager
from repro.core.request import EvaluationRequest
from repro.errors import SpecError


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
    request: EvaluationRequest | None = None,
    telemetry=None,
    **fields,
) -> list[TradeoffPoint]:
    """Sweep protection from 0 to all input objects.

    The experiment is ``request``, or its fields by keyword, as for
    :meth:`ReliabilityManager.evaluate`; keywords default to
    ``runs=200``.  Each level is the request at that protection level
    (the baseline scheme at level 0), so the curve fixes ``protect``
    and refuses a typed protection.  Every level runs its full budget
    and the timing model has no SECDED, so ``target_margin``,
    ``secded`` and the protect-nothing ``baseline`` scheme raise
    :class:`~repro.errors.SpecError`.

    The N+1 levels' campaigns and timing simulations run in one drive
    of the execution core, so at ``jobs > 1`` the simulations share
    one worker pool with the chunks.  ``telemetry`` is an optional
    :class:`~repro.obs.records.TelemetryWriter`: each level's campaign
    then collects per-run records and appends them, in level order, to
    the writer.  The request's ``metrics`` receives every campaign's
    observability and the drive's ``session.*`` counters.
    """
    from repro.faults.outcomes import Outcome
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.executor import SimUnit, _run_campaigns

    base = manager._resolve(request, fields, ("protect",), runs=200)
    for name in ("target_margin", "secded"):
        if getattr(base, name):
            raise SpecError(
                f"tradeoff_curve does not support request {name}")
    if base.scheme == "baseline":
        raise SpecError("tradeoff_curve needs a protecting scheme; "
                        "baseline protects nothing at any level")
    if base.protection is not None:
        raise SpecError("tradeoff_curve sweeps the protection levels; "
                        "a typed protection is not one")
    metrics = base.metrics if base.metrics is not None \
        else MetricsRegistry()
    levels = range(len(manager.app.object_importance) + 1)
    cells = [
        replace(base, scheme=base.scheme if level else "baseline",
                protect=level, metrics=metrics,
                collect_records=base.collect_records
                or telemetry is not None)
        for level in levels
    ]
    campaigns = [manager._campaign(cell) for cell in cells]
    sims = [SimUnit(manager.app, manager.config, manager.budget,
                    manager.protection_spec(cell.scheme, cell.protect))
            for cell in cells]
    results, drive = _run_campaigns(campaigns, base.jobs, metrics=metrics,
                                    progress=base.progress, sims=sims)
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
