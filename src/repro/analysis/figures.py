"""Data generators for every table and figure of the paper.

Each ``figN_*``/``tableN_*`` function computes exactly the series or
rows the corresponding exhibit reports, so the benchmark harness (and
any notebook) can print or plot them without re-deriving methodology.
The cells of a campaign grid (Figs 6 and 9) are one base
:class:`~repro.core.request.EvaluationRequest` replaced per cell, each
built through the manager's one campaign builder; Fig 7 builds every
bar as a timing :class:`~repro.runtime.executor.SimUnit`.  A grid runs
in one drive of the execution core, the one ``tradeoff_curve`` uses:
at the manager's ``jobs > 1`` the grid shares one worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.arch.config import GpuConfig, PAPER_CONFIG
from repro.core.manager import ReliabilityManager
from repro.core.request import EvaluationRequest
from repro.data.gpu_trends import L2_SIZE_TREND
from repro.faults.campaign import CampaignResult
from repro.faults.outcomes import Outcome
from repro.obs.metrics import MetricsRegistry
from repro.profiling.hot_objects import Table3Row
from repro.runtime.executor import SimUnit, _run_campaigns
from repro.sim.metrics import SimReport

#: The paper's fault-injection grid: {1, 5} blocks x {2, 3, 4} bits.
FAULT_GRID: tuple[tuple[int, int], ...] = (
    (1, 2), (1, 3), (1, 4), (5, 2), (5, 3), (5, 4),
)


def _grid_results(
    manager: ReliabilityManager, cells: list[EvaluationRequest],
) -> list[CampaignResult]:
    """Each cell request's campaign, all run in one drive at the
    manager's ``jobs``."""
    campaigns = [manager._campaign(cell) for cell in cells]
    results, _drive = _run_campaigns(campaigns, manager.jobs,
                                     metrics=MetricsRegistry())
    return results


# ----------------------------------------------------------------------
# Figure 2 — L2 cache size trend
# ----------------------------------------------------------------------
def fig2_rows() -> list[tuple[str, str, int, float]]:
    """(vendor, model, year, L2 MiB) in chronological order."""
    return [
        (g.vendor, g.model, g.year, g.l2_mib) for g in L2_SIZE_TREND
    ]


# ----------------------------------------------------------------------
# Figure 3 — sorted normalized per-block access counts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig3Series:
    app_name: str
    normalized_counts: np.ndarray  # ascending, max-normalized
    max_min_ratio: float

    def tail_share(self, top_fraction: float = 0.05) -> float:
        """Fraction of accesses absorbed by the top ``top_fraction``
        of blocks — the 'few blocks take most accesses' statistic."""
        counts = np.sort(self.normalized_counts)
        k = max(1, int(round(top_fraction * counts.size)))
        total = counts.sum()
        return float(counts[-k:].sum() / total) if total else 0.0


def fig3_series(manager: ReliabilityManager) -> Fig3Series:
    """The Figure 3 series for one application."""
    profile = manager.profile
    return Fig3Series(
        app_name=manager.app.name,
        normalized_counts=profile.normalized_curve(),
        max_min_ratio=profile.max_min_ratio(),
    )


# ----------------------------------------------------------------------
# Figure 4 — warp sharing per block
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig4Series:
    app_name: str
    #: % of active warps per block, blocks sorted by access count asc.
    warp_share_percent: np.ndarray
    hot_mean_share: float
    rest_mean_share: float


def fig4_series(manager: ReliabilityManager) -> Fig4Series:
    """The Figure 4 series for one application."""
    from repro.profiling.warp_sharing import (
        hot_vs_rest_sharing,
        warp_sharing_curve,
    )

    curve = warp_sharing_curve(manager.profile)
    hot_addrs = {
        addr
        for obj in manager.app.hot_objects(manager.memory)
        for addr in obj.block_addrs()
    }
    hot_mean, rest_mean = hot_vs_rest_sharing(manager.profile, hot_addrs)
    return Fig4Series(
        app_name=manager.app.name,
        warp_share_percent=curve,
        hot_mean_share=hot_mean,
        rest_mean_share=rest_mean,
    )


# ----------------------------------------------------------------------
# Figure 6 — SDCs: faults in hot vs rest blocks (motivation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig6Cell:
    app_name: str
    space: str  # "hot" | "rest"
    n_blocks: int
    n_bits: int
    sdc: int
    crash: int
    masked: int
    runs: int


def fig6_grid(
    manager: ReliabilityManager, runs: int, seed: int = 20210621
) -> list[Fig6Cell]:
    """The Figure 6 grid: both spaces x the fault grid, each cell the
    campaign :meth:`ReliabilityManager.motivation` runs."""
    base = manager._resolve(None, dict(
        scheme="baseline", protect="none", runs=runs, seed=seed))
    cells = [
        replace(base, selection=space, n_blocks=n_blocks, n_bits=n_bits)
        for space in ("hot", "rest") for n_blocks, n_bits in FAULT_GRID
    ]
    return [
        Fig6Cell(
            app_name=manager.app.name,
            space=cell.selection,
            n_blocks=cell.n_blocks,
            n_bits=cell.n_bits,
            sdc=result.sdc_count,
            crash=result.count(Outcome.CRASH),
            masked=result.count(Outcome.MASKED),
            runs=result.n_runs,
        )
        for cell, result in zip(cells, _grid_results(manager, cells))
    ]


# ----------------------------------------------------------------------
# Figure 7 — performance vs cumulative protection level
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig7Row:
    app_name: str
    scheme: str
    n_protected: int
    norm_time: float
    norm_missed_accesses: float
    replica_transactions: int


def fig7_sweep(
    manager: ReliabilityManager,
) -> tuple[SimReport, list[Fig7Row]]:
    """Baseline report plus one row per (scheme, protection level).

    Each bar is the report :meth:`ReliabilityManager.
    simulate_performance` gives; the 1 + 2N simulations run in one
    drive at the manager's ``jobs``.
    """
    n_objects = len(manager.app.object_importance)
    arms = [(scheme, level) for scheme in ("detection", "correction")
            for level in range(1, n_objects + 1)]
    sims = [SimUnit(manager.app, manager.config, manager.budget,
                    manager.protection_spec(*arm))
            for arm in [("baseline", "none"), *arms]]
    _results, drive = _run_campaigns([], manager.jobs,
                                     metrics=MetricsRegistry(), sims=sims)
    baseline, *reports = [drive.reports[sim.digest] for sim in sims]
    rows = [
        Fig7Row(
            app_name=manager.app.name,
            scheme=scheme,
            n_protected=level,
            norm_time=report.slowdown_vs(baseline),
            norm_missed_accesses=report.missed_accesses_vs(baseline),
            replica_transactions=report.replica_transactions,
        )
        for (scheme, level), report in zip(arms, reports)
    ]
    return baseline, rows


# ----------------------------------------------------------------------
# Figure 9 — SDC outcomes vs cumulative protection level (evaluation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig9Cell:
    app_name: str
    scheme: str
    n_protected: int
    n_blocks: int
    n_bits: int
    sdc: int
    detected: int
    corrected: int
    crash: int
    runs: int


def fig9_grid(
    manager: ReliabilityManager,
    scheme: str,
    runs: int,
    levels: list[int] | None = None,
    grid: tuple[tuple[int, int], ...] = FAULT_GRID,
    selection: str = "access-weighted",
    seed: int = 20210621,
) -> list[Fig9Cell]:
    """The Figure 9 grid: protection levels x the fault grid, each cell
    the campaign :meth:`ReliabilityManager.evaluate` runs."""
    if levels is None:
        levels = list(range(len(manager.app.object_importance) + 1))
    base = manager._resolve(None, dict(runs=runs, selection=selection,
                                       seed=seed))
    cells = [
        replace(base, scheme=scheme if level else "baseline",
                protect=level, n_blocks=n_blocks, n_bits=n_bits)
        for level in levels for n_blocks, n_bits in grid
    ]
    return [
        Fig9Cell(
            app_name=manager.app.name,
            scheme=cell.scheme,
            n_protected=cell.protect,
            n_blocks=cell.n_blocks,
            n_bits=cell.n_bits,
            sdc=result.sdc_count,
            detected=result.count(Outcome.DETECTED),
            corrected=result.count(Outcome.CORRECTED),
            crash=result.count(Outcome.CRASH),
            runs=result.n_runs,
        )
        for cell, result in zip(cells, _grid_results(manager, cells))
    ]


def average_sdc_drop(
    cells: list[Fig9Cell], hot_level: int, include_crashes: bool = False
) -> float:
    """Mean drop (baseline -> hot protection) over the fault grid,
    skipping configurations whose baseline produced nothing to drop.

    With ``include_crashes`` the drop is over *bad outcomes*
    (SDC + crash).  This model separates crashes from SDCs (the paper
    folds loud failures out of its SDC counts), so the bad-outcome
    drop is the apples-to-apples headline: a run that would have
    crashed at baseline and completes-but-deviates under protection
    otherwise books as a negative SDC drop.
    """
    def bad(cell: Fig9Cell) -> int:
        return cell.sdc + (cell.crash if include_crashes else 0)

    drops = []
    by_key = {
        (c.n_protected, c.n_blocks, c.n_bits): c for c in cells
    }
    for n_blocks, n_bits in FAULT_GRID:
        base = by_key.get((0, n_blocks, n_bits))
        prot = by_key.get((hot_level, n_blocks, n_bits))
        if base is None or prot is None or bad(base) == 0:
            continue
        drops.append(100.0 * (bad(base) - bad(prot)) / bad(base))
    return float(np.mean(drops)) if drops else 0.0


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table1_rows(config: GpuConfig = PAPER_CONFIG) \
        -> list[tuple[str, str]]:
    """Table I (category, configuration) rows."""
    return config.describe()


def table2_rows() -> list[tuple[str, str, str]]:
    """(application, output format, error metric) as in Table II."""
    from repro.kernels.registry import APPLICATIONS, create_app

    formats = {
        "C-NN": "Vector Classifications",
        "P-BICG": "Result Vector",
        "P-GESUMMV": "Result Vector",
        "P-MVT": "Result Vector",
        "A-Laplacian": "Filtered Image",
        "A-Meanfilter": "Filtered Image",
        "A-Sobel": "Edge Detected Image",
        "A-SRAD": "Image",
    }
    rows = []
    for name in APPLICATIONS:
        app = create_app(name, scale="small")
        rows.append(
            (name, formats[name], app.error_metric.description)
        )
    return rows


def table3_rows(
    managers: list[ReliabilityManager],
) -> list[Table3Row]:
    """Table III rows for the given applications."""
    return [m.table3() for m in managers]


# ----------------------------------------------------------------------
# Per-object vulnerability heatmap (provenance attribution)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VulnerabilityHeatmap:
    """Objects x provenance causes for one (app, scheme) cell.

    ``matrix[i][j]`` is the fraction of runs attributed to
    ``objects[i]`` whose cause was ``causes[j]`` (rows sum to 1 for
    any object with runs); ``sdc_rates[i]`` is the object's SDC
    attribution rate — together the data behind a DVF-style "which
    object is how vulnerable, and why" heatmap.
    """

    app_name: str
    scheme_name: str
    objects: tuple[str, ...]
    regions: tuple[str, ...]
    causes: tuple[str, ...]
    matrix: tuple[tuple[float, ...], ...]
    sdc_rates: tuple[float, ...]
    runs: tuple[int, ...]


def vulnerability_heatmap(profiles) -> list[VulnerabilityHeatmap]:
    """One heatmap per (app, scheme) from vulnerability profiles.

    ``profiles`` are the output of
    :func:`repro.obs.provenance.vulnerability_profiles` (already
    sorted by app/scheme/object), so the heatmaps — like everything
    derived from provenance streams — are deterministic for a given
    campaign.
    """
    from repro.obs.provenance import PROVENANCE_CAUSES

    cells: dict[tuple[str, str], list] = {}
    for profile in profiles:
        cells.setdefault((profile.app, profile.scheme), []) \
            .append(profile)
    heatmaps = []
    for (app, scheme), group in sorted(cells.items()):
        matrix = []
        for p in group:
            total = max(p.runs, 1)
            matrix.append(tuple(
                p.cause_counts.get(cause, 0) / total
                for cause in PROVENANCE_CAUSES
            ))
        heatmaps.append(VulnerabilityHeatmap(
            app_name=app,
            scheme_name=scheme,
            objects=tuple(p.object for p in group),
            regions=tuple(p.region for p in group),
            causes=PROVENANCE_CAUSES,
            matrix=tuple(matrix),
            sdc_rates=tuple(p.sdc_rate for p in group),
            runs=tuple(p.runs for p in group),
        ))
    return heatmaps


# ----------------------------------------------------------------------
# Pareto front — reliability / overhead / footprint design space
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParetoPoint:
    """One design-space configuration in the Pareto-front figure.

    ``on_front`` distinguishes the non-dominated configurations from
    the dominated remainder (plotted greyed-out for context);
    ``sdc_reduction`` is the percent of baseline SDCs the
    configuration removes.
    """

    app_name: str
    label: str
    digest: str
    sdc_rate: float
    overhead: float
    replica_bytes: int
    sdc_reduction: float
    on_front: bool


def pareto_front_series(result) -> list[ParetoPoint]:
    """Figure data from an :class:`~repro.search.engine.OptimizeResult`.

    Every evaluated configuration becomes one point, front members
    flagged, in canonical (objectives, digest) order — so the series,
    like the search it came from, is identical at any ``--jobs``.
    """
    on_front = {e.digest for e in result.front}
    return [
        ParetoPoint(
            app_name=result.app,
            label=e.point.label,
            digest=e.digest,
            sdc_rate=e.sdc_rate,
            overhead=e.overhead,
            replica_bytes=e.replica_bytes,
            sdc_reduction=result.sdc_reduction(e),
            on_front=e.digest in on_front,
        )
        for e in result.evaluations
    ]
