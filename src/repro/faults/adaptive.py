"""CI-driven early stopping for statistical fault-injection campaigns.

The paper sizes every campaign at a fixed 1000 runs to hit the
Leveugle ±3% margin.  This module makes the loop *adaptive*: runs
commit in fixed-size chunks, the Wilson confidence interval on the
SDC rate is evaluated after every committed chunk, and the campaign
stops at the first chunk boundary where the margin meets the target.

The stopping rule is deterministic by construction: decisions are
made only at chunk boundaries, in run-index order, over the committed
prefix — never over whatever happens to have finished first.  Workers
may speculate chunks beyond the eventual stop point, but speculative
results past the stop boundary are discarded, so the committed result
— tallies, kept runs, telemetry records, provenance records, stop
decisions — is byte-identical at any ``--jobs``/``--batch``.  The rule
itself is evaluated in one place, the execution core's in-order
committer (:mod:`repro.runtime.executor`), which campaigns and sweep
cells share.

Because every run is derived solely from ``(campaign seed, run
index)``, an adaptive campaign's committed prefix is literally the
prefix of the exhaustive campaign's run sequence: early stopping
changes *how many* runs are simulated, never *which* outcome any
individual run has.  The estimator stays unbiased in the standard
sequential-sampling sense, and the A/B equivalence suite asserts the
adaptive estimate lands inside the exhaustive run's CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.utils.stats import (
    ConfidenceInterval,
    confidence_interval,
    zero_run_interval,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.campaign import CampaignResult


@dataclass(frozen=True)
class AdaptiveConfig:
    """Stopping-rule parameters of an adaptive campaign.

    ``target_margin`` is the SDC-rate CI margin that ends the
    campaign; ``check_every`` is the commit-chunk size (the decision
    granularity); ``min_runs`` optionally floors the committed count
    before stopping is allowed.  ``campaign.config.runs`` stays the
    hard budget — a campaign that never reaches the target margin
    simply runs it out and reports ``converged=False``.
    """

    target_margin: float
    level: float = 0.95
    check_every: int = 64
    min_runs: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.target_margin < 1.0:
            raise ConfigError(
                f"target_margin {self.target_margin} outside (0, 1)"
            )
        zero_run_interval(self.level)  # validates the level
        if self.check_every < 1:
            raise ConfigError("check_every must be >= 1")
        if self.min_runs < 0:
            raise ConfigError("min_runs must be >= 0")

    def to_dict(self) -> dict:
        """Canonical image; joins the campaign's spec identity."""
        return {
            "target_margin": self.target_margin,
            "level": self.level,
            "check_every": self.check_every,
            "min_runs": self.min_runs,
        }


@dataclass(frozen=True)
class StopDecision:
    """One chunk-boundary evaluation of the stopping rule."""

    committed: int
    sdc: int
    interval: ConfidenceInterval
    stop: bool

    def to_dict(self) -> dict:
        """Canonical-JSON-ready image (interval bounds included)."""
        return {
            "committed": self.committed,
            "sdc": self.sdc,
            "stop": self.stop,
            "interval": self.interval.to_dict(),
        }


def should_stop(
    sdc: int, runs: int, target_margin: float, level: float = 0.95
) -> tuple[bool, ConfidenceInterval]:
    """Evaluate the stopping rule over a committed prefix.

    Returns ``(stop, interval)``; with zero committed runs the
    interval is the vacuous [0, 1] and the answer is always "keep
    going".  The Wilson interval keeps the margin honest at p=0 — the
    all-MASKED prefix that a normal-approximation CI would declare
    infinitely precise after one run.
    """
    if runs <= 0:
        return False, zero_run_interval(level)
    interval = confidence_interval(sdc, runs, level)
    return interval.margin <= target_margin, interval


@dataclass
class AdaptiveResult:
    """A stopped (or budget-exhausted) adaptive campaign.

    Wraps the committed :class:`CampaignResult` with the decision
    trail and the accounting that makes the efficiency claim
    checkable: how many runs the budget allowed, where the campaign
    stopped, and how many of the committed runs were actually
    *simulated* (as opposed to classified analytically by the batch
    engine's equivalence pruning).
    """

    result: "CampaignResult"
    config: AdaptiveConfig
    budget: int
    converged: bool
    decisions: list[StopDecision] = field(default_factory=list)

    @property
    def stopped_at(self) -> int:
        """Committed runs when the campaign ended."""
        return self.result.n_runs

    @property
    def interval(self) -> ConfidenceInterval:
        """The SDC interval at the stop point."""
        if not self.decisions:
            return zero_run_interval(self.config.level)
        return self.decisions[-1].interval

    @property
    def analytic_runs(self) -> int:
        """Committed runs classified without simulation."""
        snapshot = self.result.metrics_snapshot or {}
        counters = snapshot.get("counters", {})
        return int(counters.get("campaign.batch.analytic_lanes", 0))

    @property
    def simulated_runs(self) -> int:
        """Committed runs that actually executed the application."""
        return self.stopped_at - self.analytic_runs

    def to_dict(self) -> dict:
        """Deterministic image: config, stop trail, committed result."""
        return {
            "adaptive": self.config.to_dict(),
            "budget": self.budget,
            "stopped_at": self.stopped_at,
            "converged": self.converged,
            "decisions": [d.to_dict() for d in self.decisions],
            "result": self.result.to_dict(),
        }

    def summary(self) -> str:
        """Human-readable stop summary to append to a result table."""
        state = "converged" if self.converged else "budget exhausted"
        return (
            f"adaptive: {state} at {self.stopped_at}/{self.budget} runs "
            f"({self.simulated_runs} simulated, "
            f"{self.analytic_runs} analytic); SDC {self.interval}"
        )
