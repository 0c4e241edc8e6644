"""Statistics helpers: confidence intervals and means.

The paper reports 95% confidence intervals with roughly +/-3% error
margins for 1000-run campaigns (Leveugle et al. statistical fault
injection).  :func:`confidence_interval` defaults to the Wilson score
interval, which stays informative at the boundaries: a campaign that
has seen zero SDCs in ``n`` runs still gets a nonzero upper bound
(``z^2 / (n + z^2)``, the continuous analogue of the rule of three),
so an early-stopping loop seeded with it cannot terminate after the
very first MASKED run.  The paper's original normal approximation is
kept behind ``method="normal"`` — for p=0.5 and 1000 runs both give
the ~3.1% margin the paper quotes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

_Z_VALUES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}

_CI_METHODS = ("wilson", "normal")


def _z_for(level: float) -> float:
    try:
        return _Z_VALUES[level]
    except KeyError:
        raise ValueError(f"unsupported confidence level {level}") from None


@dataclass(frozen=True)
class ConfidenceInterval:
    """A proportion estimate with an explicit ``[low, high]`` interval.

    ``margin`` is the larger one-sided distance
    ``max(proportion - low, high - proportion)`` — for the (symmetric)
    normal approximation this is the familiar half-width.  ``low`` and
    ``high`` default to the clamped symmetric bounds when not given, so
    legacy two-field construction keeps working, but asymmetric
    intervals (Wilson near p=0 or p=1) carry their true bounds instead
    of silently clamping and then printing a symmetric ``±margin``.
    """

    proportion: float
    margin: float
    level: float
    runs: int
    low: float = field(default=None)  # type: ignore[assignment]
    high: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.low is None:
            object.__setattr__(
                self, "low", max(0.0, self.proportion - self.margin))
        if self.high is None:
            object.__setattr__(
                self, "high", min(1.0, self.proportion + self.margin))

    def to_dict(self) -> dict:
        """Canonical-JSON-friendly form, bounds included."""
        return {
            "proportion": self.proportion,
            "margin": self.margin,
            "low": self.low,
            "high": self.high,
            "level": self.level,
            "runs": self.runs,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.proportion:.4f} [{self.low:.4f}, {self.high:.4f}] "
            f"({self.level:.0%}, n={self.runs})"
        )


def zero_run_interval(level: float = 0.95) -> ConfidenceInterval:
    """The vacuous interval for a summary with no runs at all.

    Zero observations say nothing about the proportion, so the interval
    is the whole of [0, 1] — callers (``repro stats`` on a truncated
    JSONL, an adaptive campaign before its first chunk commits) report
    it cleanly instead of tracebacking on ``runs must be positive``.
    """
    _z_for(level)
    return ConfidenceInterval(0.0, 1.0, level, 0, low=0.0, high=1.0)


def confidence_interval(
    successes: int,
    runs: int,
    level: float = 0.95,
    method: str = "wilson",
) -> ConfidenceInterval:
    """Confidence interval for a binomial proportion.

    The default Wilson score interval is well-behaved at the
    boundaries: ``successes=0`` yields ``high = z^2/(n + z^2) > 0``
    rather than the normal approximation's degenerate zero-width
    interval.  ``method="normal"`` keeps the paper's original formula
    (for ``runs=1000``, ``level=0.95`` the worst-case p=0.5 margin is
    ~3.1%, matching the paper's statistical-significance claim; Wilson
    agrees to three decimals at that size).
    """
    if runs <= 0:
        raise ValueError("runs must be positive")
    if not 0 <= successes <= runs:
        raise ValueError(f"successes {successes} outside [0, {runs}]")
    z = _z_for(level)
    if method not in _CI_METHODS:
        raise ValueError(f"unknown CI method {method!r}")
    p = successes / runs
    if method == "normal":
        margin = z * math.sqrt(p * (1.0 - p) / runs)
        return ConfidenceInterval(p, margin, level, runs)
    z2 = z * z
    denom = 1.0 + z2 / runs
    center = (p + z2 / (2.0 * runs)) / denom
    half = (z / denom) * math.sqrt(
        p * (1.0 - p) / runs + z2 / (4.0 * runs * runs))
    # Snap the exact boundary cases: algebraically low=0 at p=0 and
    # high=1 at p=1, but float rounding can leave a ~1e-17 residue.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == runs else min(1.0, center + half)
    margin = max(p - low, high - p)
    return ConfidenceInterval(p, margin, level, runs, low=low, high=high)


def runs_for_margin(
    margin: float, level: float = 0.95, method: str = "wilson"
) -> int:
    """Runs needed for a worst-case (p=0.5) CI margin of ``margin``.

    For Wilson the p=0.5 half-width is ``z / (2 sqrt(n + z^2))``, so
    ``n >= (z / 2m)^2 - z^2`` — a handful fewer runs than the normal
    approximation's ``(z / 2m)^2`` at the same margin.  The count is
    rounded up to an even number so the sizing worst case (exactly
    half the runs succeeding) is realizable and the round trip
    ``confidence_interval(n // 2, n)`` honors the requested margin.
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    z = _z_for(level)
    if method not in _CI_METHODS:
        raise ValueError(f"unknown CI method {method!r}")
    n = (z / (2.0 * margin)) ** 2
    if method == "wilson":
        n -= z * z
    n = max(math.ceil(n), 2)
    return n + (n % 2)


def stratified_interval(
    strata: Sequence[tuple[float, int, int]], level: float = 0.95
) -> ConfidenceInterval:
    """Recombine per-stratum tallies into one unbiased estimate.

    ``strata`` is a sequence of ``(weight, successes, runs)`` triples;
    weights are normalized to sum to 1.  The point estimate is the
    weighted mean of the per-stratum proportions (unbiased whenever the
    weights are the true stratum population shares), and the combined
    margin is the square root of the weighted sum of squared
    per-stratum Wilson margins — the standard independent-strata
    variance composition.  A stratum with zero runs contributes the
    vacuous margin of 1.0 at its full weight, so unsampled strata widen
    the interval instead of silently vanishing from it.
    """
    _z_for(level)
    strata = list(strata)
    if not strata:
        raise ValueError("stratified_interval of empty strata")
    total_weight = sum(w for w, _, _ in strata)
    if total_weight <= 0:
        raise ValueError("stratum weights must sum to a positive value")
    p_hat = 0.0
    var_sum = 0.0
    total_runs = 0
    for weight, successes, runs in strata:
        if weight < 0:
            raise ValueError("stratum weights must be non-negative")
        w = weight / total_weight
        if runs > 0:
            ci = confidence_interval(successes, runs, level)
            p_hat += w * ci.proportion
            var_sum += (w * ci.margin) ** 2
            total_runs += runs
        else:
            var_sum += w * w  # vacuous margin 1.0 for an unsampled stratum
    margin = math.sqrt(var_sum)
    low = max(0.0, p_hat - margin)
    high = min(1.0, p_hat + margin)
    return ConfidenceInterval(
        p_hat, margin, level, total_runs, low=low, high=high)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, the right average for normalized slowdowns."""
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
