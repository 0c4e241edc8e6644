"""Coverage of the adaptive stop rule's reported interval.

An adaptive campaign looks at its SDC tally every 64 committed runs
and stops at the first look whose 95% Wilson margin meets the target,
or at its run budget.  Repeated looks can lower the reported
interval's coverage below its nominal level.  This Monte Carlo runs
binomial campaigns through :func:`repro.faults.adaptive.should_stop`
(1,000-run budget, looks every 64 runs, level 0.95, 4,000 trials per
point, seed 0) and pins the coverage of the interval reported at the
stop.

The floor is ``0.95 - 3 SE`` with ``SE = sqrt(0.95 * 0.05 / 4000)``
(about 0.0034).  Points measured below it are strict xfails carrying
their measured coverage: the rule is left as it is, because a fix
(a looks-adjusted level, or a time-uniform confidence sequence)
moves stop points and needs a documented re-record of the decision
trails.  When such a fix lands, those points XPASS and fail loudly.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.faults.adaptive import should_stop

BUDGET, EVERY, LEVEL, TRIALS = 1000, 64, 0.95, 4000
LOOKS = list(range(EVERY, BUDGET, EVERY)) + [BUDGET]
FLOOR = LEVEL - 3 * math.sqrt(LEVEL * (1 - LEVEL) / TRIALS)


def coverage(p: float, target: float, seed: int = 0) -> float:
    """Share of simulated campaigns whose reported interval holds ``p``."""
    rule = functools.lru_cache(maxsize=None)(
        lambda sdc, runs: should_stop(sdc, runs, target, LEVEL))
    chunks = np.diff([0] + LOOKS)
    tallies = np.random.default_rng(seed).binomial(
        chunks, p, size=(TRIALS, len(chunks))).cumsum(axis=1)
    covered = 0
    for row in tallies.tolist():
        for runs, sdc in zip(LOOKS, row):
            stop, interval = rule(sdc, runs)
            if stop or runs == BUDGET:
                covered += interval.low <= p <= interval.high
                break
    return covered / TRIALS


def below_floor(measured: float):
    return pytest.mark.xfail(
        strict=True,
        reason=f"measured coverage {measured} < floor {FLOOR:.4f}: "
               "repeated looks at a fixed level")


@pytest.mark.parametrize("target,p", [
    pytest.param(0.03, 0.005, marks=below_floor(0.93625)),
    pytest.param(0.03, 0.03, marks=below_floor(0.9375)),
    (0.03, 0.1), (0.03, 0.2), (0.03, 0.3), (0.03, 0.5),
    (0.05, 0.005), (0.05, 0.03), (0.05, 0.1), (0.05, 0.2),
    (0.05, 0.3), (0.05, 0.5),
])
def test_stop_rule_coverage_floor(target, p):
    assert coverage(p, target) >= FLOOR
