"""Run-outcome taxonomy for fault-injection experiments.

The five outcomes say how a run *ended*; the provenance surface
(:mod:`repro.obs.provenance`) refines each into a *cause* — why a
masked run was masked (value agreement, dead word, overwrite window),
or what fired for a loud one (replica compare, SECDED decode) — via
the :data:`~repro.obs.records.PROVENANCE_CAUSES` taxonomy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Outcome(enum.Enum):
    """How one fault-injected application run ended.

    * ``MASKED`` — the run completed and the output matched the
      fault-free baseline within the application's Table II threshold.
    * ``SDC`` — the run completed but the output deviated beyond the
      threshold: silent data corruption, the paper's headline metric.
    * ``DETECTED`` — the detection scheme observed a replica mismatch
      and terminated the run (the user reruns; never silent).
    * ``CORRECTED`` — the correction scheme repaired at least one read
      via majority vote and the output matched the baseline.
    * ``CRASH`` — the run aborted (corrupted indices/bounds walked
      outside allocations); loud, hence not an SDC.
    """

    MASKED = "masked"
    SDC = "sdc"
    DETECTED = "detected"
    CORRECTED = "corrected"
    CRASH = "crash"

    @property
    def is_silent_corruption(self) -> bool:
        return self is Outcome.SDC

    @property
    def is_benign(self) -> bool:
        """Run produced correct output (possibly thanks to correction)."""
        return self in (Outcome.MASKED, Outcome.CORRECTED)


@dataclass(frozen=True)
class RunResult:
    """Result of a single fault-injection run."""

    run_index: int
    outcome: Outcome
    error: float
    detail: str = ""
