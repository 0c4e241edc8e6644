"""Campaign execution engine: one driver, caching, durability.

* :mod:`repro.runtime.executor` — the one execution core: one driver
  over a single worker pool (retries, deadlines, pool restarts, serial
  fallback) and a single in-order stop rule, running every campaign,
  adaptive campaign, sweep cell and tradeoff level;
  :meth:`~repro.faults.campaign.Campaign.run` is its one-campaign
  entry.
* :mod:`repro.runtime.cache` — the one per-process home of pristine
  device memory, golden outputs and memory traces keyed by application
  identity, so managers, sweeps and worker processes never recompute
  them per object.
* :mod:`repro.runtime.session` — resumable sweep sessions: an
  ordered tuple of :class:`~repro.core.request.EvaluationRequest` s
  (one per cell; a :class:`~repro.runtime.session.SweepSpec` is their
  cross product over one base request) run through the driver as
  checkpointed chunk-level work units.
* :mod:`repro.runtime.checkpoint` — the content-addressed on-disk
  chunk and report store the sessions persist into.
"""

from repro.runtime.cache import (
    AppContext,
    app_cache_key,
    app_context,
    cache_info,
    clear_app_cache,
)
from repro.runtime.checkpoint import STORE_VERSION, CheckpointStore
from repro.runtime.executor import CampaignSpec, plan_chunks
from repro.runtime.session import (
    Session,
    SessionConfig,
    SweepEntry,
    SweepResult,
    SweepSpec,
    WorkUnit,
)

__all__ = [
    "AppContext",
    "CampaignSpec",
    "CheckpointStore",
    "STORE_VERSION",
    "Session",
    "SessionConfig",
    "SweepEntry",
    "SweepResult",
    "SweepSpec",
    "WorkUnit",
    "app_cache_key",
    "app_context",
    "cache_info",
    "clear_app_cache",
    "plan_chunks",
]
