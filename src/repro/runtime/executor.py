"""The one execution core: a worker pool and an in-order stop rule.

Every evaluation — a plain campaign, an adaptive campaign, each cell
of a sweep — executes as :class:`WorkUnit` spans of one campaign's run
indices; every timing simulation a sweep asks for executes as a
:class:`SimUnit` beside them.  Two pieces drive them, and nothing else
does:

* ``_run_units`` — the pool loop.  With ``jobs=1`` units run
  in-process; otherwise they fan out over one
  :class:`concurrent.futures.ProcessPoolExecutor`, each span shipped
  as its campaign's picklable :class:`CampaignSpec` (a worker rebuilds
  the campaign once and reuses it, under fork and spawn alike) and
  each simulation as its own picklable unit.  Failed attempts retry
  with exponential backoff, chunk attempts may carry a deadline, a
  dead pool restarts a bounded number of times, and when no pool can
  be used the remaining units run in-process.
* ``_Committer`` — the in-order per-cell committer.  Finished units
  fold into their cell's contiguous run-index prefix only, so tallies
  and decisions depend on the unit plan, never on completion order.
  With an :class:`~repro.faults.adaptive.AdaptiveConfig` it evaluates
  the stopping rule at every unit boundary; the first satisfied
  boundary stops the cell and its later units become skippable.

Every run derives solely from ``(campaign seed, run index)``, so the
committed results, records and decision trails are byte-identical at
any ``jobs``/``batch``.  :class:`CampaignExecutor` is the one-campaign
entry; sweeps enter through :class:`~repro.runtime.session.Session`.
"""

from __future__ import annotations

import copy
import math
import multiprocessing as mp
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.arch.config import PAPER_CONFIG, GpuConfig
from repro.core.hardware import HardwareBudget
from repro.core.protection import ProtectionSpec
from repro.errors import ConfigError, SessionError, SpecError
from repro.faults.adaptive import StopDecision, should_stop
from repro.obs.log import get_logger
from repro.obs.progress import ProgressEvent
from repro.utils.canonical import canonical_digest
from repro.utils.stats import confidence_interval

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import ReliabilityManager
    from repro.faults.adaptive import AdaptiveConfig
    from repro.faults.campaign import Campaign, CampaignResult
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.metrics import SimReport

log = get_logger("executor")

#: Target chunks per worker: small enough to amortize dispatch, large
#: enough to balance load when chunk durations vary.
_CHUNKS_PER_WORKER = 4
#: Worker-side cap on cached rebuilt campaigns.
_MAX_WORKER_CAMPAIGNS = 8
#: Pool restarts tolerated before degrading to serial execution.
_MAX_POOL_RESTARTS = 2


def plan_chunks(
    runs: int, jobs: int, chunk_size: int | None = None,
    align: int = 1,
) -> list[tuple[int, int]]:
    """Split ``range(runs)`` into contiguous ``(start, stop)`` spans.

    ``align`` rounds the chunk size up to a multiple of the campaign's
    batch size so workers sweep whole batches (only the final chunk may
    be ragged).
    """
    if runs <= 0:
        return []
    if align < 1:
        raise ConfigError("align must be positive")
    if chunk_size is None:
        chunk_size = max(1, math.ceil(runs / (max(1, jobs)
                                              * _CHUNKS_PER_WORKER)))
    if chunk_size < 1:
        raise ConfigError("chunk_size must be positive")
    if align > 1:
        chunk_size = math.ceil(chunk_size / align) * align
    return [
        (start, min(start + chunk_size, runs))
        for start in range(0, runs, chunk_size)
    ]


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a worker needs to rebuild a campaign, picklable.

    ``token`` identifies the originating campaign so workers can reuse
    a rebuilt campaign across the chunks they receive.
    """

    token: str
    app: Any
    selection: Any
    scheme_name: str
    protected_names: tuple[str, ...]
    config: Any
    keep_runs: bool
    collect_records: bool = False
    collect_provenance: bool = False
    batch: int = 1
    max_batch_bytes: int = 256 * 1024 * 1024
    #: Full typed protection (mixed per-object configurations only;
    #: ``None`` means ``scheme_name``/``protected_names`` say it all).
    protection: Any = None

    @classmethod
    def from_campaign(cls, campaign: "Campaign") -> "CampaignSpec":
        # Ship the app without its cached golden output: each worker
        # recomputes (or fork-inherits) it via the app-context cache,
        # keeping task pickles small.
        app = copy.copy(campaign.app)
        app._golden = None
        return cls(
            token=f"{id(campaign)}-{next(_TOKENS)}",
            app=app,
            selection=campaign.selection,
            scheme_name=campaign.scheme_name,
            protected_names=campaign.protected_names,
            config=campaign.config,
            keep_runs=campaign.keep_runs,
            collect_records=campaign.collect_records,
            collect_provenance=campaign.collect_provenance,
            batch=campaign.batch,
            max_batch_bytes=campaign.max_batch_bytes,
            protection=(
                campaign.protection if campaign.protection.is_mixed
                else None
            ),
        )


_TOKENS = count(1)

#: Worker-side cache: campaigns rebuilt from specs.
_WORKER_CAMPAIGNS: dict[str, "Campaign"] = {}


def _run_span_spec(
    spec: CampaignSpec, span: tuple[int, int]
) -> "CampaignResult":
    """Worker entry: rebuild-or-reuse the campaign, then run a span."""
    campaign = _WORKER_CAMPAIGNS.get(spec.token)
    if campaign is None:
        from repro.faults.campaign import Campaign

        if len(_WORKER_CAMPAIGNS) >= _MAX_WORKER_CAMPAIGNS:
            _WORKER_CAMPAIGNS.clear()
        if spec.protection is not None:
            how = {"protection": spec.protection}
        else:
            how = {"scheme": spec.scheme_name,
                   "protect": spec.protected_names}
        campaign = Campaign(
            spec.app,
            spec.selection,
            config=spec.config,
            **how,
            keep_runs=spec.keep_runs,
            collect_records=spec.collect_records,
            collect_provenance=spec.collect_provenance,
            batch=spec.batch,
            max_batch_bytes=spec.max_batch_bytes,
        )
        _WORKER_CAMPAIGNS[spec.token] = campaign
    start, stop = span
    return campaign.run_span(start, stop)


@dataclass(frozen=True)
class SimUnit:
    """One timing simulation, picklable and identified by content.

    The application is named by ``(app, scale, app_seed)``, so a
    worker rebuilds it from its process's shared app context; the
    :attr:`digest` over every input is the key its
    :class:`~repro.sim.metrics.SimReport` persists under.
    """

    app: str
    scale: str
    app_seed: int
    config: GpuConfig
    budget: HardwareBudget
    protection: ProtectionSpec

    @property
    def digest(self) -> str:
        """Content address of the simulation's inputs."""
        return canonical_digest({
            "app": self.app,
            "scale": self.scale,
            "app_seed": self.app_seed,
            "config": asdict(self.config),
            "budget": asdict(self.budget),
            "protection": self.protection.digest(),
        })

    def run(self) -> "SimReport":
        """Simulate, on the memory and trace of the app context."""
        manager = context_manager(self.app, self.scale, self.app_seed,
                                  self.config)
        manager.budget = self.budget
        return manager.simulate_performance("baseline", self.protection)


def context_manager(
    app: str, scale: str, app_seed: int, config: GpuConfig = PAPER_CONFIG,
) -> "ReliabilityManager":
    """A manager whose memory and trace are the process's app context's.

    The trace is built once per process (and inherited by forked
    workers) instead of once per manager.
    """
    from repro.core.manager import ReliabilityManager
    from repro.kernels.registry import create_app
    from repro.runtime.cache import app_context

    context = app_context(create_app(app, scale=scale, seed=app_seed))
    manager = ReliabilityManager(context.app, config=config)
    # Prime the manager's cached analyses with the context's
    # (identical) artifacts.
    manager.__dict__.update(memory=context.pristine, trace=context.trace)
    return manager


@dataclass(frozen=True)
class SessionConfig:
    """Execution knobs of the core (never part of any identity)."""

    jobs: int = 1
    #: Retries per chunk beyond the first attempt.
    max_retries: int = 2
    #: Base of the exponential backoff between attempts (seconds):
    #: attempt ``k`` sleeps ``retry_backoff_s * 2**(k-1)``.
    retry_backoff_s: float = 0.25
    #: Deadline per chunk attempt (seconds); ``None`` disables.
    chunk_timeout_s: float | None = None
    #: Multiprocessing start method override (default: fork if
    #: available, else the platform default).
    start_method: str | None = None
    #: Stop (checkpointed, resumable) after this many newly executed
    #: chunks — for schedulers with wall-clock budgets and for tests.
    stop_after_chunks: int | None = None
    #: Runs swept per vectorized campaign batch (results are identical
    #: to ``batch=1`` — an execution knob, never sweep identity).
    batch: int = 1
    #: Memory clamp on one vectorized batch.
    max_batch_bytes: int = 256 * 1024 * 1024

    def validate(self) -> None:
        """Reject out-of-range knobs with :class:`SpecError`."""
        if self.jobs < 1:
            raise SpecError("session jobs must be >= 1")
        if self.batch < 1:
            raise SpecError("session batch must be >= 1")
        if self.max_batch_bytes < 1:
            raise SpecError("session max_batch_bytes must be >= 1")
        if self.max_retries < 0:
            raise SpecError("session max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise SpecError("session retry_backoff_s must be >= 0")
        if self.chunk_timeout_s is not None and self.chunk_timeout_s <= 0:
            raise SpecError("session chunk_timeout_s must be positive")
        if self.stop_after_chunks is not None \
                and self.stop_after_chunks < 1:
            raise SpecError("session stop_after_chunks must be >= 1")


@dataclass(frozen=True)
class WorkUnit:
    """One durable work unit: a span of one cell's run indices."""

    cell_index: int
    start: int
    stop: int


def _unit_batch(batch: int, adaptive: "AdaptiveConfig | None") -> int:
    """The batch size adaptive units run at (execution knob only).

    An adaptive campaign without a batch of its own sweeps each commit
    chunk through the batch engine, so analytic classification and
    equivalence pruning carry the early-stopped campaign.
    """
    if adaptive is not None and batch <= 1:
        return adaptive.check_every
    return batch


class _Committer:
    """In-order per-cell commit; the one place the stop rule runs."""

    def __init__(self, units: Sequence[WorkUnit],
                 adaptive: "AdaptiveConfig | None" = None):
        self.adaptive = adaptive
        self._plan: dict[int, list[WorkUnit]] = {}
        for unit in sorted(units, key=lambda u: (u.cell_index, u.start)):
            self._plan.setdefault(unit.cell_index, []).append(unit)
        #: Finished units waiting for a gap in their prefix to fill.
        self._waiting: dict[WorkUnit, "CampaignResult"] = {}
        #: cell -> committed parts, in run-index order.
        self.parts = {cell: [] for cell in self._plan}
        #: cell -> [committed runs, committed SDC runs].
        self.tallies = {cell: [0, 0] for cell in self._plan}
        #: cell -> stop-decision trail (adaptive only).
        self.decisions: dict[int, list[StopDecision]] = {
            cell: [] for cell in self._plan}
        #: cell -> run index of its first satisfied boundary.
        self.stopped: dict[int, int] = {}
        #: Finished runs that lie past a stop (speculation waste).
        self.discarded = 0

    def record(self, unit: WorkUnit, result: "CampaignResult") -> bool:
        """Fold one finished unit; False when it lies past a stop."""
        if self.skippable(unit):
            self.discarded += result.n_runs
            return False
        cell = unit.cell_index
        plan, parts = self._plan[cell], self.parts[cell]
        self._waiting[unit] = result
        while (cell not in self.stopped and len(parts) < len(plan)
               and plan[len(parts)] in self._waiting):
            head = plan[len(parts)]
            parts.append(self._waiting.pop(head))
            tally = self.tallies[cell]
            tally[0] += parts[-1].n_runs
            tally[1] += parts[-1].sdc_count
            if self.adaptive is not None:
                self._decide(cell, head)
        return True

    def _decide(self, cell: int, head: WorkUnit) -> None:
        runs, sdc = self.tallies[cell]
        rule = self.adaptive
        stop, interval = should_stop(sdc, runs, rule.target_margin,
                                     rule.level)
        stop = stop and runs >= rule.min_runs
        self.decisions[cell].append(StopDecision(
            committed=runs, sdc=sdc, interval=interval, stop=stop))
        if stop:
            self.stopped[cell] = head.stop
            for unit in [u for u in self._waiting
                         if u.cell_index == cell]:
                self.discarded += self._waiting.pop(unit).n_runs

    def skippable(self, unit: WorkUnit) -> bool:
        """True when the unit lies past its cell's stop boundary."""
        frontier = self.stopped.get(unit.cell_index)
        return frontier is not None and unit.start >= frontier

    def margin(self, cell: int) -> float | None:
        """Wilson CI margin over the cell's committed prefix."""
        runs, sdc = self.tallies[cell]
        return confidence_interval(sdc, runs).margin if runs else None


def _unit_timer(unit: WorkUnit | SimUnit) -> str:
    """The wall-time histogram a finished unit lands in."""
    return "session.sim_ms" if isinstance(unit, SimUnit) \
        else "session.chunk_ms"


class _FallBackToSerial(Exception):
    """Internal: the pool gave up; serial picks up the rest."""

    def __init__(self, reason: str, completed: set):
        super().__init__(reason)
        self.completed = completed


def _make_pool(context, jobs: int) -> ProcessPoolExecutor | None:
    try:
        return ProcessPoolExecutor(max_workers=jobs, mp_context=context)
    except (OSError, ValueError, RuntimeError, NotImplementedError):
        return None


def _run_units(
    campaigns: Sequence["Campaign"],
    units: Sequence[WorkUnit | SimUnit],
    on_done: Callable[[WorkUnit | SimUnit, Any, str], bool],
    config: SessionConfig,
    *,
    metrics: "MetricsRegistry",
    skippable: Callable[[WorkUnit], bool] = lambda unit: False,
    emit: Callable[..., None] = lambda kind, **fields: None,
    sleep: Callable[[float], None] = time.sleep,
    specs: Sequence[CampaignSpec] | None = None,
    entry: Callable = _run_span_spec,
) -> str | None:
    """Execute ``units`` (spans of ``campaigns``, simulations) with
    retries.

    ``on_done(unit, result, source)`` receives every finished unit in
    completion order — a :class:`CampaignResult` for a span, a
    :class:`~repro.sim.metrics.SimReport` for a :class:`SimUnit` — and
    returns False to stop early; spans for which ``skippable`` answers
    True are never started.  Pool workers run
    ``entry(specs[unit.cell_index], (start, stop))`` for a span and
    :meth:`SimUnit.run` for a simulation.  ``metrics`` gets the
    ``session.*`` retry, timeout, restart and unit-time counters,
    ``emit(kind, **fields)`` the matching narration.  Returns why
    execution degraded to serial, or ``None``.
    """

    def skip(unit: WorkUnit | SimUnit) -> bool:
        if isinstance(unit, WorkUnit) and skippable(unit):
            metrics.inc("session.chunks.skipped")
            return True
        return False

    def fail(unit: WorkUnit | SimUnit, attempt: int,
             exc: BaseException) -> None:
        """Count one failed attempt; backoff or give up."""
        if isinstance(unit, SimUnit):
            what = f"simulation of {unit.app} under " \
                f"{unit.protection.to_string()}"
            where = {"cell": unit.digest}
        else:
            what = f"chunk [{unit.start}, {unit.stop}) of cell " \
                f"#{unit.cell_index}"
            where = {"start": unit.start, "stop": unit.stop}
        if attempt > config.max_retries:
            raise SessionError(
                f"{what} failed after {attempt} attempt(s): {exc}"
            ) from exc
        metrics.inc("session.retries")
        emit("retry", attempt=attempt, detail=str(exc)[:200], **where)
        backoff = config.retry_backoff_s * (2 ** (attempt - 1))
        if backoff > 0:
            sleep(backoff)

    def run_pool() -> None:
        if config.start_method is not None:
            context = mp.get_context(config.start_method)
        else:
            methods = mp.get_all_start_methods()
            context = mp.get_context(
                "fork" if "fork" in methods else None)
        shipped = specs if specs is not None else [
            CampaignSpec.from_campaign(c) for c in campaigns]
        deadline = config.chunk_timeout_s
        tick = None if deadline is None else min(0.05, deadline / 4)
        completed: set[WorkUnit] = set()
        queue = deque(pending)
        attempts: dict[WorkUnit, int] = {}
        restarts = 0
        pool = _make_pool(context, config.jobs)
        if pool is None:
            raise _FallBackToSerial("could not create worker pool",
                                    completed)
        inflight: dict = {}
        abandoned: set = set()

        def retry(unit: WorkUnit, exc: BaseException) -> None:
            attempts[unit] = attempts.get(unit, 0) + 1
            fail(unit, attempts[unit], exc)

        try:
            while queue or inflight:
                while queue and len(inflight) < config.jobs:
                    unit = queue.popleft()
                    if skip(unit):
                        continue
                    try:
                        if isinstance(unit, SimUnit):
                            fut = pool.submit(unit.run)
                        else:
                            fut = pool.submit(
                                entry, shipped[unit.cell_index],
                                (unit.start, unit.stop))
                    except RuntimeError as exc:
                        raise _FallBackToSerial(
                            f"worker pool unusable ({exc})", completed
                        ) from exc
                    inflight[fut] = (unit, time.monotonic())
                done, _not_done = wait(set(inflight), timeout=tick,
                                       return_when=FIRST_COMPLETED)
                now = time.monotonic()
                for fut in done:
                    unit, begin = inflight.pop(fut)
                    if fut in abandoned:
                        abandoned.discard(fut)
                        continue
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        restarts += 1
                        # Every in-flight unit died with the pool.
                        dead = [unit] + [
                            u for f, (u, _) in inflight.items()
                            if f not in abandoned
                        ]
                        inflight.clear()
                        abandoned.clear()
                        pool.shutdown(wait=False, cancel_futures=True)
                        for u in dead:
                            retry(u, RuntimeError("worker pool died"))
                            queue.appendleft(u)
                        if restarts > _MAX_POOL_RESTARTS:
                            raise _FallBackToSerial(
                                "worker pool died repeatedly", completed
                            ) from None
                        metrics.inc("session.pool_restarts")
                        pool = _make_pool(context, config.jobs)
                        if pool is None:
                            raise _FallBackToSerial(
                                "could not restart worker pool",
                                completed,
                            ) from None
                        break
                    except Exception as exc:
                        retry(unit, exc)
                        queue.append(unit)
                    else:
                        metrics.observe(_unit_timer(unit),
                                        (now - begin) * 1e3)
                        completed.add(unit)
                        if not on_done(unit, result, "run"):
                            return
                else:
                    if deadline is None:
                        continue
                    # Expire chunk attempts that outran their deadline
                    # (the deadline is per chunk; simulations have none).
                    for fut, (unit, begin) in list(inflight.items()):
                        if fut in abandoned or now - begin < deadline \
                                or isinstance(unit, SimUnit):
                            continue
                        metrics.inc("session.timeouts")
                        emit("timeout", start=unit.start, stop=unit.stop,
                             attempt=attempts.get(unit, 0) + 1)
                        retry(unit, TimeoutError(
                            f"chunk exceeded {deadline:g}s deadline"))
                        if fut.cancel():
                            inflight.pop(fut, None)
                        else:
                            # Already running: let it finish into the
                            # void and redo the chunk elsewhere (runs
                            # are a pure function of (seed, run_index),
                            # so whichever attempt lands first is
                            # correct — the other is discarded).
                            abandoned.add(fut)
                        queue.append(unit)
        finally:
            pool.shutdown(wait=not abandoned, cancel_futures=True)

    pending = list(units)
    reason = None
    if config.jobs > 1:
        try:
            run_pool()
            return None
        except _FallBackToSerial as exc:
            reason = str(exc)
            metrics.inc("session.fallback_serial")
            emit("fallback", detail=reason)
            log.warning(f"degrading to serial execution ({reason})")
            pending = [u for u in pending if u not in exc.completed]
    for unit in pending:
        if skip(unit):
            continue
        attempt = 0
        while True:
            begin = time.perf_counter()
            try:
                if isinstance(unit, SimUnit):
                    result = unit.run()
                else:
                    result = campaigns[unit.cell_index].run_span(
                        unit.start, unit.stop)
                break
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                attempt += 1
                fail(unit, attempt, exc)
        metrics.observe(_unit_timer(unit),
                        (time.perf_counter() - begin) * 1e3)
        if not on_done(unit, result, "serial"):
            break
    return reason


class CampaignExecutor:
    """Runs one campaign's index space through the execution core.

    Reassembly is deterministic: chunk results commit in run-index
    order, so ``counts`` and (with ``keep_runs=True``) the ``runs``
    list are bit-identical to a serial execution no matter how the
    workers interleave.
    """

    def __init__(self, campaign: "Campaign", jobs: int | None = None):
        self.campaign = campaign
        self.jobs = campaign.jobs if jobs is None else int(jobs)
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        #: Worker processes actually used by the last :meth:`run`.
        self.used_jobs = 1
        #: Why the last :meth:`run` degraded to serial, if it did.
        self.fallback_reason: str | None = None

    def run(self) -> "CampaignResult":
        """Execute every run and aggregate, fanning out when jobs > 1.

        Chunk metric snapshots fold into the campaign's registry along
        with the executor's own observability: chunk count, wall time,
        worker utilization, and the parent's app-cache hit/miss tally.
        """
        wall_begin = time.perf_counter()
        result, _committer = self._execute(None)
        self._publish_metrics(
            result, (time.perf_counter() - wall_begin) * 1e3
        )
        return result

    def _execute(
        self, adaptive: "AdaptiveConfig | None"
    ) -> tuple["CampaignResult", _Committer]:
        """Plan, run and commit the campaign's units.

        Exhaustive campaigns chunk by ``jobs`` (a single span when
        serial without a progress sink); adaptive ones commit in
        ``check_every`` spans.  Returns the merged committed result
        and the committer holding the decision trail.
        """
        from repro.faults.campaign import CampaignResult

        campaign = self.campaign
        runs = campaign.config.runs
        jobs = min(self.jobs, runs)
        progress = campaign.progress
        if adaptive is not None:
            batch = _unit_batch(campaign.batch, adaptive)
            if batch != campaign.batch:
                # A copy carries the unit batch: the caller's campaign
                # keeps its own.
                campaign = copy.copy(campaign)
                campaign.batch = batch
            spans = plan_chunks(runs, 1, adaptive.check_every)
        elif jobs > 1 or progress is not None:
            spans = plan_chunks(runs, jobs, align=campaign.effective_batch)
        else:
            spans = [(0, runs)]
        units = [WorkUnit(0, start, stop) for start, stop in spans]
        committer = _Committer(units, adaptive)
        phase = "campaign" if adaptive is None else "adaptive"
        begin = time.perf_counter()

        def on_done(unit, result, _source) -> bool:
            committer.record(unit, result)
            decisions = committer.decisions[0]
            if progress is not None and (adaptive is None or decisions):
                progress(ProgressEvent(
                    phase=phase, done=committer.tallies[0][0],
                    total=runs, elapsed_s=time.perf_counter() - begin,
                    margin=(decisions[-1].interval.margin
                            if decisions else None),
                ))
            return True

        self.fallback_reason = _run_units(
            [campaign], units, on_done, SessionConfig(jobs=jobs),
            metrics=campaign.metrics, skippable=committer.skippable,
        )
        self.used_jobs = jobs if self.fallback_reason is None else 1
        return CampaignResult.merge(committer.parts[0]), committer

    def _publish_metrics(
        self, result: "CampaignResult", wall_ms: float
    ) -> None:
        """Fold chunk metrics plus executor stats into the campaign."""
        from repro.runtime.cache import cache_info

        metrics = self.campaign.metrics
        metrics.merge_snapshot(result.metrics_snapshot)
        metrics.inc("executor.chunks",
                     result.metrics_snapshot["histograms"]
                     .get("campaign.span_ms", {}).get("count", 0)
                     if result.metrics_snapshot else 0)
        metrics.counter("executor.used_jobs").set(self.used_jobs)
        metrics.observe("executor.wall_ms", wall_ms)
        busy_ms = 0.0
        if result.metrics_snapshot:
            busy_ms = result.metrics_snapshot["histograms"] \
                .get("campaign.span_ms", {}).get("total", 0.0)
        if wall_ms > 0 and self.used_jobs > 0:
            metrics.observe(
                "executor.worker_utilization_pct",
                100.0 * busy_ms / (wall_ms * self.used_jobs),
            )
        info = cache_info()
        metrics.counter("runtime.app_cache.entries").set(info["entries"])
        metrics.counter("runtime.app_cache.hits").set(info["hits"])
        metrics.counter("runtime.app_cache.misses").set(info["misses"])
