"""The one execution core: one driver, one worker pool, one stop rule.

Every evaluation — a campaign, an adaptive campaign, each cell of a
sweep or search round, each level of the tradeoff curve — executes as
:class:`WorkUnit` spans of one campaign's run indices, and every
timing simulation as a :class:`SimUnit` beside them.  Three pieces
drive them, and nothing else does:

* ``_Drive`` — the driver.  It takes built campaigns, their unit plan
  and any simulations; with a checkpoint store it loads finished
  units and persists new ones; it narrates session events and
  progress.  ``Campaign.run`` (so ``ReliabilityManager.evaluate`` and
  adaptive runs) and the tradeoff curve enter it through
  ``_run_campaigns``; sweeps and search rounds through
  :class:`~repro.runtime.session.Session`.
* ``_run_units`` — the pool loop.  With ``jobs=1`` units run
  in-process; otherwise they fan out over one
  :class:`concurrent.futures.ProcessPoolExecutor`, each span shipped
  as its campaign's picklable :class:`CampaignSpec` and each
  simulation as itself, with retries and backoff, chunk deadlines,
  bounded pool restarts and serial degradation.
* ``_Committer`` — the in-order per-cell committer.  Finished units
  fold into their cell's contiguous run-index prefix only, so tallies
  and decisions depend on the unit plan, never on completion order.
  For a cell whose campaign carries an
  :class:`~repro.faults.adaptive.AdaptiveConfig` it evaluates that
  stopping rule at every unit boundary; the first satisfied boundary
  stops the cell and its later units become skippable.

Every run derives solely from ``(campaign seed, run index)``, so the
committed results, records and decision trails are byte-identical at
any ``jobs``/``batch``.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.arch.config import GpuConfig
from repro.core.hardware import HardwareBudget
from repro.core.protection import ProtectionSpec
from repro.errors import (
    CheckpointError,
    ConfigError,
    ReproError,
    SessionError,
    SpecError,
)
from repro.faults.adaptive import AdaptiveResult, StopDecision, should_stop
from repro.faults.batch import DEFAULT_BATCH
from repro.faults.campaign import Campaign, CampaignResult
from repro.obs.log import get_logger
from repro.obs.progress import ProgressEvent
from repro.runtime.cache import app_cache_key, cache_info
from repro.runtime.checkpoint import wrap_payload_error
from repro.sim.metrics import SimReport
from repro.utils.canonical import canonical_digest
from repro.utils.stats import confidence_interval

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.adaptive import AdaptiveConfig
    from repro.kernels.base import GpuApplication
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.checkpoint import CheckpointStore

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
) -> list[tuple[int, int]]:
    """Split ``range(runs)`` into contiguous ``(start, stop)`` spans."""
    if runs <= 0:
        return []
    if chunk_size is None:
        chunk_size = max(1, math.ceil(runs / (max(1, jobs)
                                              * _CHUNKS_PER_WORKER)))
    if chunk_size < 1:
        raise ConfigError("chunk_size must be positive")
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
    batch: int = DEFAULT_BATCH
    #: Full typed protection (mixed per-object configurations only;
    #: ``None`` means ``scheme_name``/``protected_names`` say it all).
    protection: Any = None

    @classmethod
    def from_campaign(cls, campaign: "Campaign") -> "CampaignSpec":
        return cls(
            token=f"{id(campaign)}-{next(_TOKENS)}",
            app=campaign.app,
            selection=campaign.selection,
            scheme_name=campaign.scheme_name,
            protected_names=campaign.protected_names,
            config=campaign.config,
            keep_runs=campaign.keep_runs,
            collect_records=campaign.collect_records,
            collect_provenance=campaign.collect_provenance,
            batch=campaign.batch,
            protection=(
                campaign.protection if campaign.protection.is_mixed
                else None
            ),
        )


_TOKENS = count(1)

#: Worker-side cache: campaigns rebuilt from specs.
_WORKER_CAMPAIGNS: dict[str, "Campaign"] = {}

#: Test seam: when set, called as ``hook(spec_token, span)`` inside
#: every worker attempt before the chunk executes; raising simulates a
#: worker failure.  Inherited by forked workers.
_chaos_hook: Callable[[str, tuple[int, int]], None] | None = None


def _run_span_spec(
    spec: CampaignSpec, span: tuple[int, int]
) -> "CampaignResult":
    """Worker entry: rebuild-or-reuse the campaign, then run a span."""
    if _chaos_hook is not None:
        _chaos_hook(spec.token, span)
    campaign = _WORKER_CAMPAIGNS.get(spec.token)
    if campaign is None:
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
        )
        _WORKER_CAMPAIGNS[spec.token] = campaign
    start, stop = span
    return campaign.run_span(start, stop)


@dataclass(frozen=True)
class SimUnit:
    """One timing simulation, picklable and identified by content.

    A worker simulates ``app`` on its process's shared app context.  The
    :attr:`digest` keys the app by :func:`app_cache_key`, the identity
    campaign checkpoints use; its SimReport persists under it.
    """

    app: "GpuApplication"
    config: GpuConfig
    budget: HardwareBudget
    protection: ProtectionSpec

    @property
    def digest(self) -> str:
        """Content address of the simulation's inputs."""
        return canonical_digest({
            "app": app_cache_key(self.app),
            "config": asdict(self.config),
            "budget": asdict(self.budget),
            "protection": self.protection.digest(),
        })

    def run(self) -> "SimReport":
        """Simulate, on the memory and trace of the app context."""
        from repro.core.manager import ReliabilityManager

        manager = ReliabilityManager(self.app, config=self.config)
        manager.budget = self.budget
        return manager.simulate_performance("baseline", self.protection)


@dataclass(frozen=True)
class SessionConfig:
    """Execution knobs of the core (never part of any identity)."""

    jobs: int = 1
    #: Retries per chunk beyond the first attempt.  A ``ConfigError``
    #: is deterministic, so it is raised at once, never retried.
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

    def validate(self) -> None:
        """Reject out-of-range knobs with :class:`SpecError`."""
        for name, floor in (("jobs", 1),
                            ("max_retries", 0), ("retry_backoff_s", 0),
                            ("stop_after_chunks", 1)):
            value = getattr(self, name)
            if value is not None and value < floor:
                raise SpecError(f"session {name} must be >= {floor}")
        if self.chunk_timeout_s is not None and self.chunk_timeout_s <= 0:
            raise SpecError("session chunk_timeout_s must be positive")


@dataclass(frozen=True)
class WorkUnit:
    """One durable work unit: a span of one cell's run indices."""

    cell_index: int
    start: int
    stop: int


#: The wall-time histogram each kind of finished unit lands in.
_UNIT_TIMERS = {WorkUnit: "session.chunk_ms", SimUnit: "session.sim_ms"}


class _Committer:
    """In-order per-cell commit; the one place the stop rule runs."""

    def __init__(self, units: Sequence[WorkUnit],
                 rules: Sequence["AdaptiveConfig | None"]):
        #: cell -> its stopping rule (``None``: exhaustive).
        self.rules = rules
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
        #: Units folded so far (committed or waiting), loaded included.
        self.finished: set[WorkUnit] = set()

    def record(self, unit: WorkUnit, result: "CampaignResult") -> bool:
        """Fold one finished unit; False when it lies past a stop."""
        if self.skippable(unit):
            self.discarded += result.n_runs
            return False
        self.finished.add(unit)
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
            if self.rules[cell] is not None:
                self._decide(cell, head)
        return True

    def _decide(self, cell: int, head: WorkUnit) -> None:
        runs, sdc = self.tallies[cell]
        rule = self.rules[cell]
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
        """Wilson CI margin over the cell's committed prefix, at the
        stop rule's confidence level."""
        runs, sdc = self.tallies[cell]
        rule = self.rules[cell]
        level = 0.95 if rule is None else rule.level
        return confidence_interval(sdc, runs, level).margin if runs \
            else None


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
) -> str | None:
    """Execute ``units`` (spans of ``campaigns``, simulations) with
    retries.

    ``on_done(unit, result, source)`` receives every finished unit in
    completion order — a :class:`CampaignResult` for a span, a
    :class:`~repro.sim.metrics.SimReport` for a :class:`SimUnit` — and
    returns False to stop early; spans for which ``skippable`` answers
    True are never started.  Pool workers run ``_run_span_spec(spec,
    (start, stop))`` for a span (``spec`` is its campaign's
    :class:`CampaignSpec`) and :meth:`SimUnit.run` for a simulation.
    ``metrics`` gets the ``session.*`` retry, timeout, restart and
    unit-time counters, ``emit(kind, **fields)`` the matching
    narration.  Returns why execution degraded to serial, or ``None``.
    """

    def skip(unit: WorkUnit | SimUnit) -> bool:
        if isinstance(unit, WorkUnit) and skippable(unit):
            metrics.inc("session.chunks.skipped")
            return True
        return False

    def fail(unit: WorkUnit | SimUnit, attempt: int,
             exc: BaseException) -> None:
        """Count one failed attempt; backoff or give up.  A
        ``ConfigError`` fails every attempt alike: it is re-raised
        unwrapped at once."""
        if isinstance(exc, ConfigError):
            raise exc
        if isinstance(unit, SimUnit):
            what = f"simulation of {unit.app.name} under " \
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
        shipped = [CampaignSpec.from_campaign(c) for c in campaigns]
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
                                _run_span_spec, shipped[unit.cell_index],
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
                        metrics.observe(_UNIT_TIMERS[type(unit)],
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
        metrics.observe(_UNIT_TIMERS[type(unit)],
                        (time.perf_counter() - begin) * 1e3)
        if not on_done(unit, result, "serial"):
            break
    return reason


@dataclass
class _Drive:
    """The one driver: every evaluation runs through :meth:`run`.

    With a ``store`` it first loads finished chunks and reports of
    ``campaigns``/``sims`` and persists each new one; ``_run_units``
    executes the rest; the :class:`_Committer` folds chunks in
    run-index order under each campaign's own ``adaptive`` rule.
    ``emit`` narrates to a session log; ``progress`` gets one event
    per folded chunk, of phase ``sweep`` when ``labels`` name the
    cells, else ``adaptive`` or ``campaign``.  Execution ends early once
    ``config.stop_after_chunks`` chunks have executed.
    """

    campaigns: Sequence["Campaign"]
    units: Sequence[WorkUnit]
    config: SessionConfig
    metrics: "MetricsRegistry"
    sims: Sequence[SimUnit] = ()
    store: "CheckpointStore | None" = None
    labels: Sequence[str] | None = None
    progress: Callable[[ProgressEvent], None] | None = None
    emit: Callable[..., None] = lambda kind, **fields: None
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self):
        self.committer = _Committer(
            self.units, [c.adaptive for c in self.campaigns])
        #: Checkpoint key of each campaign.
        self.digests = [c.identity_digest() for c in self.campaigns]
        #: Timing reports by :attr:`SimUnit.digest`.
        self.reports: dict[str, SimReport] = {}
        #: Chunks executed (not loaded) so far.
        self.executed = 0
        #: Why execution degraded to serial, if it did.
        self.fallback_reason: str | None = None

    @property
    def used_jobs(self) -> int:
        """Worker processes the run used."""
        return self.config.jobs if self.fallback_reason is None else 1

    def run(self) -> "_Drive":
        """Load, execute, commit and persist every unit."""
        begin = time.perf_counter()
        committer, store, metrics = self.committer, self.store, self.metrics
        pending: list[WorkUnit] = []
        for unit in self.units:
            loaded = None if store is None else self._load_chunk(unit)
            if loaded is None:
                pending.append(unit)
            else:
                committer.record(unit, loaded)
        if len(pending) < len(self.units):
            log.info(f"sweep: resumed {len(self.units) - len(pending)} "
                     f"chunk(s) from {store.root}")
        #: digest -> simulation still to run.
        sims = {sim.digest: sim for sim in self.sims}
        for digest, sim in list(sims.items()):
            loaded = None if store is None else self._load_report(sim)
            if loaded is not None:
                self.reports[digest] = loaded
                del sims[digest]
        budget = self.config.stop_after_chunks
        total_runs = sum(u.stop - u.start for u in self.units)
        phase = "sweep" if self.labels else "adaptive" if any(
            c.adaptive is not None for c in self.campaigns) else "campaign"

        def on_done(unit: WorkUnit | SimUnit,
                    result: "CampaignResult | SimReport",
                    source: str) -> bool:
            """Fold and persist one finished unit; True to keep going."""
            if isinstance(unit, SimUnit):
                self.reports[unit.digest] = result
                if store is not None:
                    store.save_report(unit.digest, result.to_dict())
                metrics.inc("session.simulations.executed")
            elif not committer.record(unit, result):
                # Speculative chunk past the cell's stop boundary
                # (finished in flight while the stop settled):
                # discard so the committed result is jobs-invariant.
                metrics.inc("session.chunks.skipped")
            else:
                cell, digest = unit.cell_index, self.digests[unit.cell_index]
                if store is not None:
                    store.save_chunk(digest, unit.start, unit.stop,
                                     result.to_dict())
                self.emit("chunk", cell=digest, start=unit.start,
                          stop=unit.stop, source=source)
                metrics.inc("session.chunks.executed")
                self.executed += 1
                if self.progress is not None:
                    event = ProgressEvent(
                        phase=phase, total=total_runs,
                        done=sum(t[0] for t in committer.tallies.values()),
                        elapsed_s=time.perf_counter() - begin,
                        cell=self.labels[cell] if self.labels else "",
                        # Exhaustive campaigns report no margin.
                        margin=(committer.margin(cell)
                                if phase != "campaign" else None),
                    )
                    self.progress(event)
                    self.emit("progress", cell=digest, start=unit.start,
                              stop=unit.stop, detail=event.to_detail())
            return budget is None or self.executed < budget

        if pending or sims:
            # Simulations go first: they are the longest units.
            self.fallback_reason = _run_units(
                self.campaigns, [*sims.values(), *pending], on_done,
                self.config, metrics=metrics,
                skippable=committer.skippable, emit=self.emit,
                sleep=self.sleep,
            )
        return self

    def result(self, cell: int) -> "CampaignResult":
        """The cell's merged committed result.  Early-stopped cells
        commit fewer runs than planned, but exactly their required
        units' runs."""
        merged = CampaignResult.merge(self.committer.parts[cell])
        expected = sum(u.stop - u.start for u in self.units
                       if u.cell_index == cell
                       and not self.committer.skippable(u))
        if merged.n_runs != expected:
            label = self.labels[cell] if self.labels else self.digests[cell]
            raise SessionError(f"cell {label}: merged {merged.n_runs} "
                               f"run(s), planned {expected}")
        return merged

    def _load_chunk(self, unit: WorkUnit) -> "CampaignResult | None":
        digest = self.digests[unit.cell_index]
        payload = self.store.load_chunk(digest, unit.start, unit.stop)
        if payload is None:
            return None
        path = self.store.chunk_path(digest, unit.start, unit.stop)
        try:
            result = CampaignResult.from_dict(payload)
        except ReproError as exc:
            raise wrap_payload_error(path, exc) from None
        app = self.campaigns[unit.cell_index].app.name
        if result.app_name != app \
                or result.n_runs != unit.stop - unit.start:
            raise CheckpointError(
                f"{path}: chunk payload is for {result.app_name!r} "
                f"with {result.n_runs} run(s), expected "
                f"{app!r} with {unit.stop - unit.start}"
            )
        self.metrics.inc("session.chunks.resumed")
        self.emit("chunk", cell=digest, start=unit.start,
                  stop=unit.stop, source="checkpoint")
        return result

    def _load_report(self, sim: SimUnit) -> "SimReport | None":
        payload = self.store.load_report(sim.digest)
        if payload is None:
            return None
        path = self.store.report_path(sim.digest)
        try:
            report = SimReport.from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"{path}: bad report payload ({exc!r})") from None
        if report.app_name != sim.app.name:
            raise CheckpointError(
                f"{path}: report is for {report.app_name!r}, expected "
                f"{sim.app.name!r}"
            )
        self.metrics.inc("session.simulations.loaded")
        return report


def _run_campaigns(
    campaigns: Sequence["Campaign"],
    jobs: int,
    *,
    metrics: "MetricsRegistry",
    progress: Callable[[ProgressEvent], None] | None = None,
    sims: Sequence[SimUnit] = (),
) -> tuple[list["CampaignResult"], _Drive]:
    """Run whole campaigns, and ``sims`` beside them, in one drive.

    An exhaustive campaign plans ``plan_chunks(runs, jobs)`` — one
    ``(0, runs)`` span when it runs serially without a progress sink;
    one with an ``adaptive`` rule commits in ``check_every`` spans.
    Every span sweeps its campaign's ``batch`` lanes at a time.  Each
    campaign then publishes one metric set into its registry: its
    chunk snapshots, ``executor.*`` and ``runtime.app_cache.*``; under
    a rule its :class:`~repro.faults.adaptive.AdaptiveResult` lands in
    ``campaign.adaptive_result``.  ``metrics`` gets the drive's
    ``session.*`` counters.
    """
    wall_begin = time.perf_counter()
    jobs = min(jobs, max((c.config.runs for c in campaigns), default=jobs))
    units = []
    for cell, campaign in enumerate(campaigns):
        runs, rule = campaign.config.runs, campaign.adaptive
        if rule is not None:
            spans = plan_chunks(runs, 1, rule.check_every)
        elif jobs > 1 or progress is not None:
            spans = plan_chunks(runs, jobs)
        else:
            spans = [(0, runs)]
        units += [WorkUnit(cell, start, stop) for start, stop in spans]
    drive = _Drive(campaigns, units, SessionConfig(jobs=jobs),
                   metrics=metrics, sims=sims, progress=progress).run()
    wall_ms = (time.perf_counter() - wall_begin) * 1e3
    results = []
    for cell, campaign in enumerate(campaigns):
        result = drive.result(cell)
        results.append(result)
        registry = campaign.metrics
        snapshot = result.metrics_snapshot or {"histograms": {}}
        span_ms = snapshot["histograms"].get("campaign.span_ms", {})
        registry.merge_snapshot(result.metrics_snapshot)
        registry.inc("executor.chunks", span_ms.get("count", 0))
        registry.counter("executor.used_jobs").set(drive.used_jobs)
        registry.observe("executor.wall_ms", wall_ms)
        if wall_ms > 0:
            registry.observe(
                "executor.worker_utilization_pct",
                100.0 * span_ms.get("total", 0.0)
                / (wall_ms * drive.used_jobs),
            )
        for name, value in cache_info().items():
            registry.counter(f"runtime.app_cache.{name}").set(value)
        if campaign.adaptive is not None:
            campaign.adaptive_result = AdaptiveResult(
                result=result, config=campaign.adaptive,
                budget=campaign.config.runs,
                converged=cell in drive.committer.stopped,
                decisions=drive.committer.decisions[cell],
            )
    return results, drive
