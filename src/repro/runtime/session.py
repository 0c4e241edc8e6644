"""Resumable, fault-tolerant sweep sessions.

A :class:`Session` evaluates an ordered tuple of
:class:`~repro.core.request.EvaluationRequest` s, one per cell (one
request is a one-cell session; a :class:`SweepSpec` yields the cross
product ``apps x schemes x protects`` over one base request).  It
builds each cell's campaign through the manager's one campaign
builder, plans the cells as jobs-independent chunks sized by each
request, and hands campaigns, plan and any timing
:class:`~repro.runtime.executor.SimUnit` s to the execution core's one
driver (:mod:`repro.runtime.executor`), which every campaign, adaptive
campaign and tradeoff curve also runs through.  With a
:class:`~repro.runtime.checkpoint.CheckpointStore`, each finished chunk
and timing report is persisted before the session moves on, so a
crash or ``SIGINT`` loses at most the units in flight, and
``resume=True`` runs only the remainder: results and telemetry are
byte-identical to an uninterrupted run at any ``jobs``, because the
plan depends only on the requests and every run derives from ``(seed,
run_index)``.  An optional :class:`~repro.obs.session.SessionLog`
narrates the orchestration.  ``Session(requests, store=…,
config=SessionConfig(jobs=…)).run(resume)`` is the one way to run a
sweep.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from math import ceil
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.protection import ProtectionSpec
from repro.core.request import EvaluationRequest
from repro.errors import SessionInterrupted, SpecError
from repro.faults.adaptive import AdaptiveConfig, StopDecision
from repro.faults.campaign import CampaignResult
from repro.kernels.registry import app_factory, create_app
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.session import SessionLog
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.executor import (
    SessionConfig,
    SimUnit,
    WorkUnit,
    _Drive,
    plan_chunks,
)
from repro.sim.metrics import SimReport
from repro.utils.canonical import canonical_digest

log = get_logger("session")

#: Default number of chunks a cell's runs are split into.  The plan
#: must not depend on ``jobs`` (that is what makes a checkpoint
#: resumable at any parallelism), so this replaces the executor's
#: per-worker heuristic.
DEFAULT_CHUNKS_PER_CELL = 16


# ----------------------------------------------------------------------
# Cells: one request each
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """A grid of requests: ``apps x schemes x protects`` over ``base``.

    Iterating yields one :class:`EvaluationRequest` per cell in
    deterministic (app-major) order, each the base request with that
    cell's app, scheme and protection; an axis left empty keeps the
    base request's value.  A typed protection fully determines the
    schemes, so it is one cell per app (under the first scheme), not
    one per scheme.  A :class:`Session` takes the iterable as its
    cell tuple.
    """

    base: EvaluationRequest
    apps: Sequence[str] = ()
    schemes: Sequence[str] = ()
    protects: Sequence[int | str | ProtectionSpec] = ()

    def __iter__(self) -> Iterator[EvaluationRequest]:
        base = self.base
        schemes = self.schemes or (base.scheme,)
        for app in self.apps or (base.app,):
            for scheme in schemes:
                for protect in self.protects or (base.protect,):
                    request = dataclasses.replace(
                        base, app=app, scheme=scheme, protect=protect)
                    if scheme == schemes[0] or request.protection is None:
                        yield request


def _chunk_runs(request: EvaluationRequest) -> int:
    """Runs per durable work unit of a request's cell (jobs-independent).

    Under a target margin the units are the stop rule's decision
    boundaries, so the default is the campaign-level
    ``AdaptiveConfig.check_every`` (64): a cell then stops where the
    same adaptive campaign does.
    """
    if request.chunk_runs is not None:
        return request.chunk_runs
    if request.target_margin is not None:
        return AdaptiveConfig.check_every
    return max(1, ceil(request.runs / DEFAULT_CHUNKS_PER_CELL))


def _cell_label(request: EvaluationRequest) -> str:
    """Human-readable cell label used in logs and progress events."""
    protection = request.protection
    if protection is not None:
        return f"{request.app}~spec~{protection.to_string()}"
    return f"{request.app}~{request.scheme}~{request.protect}"


# ----------------------------------------------------------------------
# Session results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepEntry:
    """One cell's merged result inside a :class:`SweepResult`."""

    #: The cell's request.
    cell: EvaluationRequest
    digest: str
    result: CampaignResult
    #: The cell's stop-decision trail (empty without a target margin).
    decisions: tuple[StopDecision, ...] = ()


@dataclass
class SweepResult:
    """Merged results of a completed session, in cell order."""

    #: The session's identity document (:meth:`Session.identity`).
    spec: dict
    entries: list[SweepEntry] = field(default_factory=list)
    #: The session's timing reports, by :attr:`SimUnit.digest`.
    reports: dict[str, SimReport] = field(default_factory=dict)

    @property
    def results(self) -> list[CampaignResult]:
        return [entry.result for entry in self.entries]

    def result_for(
        self, app: str, scheme: str,
        protect: int | str | ProtectionSpec,
    ) -> CampaignResult:
        """Look up one cell's merged result; :class:`SpecError` if absent."""
        for entry in self.entries:
            cell = entry.cell
            if (cell.app, cell.scheme, cell.protect) == \
                    (app, scheme, protect):
                return entry.result
        raise SpecError(
            f"no sweep cell ({app!r}, {scheme!r}, {protect!r})"
        )

    def to_dict(self) -> dict:
        """Deterministic JSON image (excludes wall-clock metrics)."""
        return {
            "spec": self.spec,
            "cells": [
                {
                    "cell": entry.cell.to_dict(),
                    "digest": entry.digest,
                    "result": entry.result.to_dict(),
                }
                for entry in self.entries
            ],
        }

    def write_telemetry(self, path: str) -> int:
        """Write every cell's run records, in cell order, as JSONL.

        Byte-identical for any ``jobs`` and across interrupt/resume.
        """
        from repro.obs.records import TelemetryWriter

        with TelemetryWriter(path) as writer:
            for entry in self.entries:
                writer.write_result(entry.result)
        return writer.n_written


# ----------------------------------------------------------------------
# The session itself
# ----------------------------------------------------------------------
class Session:
    """Plans, executes, checkpoints and resumes one tuple of requests.

    ``requests`` is one :class:`EvaluationRequest` (a one-cell
    session) or an iterable of them, such as a :class:`SweepSpec`;
    each cell's campaign, batch, chunk size and stop rule come from
    its own request.  Without a ``config`` the session runs at the
    largest ``jobs`` its requests ask for, and without sinks it uses
    the first request's ``metrics``/``progress``.  ``store`` may be a
    :class:`CheckpointStore`, a directory path, or ``None`` (no
    durability — useful for quick in-memory sweeps and for measuring
    checkpoint overhead).  ``sims`` are timing simulations to run
    beside the chunks; their reports land in
    :attr:`SweepResult.reports`.  ``sleep`` is the backoff clock,
    injectable for tests.
    """

    def __init__(
        self,
        requests: EvaluationRequest | Iterable[EvaluationRequest],
        store: CheckpointStore | str | None = None,
        config: SessionConfig | None = None,
        metrics: MetricsRegistry | None = None,
        events: SessionLog | None = None,
        progress=None,
        sleep: Callable[[float], None] = time.sleep,
        sims: Sequence[SimUnit] = (),
    ):
        if isinstance(requests, EvaluationRequest):
            requests = (requests,)
        self.requests = tuple(requests)
        if not self.requests:
            raise SpecError("a session's requests must not be empty")
        seen: set[str] = set()
        for request in self.requests:
            app_factory(request.app)  # unknown names fail before a run
            if request.collect_provenance:
                raise SpecError(
                    "collect_provenance is not supported by sweep "
                    "sessions; evaluate the request through "
                    "ReliabilityManager.evaluate instead"
                )
            # Equal identities would share checkpoint keys.
            digest = request.digest()
            if digest in seen:
                raise SpecError(
                    f"duplicate sweep cell {_cell_label(request)}")
            seen.add(digest)
        first = self.requests[0]
        if isinstance(store, (str,)) or hasattr(store, "__fspath__"):
            store = CheckpointStore(store)
        self.store = store
        self.config = config or SessionConfig(
            jobs=max(request.jobs for request in self.requests))
        self.config.validate()
        if metrics is None:
            metrics = first.metrics
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events
        #: Live-progress sink (one
        #: :class:`~repro.obs.progress.ProgressEvent` per committed
        #: chunk, mirrored into the session log when one is attached).
        #: Observational only; ``None`` (default) costs nothing.
        self.progress = progress if progress is not None else first.progress
        self._sleep = sleep
        self.sims = tuple(sims)

    def identity(self) -> dict:
        """Canonical identity document (the checkpoint manifest body):
        each cell's request identity with its resolved ``chunk_runs``,
        so a checkpoint directory can never be resumed under a
        different chunking."""
        return {"cells": [
            dict(request.to_dict(), chunk_runs=_chunk_runs(request))
            for request in self.requests]}

    def digest(self) -> str:
        """SHA-256 content address of :meth:`identity`."""
        return canonical_digest(self.identity())

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self) -> list[WorkUnit]:
        """Every work unit of the session, in deterministic order."""
        return [
            WorkUnit(cell_index, start, stop)
            for cell_index, request in enumerate(self.requests)
            for start, stop in plan_chunks(
                request.runs, jobs=1, chunk_size=_chunk_runs(request))
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> SweepResult:
        """Execute every cell to completion (or durable interruption).

        Raises :class:`~repro.errors.SessionInterrupted` when stopped
        early (``SIGINT`` or the ``stop_after_chunks`` budget) with
        all completed chunks checkpointed, and
        :class:`~repro.errors.SessionError` when a chunk exhausts its
        retry budget.
        """
        from repro.core.manager import ReliabilityManager

        wall_begin = time.perf_counter()
        requests = self.requests
        log.info(f"sweep: {len(requests)} cell(s), building campaigns")
        campaigns = [
            ReliabilityManager(create_app(
                request.app, scale=request.scale, seed=request.app_seed))
            ._campaign(request)
            for request in requests
        ]
        if self.store is not None:
            self.store.initialize(self.identity(), resume=resume)

        units = self.plan()
        self.metrics.counter("session.cells").set(len(requests))
        self.metrics.counter("session.chunks.planned").set(len(units))
        self._emit("plan", detail=f"{len(requests)} cells, "
                                  f"{len(units)} chunks")
        drive = _Drive(
            campaigns, units, self.config, metrics=self.metrics,
            sims=self.sims, store=self.store,
            labels=[_cell_label(request) for request in requests],
            progress=self.progress, emit=self._emit, sleep=self._sleep,
        )
        committer = drive.committer
        try:
            drive.run()
        except KeyboardInterrupt:
            self._emit("interrupted",
                       detail=f"SIGINT after {drive.executed} chunk(s)")
            raise SessionInterrupted(len(committer.finished), len(units),
                                     reason="interrupted") from None
        required = [u for u in units if not committer.skippable(u)]
        done = sum(1 for unit in required if unit in committer.finished)
        if done < len(required) or any(
                sim.digest not in drive.reports for sim in self.sims):
            budget = self.config.stop_after_chunks
            self._emit("interrupted",
                       detail=f"chunk budget ({budget}) reached")
            raise SessionInterrupted(done, len(required),
                                     reason="stopped (chunk budget)")
        skipped = len(units) - len(required)
        if skipped:
            self._emit("early_stop",
                       detail=f"{skipped} chunk(s) past their cell's "
                              "target-margin stop")

        sweep = SweepResult(spec=self.identity(), reports=drive.reports)
        sweep.entries = [
            SweepEntry(cell=request, digest=drive.digests[index],
                       result=drive.result(index),
                       decisions=tuple(committer.decisions[index]))
            for index, request in enumerate(requests)
        ]
        self.metrics.observe(
            "session.wall_ms", (time.perf_counter() - wall_begin) * 1e3
        )
        self._emit("finish", detail=f"{len(units)} chunks")
        return sweep

    # -- plumbing -------------------------------------------------------
    def _emit(self, kind: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)
