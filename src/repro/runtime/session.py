"""Resumable, fault-tolerant sweep sessions.

A :class:`SweepSpec` declares a grid of fault-injection campaign cells
— (application, scheme, protection level) × one shared fault
configuration.  A :class:`Session` builds each cell's campaign through
the manager's campaign builder, plans the cells as jobs-independent
chunks, and hands campaigns, plan and any timing
:class:`~repro.runtime.executor.SimUnit` s to the execution core's one
driver (:mod:`repro.runtime.executor`), which every campaign, adaptive
campaign and tradeoff curve also runs through.  With a
:class:`~repro.runtime.checkpoint.CheckpointStore`, each finished chunk
and timing report is persisted before the session moves on, so a
crash or ``SIGINT`` loses at most the units in flight, and
``resume=True`` runs only the remainder: results and telemetry are
byte-identical to an uninterrupted run at any ``jobs``, because the
plan depends only on the spec and every run derives from ``(seed,
run_index)``.  An optional :class:`~repro.obs.session.SessionLog`
narrates the orchestration.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from math import ceil
from typing import Callable, Sequence

from repro import _compat
from repro.core.protection import ProtectionSpec
from repro.core.request import EvaluationRequest
from repro.core.schemes import SCHEME_NAMES
from repro.errors import SessionInterrupted, SpecError, UnknownSchemeError
from repro.faults.adaptive import AdaptiveConfig, StopDecision
from repro.faults.campaign import Campaign, CampaignResult
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.session import SessionLog
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.executor import (
    CampaignSpec,
    SessionConfig,
    SimUnit,
    WorkUnit,
    _Drive,
    _run_span_spec,
    _unit_batch,
    context_manager,
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

#: Test seam: when set, called as ``hook(spec_token, span)`` inside
#: every worker attempt before the chunk executes; raising simulates a
#: worker failure.  Inherited by forked workers.
_chaos_hook: Callable[[str, tuple[int, int]], None] | None = None


def _run_session_span(spec: CampaignSpec, span) -> CampaignResult:
    """Worker entry: optionally misbehave (tests), then run the span."""
    if _chaos_hook is not None:
        _chaos_hook(spec.token, span)
    return _run_span_spec(spec, span)


# ----------------------------------------------------------------------
# Declarative sweep grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One (app, scheme, protect) cell of a sweep grid.

    ``protect`` is usually the int/str shorthand, but a cell may carry
    a full :class:`~repro.core.protection.ProtectionSpec` instead
    (scheme ``"spec"``) — that is how the design-space search drives
    arbitrary per-object configurations through the session machinery.
    """

    app: str
    scheme: str
    protect: int | str | ProtectionSpec
    selection: str
    runs: int
    n_blocks: int
    n_bits: int
    seed: int
    scale: str = "default"
    app_seed: int = 1234
    secded: bool = False
    keep_runs: bool = False
    collect_records: bool = True

    @property
    def key(self) -> str:
        """Human-readable cell label used in logs and summaries."""
        if isinstance(self.protect, ProtectionSpec):
            return f"{self.app}~{self.scheme}~{self.protect.to_string()}"
        return f"{self.app}~{self.scheme}~{self.protect}"

    def to_dict(self) -> dict:
        """Identity-complete dict image of this cell."""
        doc = dataclasses.asdict(self)
        if isinstance(self.protect, ProtectionSpec):
            # asdict mangles the nested dataclass into raw tuples;
            # use the spec's canonical image instead.
            doc["protect"] = self.protect.to_dict()
        return doc

    def build_campaign(
        self,
        metrics: MetricsRegistry | None = None,
        batch: int = 1,
    ) -> Campaign:
        """Materialize this cell's campaign through the manager's
        builder.  ``batch`` is an execution knob: results are
        identical to ``batch=1``, so it never joins the cell or sweep
        identity."""
        request = EvaluationRequest(
            **{f.name: getattr(self, f.name)
               for f in dataclasses.fields(self)},
            batch=batch,
        )
        manager = context_manager(self.app, self.scale, self.app_seed)
        return manager._request_campaign(request, metrics=metrics)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of campaign cells.

    The grid is the cross product ``apps x schemes x protects`` under
    one shared fault configuration; :meth:`cells` enumerates it in
    deterministic order.  ``chunk_runs`` fixes how many runs one
    durable work unit covers (default: the cell's runs split into
    :data:`DEFAULT_CHUNKS_PER_CELL` chunks, or 64 runs under a target
    margin) — it is part of the sweep identity, so a checkpoint
    directory can never be resumed under a different chunking.
    """

    apps: tuple[str, ...]
    schemes: tuple[str, ...] = ("correction",)
    protects: tuple[int | str | ProtectionSpec, ...] = ("hot",)
    runs: int = 200
    n_blocks: int = 1
    n_bits: int = 2
    seed: int = 20210621
    selection: str = "access-weighted"
    scale: str = "default"
    app_seed: int = 1234
    secded: bool = False
    keep_runs: bool = False
    collect_records: bool = True
    chunk_runs: int | None = None
    #: CI-driven early stopping: when set, each cell stops at the
    #: first chunk boundary where the Wilson interval on its SDC rate
    #: reaches this margin (see :mod:`repro.faults.adaptive`); the
    #: remaining planned chunks of that cell are skipped.  Chunk
    #: boundaries are jobs-independent, so the committed sweep result
    #: stays byte-identical at any parallelism, and with the default
    #: ``chunk_runs`` it equals the same adaptive campaign's.
    target_margin: float | None = None

    def __post_init__(self):
        for name in ("apps", "schemes", "protects"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
            if not getattr(self, name):
                raise SpecError(f"sweep {name} must not be empty")
        self._validate()

    def _validate(self) -> None:
        from repro.kernels.registry import (
            APPLICATIONS,
            EXTENDED_APPLICATIONS,
            FLAT_APPLICATIONS,
        )
        from repro.errors import UnknownAppError

        known_apps = (set(APPLICATIONS) | set(FLAT_APPLICATIONS)
                      | set(EXTENDED_APPLICATIONS))
        for app in self.apps:
            if app not in known_apps:
                raise UnknownAppError(app, sorted(known_apps))
        n_typed = sum(
            isinstance(p, ProtectionSpec) for p in self.protects
        )
        if "spec" in self.schemes:
            # The sentinel scheme for fully typed grids: every protect
            # is a ProtectionSpec that determines its own scheme(s).
            if self.schemes != ("spec",):
                raise SpecError(
                    "scheme 'spec' cannot be combined with named "
                    "schemes"
                )
            if n_typed != len(self.protects):
                raise SpecError(
                    "scheme 'spec' requires every protect to be a "
                    "ProtectionSpec"
                )
        elif n_typed:
            raise SpecError(
                "ProtectionSpec protects require schemes=('spec',)"
            )
        for scheme in self.schemes:
            if scheme == "spec":
                continue
            if scheme not in SCHEME_NAMES:
                raise UnknownSchemeError(scheme, SCHEME_NAMES)
        for protect in self.protects:
            if isinstance(protect, ProtectionSpec):
                continue
            if isinstance(protect, bool) or not isinstance(
                    protect, (int, str)):
                raise SpecError(
                    f"protect level {protect!r} must be an int or one "
                    "of 'none'/'hot'/'all'"
                )
            if isinstance(protect, str) \
                    and protect not in ("none", "hot", "all"):
                raise SpecError(
                    f"protect level {protect!r} not in "
                    "('none', 'hot', 'all')"
                )
        if self.runs <= 0:
            raise SpecError("sweep runs must be positive")
        if self.chunk_runs is not None and self.chunk_runs <= 0:
            raise SpecError("chunk_runs must be positive")
        if self.target_margin is not None \
                and not 0.0 < self.target_margin < 1.0:
            raise SpecError("target_margin must be in (0, 1)")
        if self.scale not in ("default", "small"):
            raise SpecError(f"unknown scale {self.scale!r} "
                            "(default|small)")
        seen: set[tuple] = set()
        for cell in self._raw_cells():
            if cell in seen:
                raise SpecError(f"duplicate sweep cell {cell}")
            seen.add(cell)

    def _raw_cells(self):
        for app in self.apps:
            for scheme in self.schemes:
                for protect in self.protects:
                    yield (app, scheme, protect)

    def resolved_chunk_runs(self) -> int:
        """Runs per durable work unit (jobs-independent).

        Under a target margin the units are the stop rule's decision
        boundaries, so the default is the campaign-level
        ``AdaptiveConfig.check_every`` (64): a cell then stops where
        the same adaptive campaign does.
        """
        if self.chunk_runs is not None:
            return self.chunk_runs
        if self.target_margin is not None:
            return AdaptiveConfig.check_every
        return max(1, ceil(self.runs / DEFAULT_CHUNKS_PER_CELL))

    def cells(self) -> tuple[CellSpec, ...]:
        """The grid's cells in deterministic (spec) order."""
        return tuple(
            CellSpec(
                app=app, scheme=scheme, protect=protect,
                selection=self.selection, runs=self.runs,
                n_blocks=self.n_blocks, n_bits=self.n_bits,
                seed=self.seed, scale=self.scale,
                app_seed=self.app_seed, secded=self.secded,
                keep_runs=self.keep_runs,
                collect_records=self.collect_records,
            )
            for app, scheme, protect in self._raw_cells()
        )

    def to_dict(self) -> dict:
        """Canonical identity document (the checkpoint manifest body).

        ``target_margin`` joins the document only when set, so every
        pre-existing (exhaustive) sweep keeps its checkpoint digest.
        """
        doc = {
            "apps": list(self.apps),
            "schemes": list(self.schemes),
            "protects": [
                p.to_dict() if isinstance(p, ProtectionSpec) else p
                for p in self.protects
            ],
            "runs": self.runs,
            "n_blocks": self.n_blocks,
            "n_bits": self.n_bits,
            "seed": self.seed,
            "selection": self.selection,
            "scale": self.scale,
            "app_seed": self.app_seed,
            "secded": self.secded,
            "keep_runs": self.keep_runs,
            "collect_records": self.collect_records,
            "chunk_runs": self.resolved_chunk_runs(),
        }
        if self.target_margin is not None:
            doc["target_margin"] = self.target_margin
        return doc

    @classmethod
    def from_request(cls, request: EvaluationRequest) -> "SweepSpec":
        """The one-cell sweep an :class:`EvaluationRequest` describes.

        A typed protection (spec value or explicit ``"obj=scheme"``
        string) becomes a ``("spec",)`` grid; the shorthand spellings
        keep their named-scheme cell so existing checkpoint digests
        are unaffected.  Provenance collection is campaign-only, so a
        request asking for it is rejected here — use
        :meth:`repro.core.manager.ReliabilityManager.evaluate`.
        """
        if request.collect_provenance:
            raise SpecError(
                "collect_provenance is not supported by sweep "
                "sessions; evaluate the request through "
                "ReliabilityManager.evaluate instead"
            )
        protection = request.protection
        if protection is not None:
            schemes: tuple[str, ...] = ("spec",)
            protect: int | str | ProtectionSpec = protection
        else:
            schemes = (request.scheme,)
            protect = request.protect
        return cls(
            apps=(request.app,),
            schemes=schemes,
            protects=(protect,),
            runs=request.runs,
            n_blocks=request.n_blocks,
            n_bits=request.n_bits,
            seed=request.seed,
            selection=request.selection,
            scale=request.scale,
            app_seed=request.app_seed,
            secded=request.secded,
            keep_runs=request.keep_runs,
            collect_records=request.collect_records,
            chunk_runs=request.chunk_runs,
            target_margin=request.target_margin,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise SpecError("sweep spec must be an object")
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise SpecError(f"sweep spec has unknown keys {sorted(extra)}")
        kwargs = dict(data)
        for name in ("apps", "schemes", "protects"):
            if name in kwargs:
                if not isinstance(kwargs[name], (list, tuple)):
                    raise SpecError(f"sweep {name} must be a list")
                kwargs[name] = tuple(kwargs[name])
        if "protects" in kwargs:
            # Dict entries are serialized ProtectionSpec images (the
            # int/str shorthands serialize as themselves).
            kwargs["protects"] = tuple(
                ProtectionSpec.from_dict(p) if isinstance(p, dict)
                else p
                for p in kwargs["protects"]
            )
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise SpecError(f"bad sweep spec: {exc}") from None

    def digest(self) -> str:
        """SHA-256 content address of the sweep's identity document."""
        return canonical_digest(self.to_dict())


# ----------------------------------------------------------------------
# Session results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepEntry:
    """One cell's merged result inside a :class:`SweepResult`."""

    cell: CellSpec
    digest: str
    result: CampaignResult
    #: The cell's stop-decision trail (empty without a target margin).
    decisions: tuple[StopDecision, ...] = ()


@dataclass
class SweepResult:
    """Merged results of a completed sweep, in cell order."""

    spec: SweepSpec
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
            "spec": self.spec.to_dict(),
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
    """Plans, executes, checkpoints and resumes one sweep.

    ``store`` may be a :class:`CheckpointStore`, a directory path, or
    ``None`` (no durability — useful for quick in-memory sweeps and
    for measuring checkpoint overhead).  ``sims`` are timing
    simulations to run beside the chunks; their reports land in
    :attr:`SweepResult.reports`.  ``sleep`` is the backoff clock,
    injectable for tests.
    """

    def __init__(
        self,
        spec: SweepSpec | EvaluationRequest,
        store: CheckpointStore | str | None = None,
        config: SessionConfig | None = None,
        metrics: MetricsRegistry | None = None,
        events: SessionLog | None = None,
        progress=None,
        sleep: Callable[[float], None] = time.sleep,
        sims: Sequence[SimUnit] = (),
    ):
        if isinstance(spec, EvaluationRequest):
            # The unified request surface: its identity fields become
            # a one-cell sweep, its execution knobs the session
            # config (unless an explicit config overrides them), and
            # its sinks the session's when none were passed.
            if config is None:
                config = spec.session_config()
            if progress is None:
                progress = spec.progress
            if metrics is None and spec.metrics is not None:
                metrics = spec.metrics
            spec = SweepSpec.from_request(spec)
        self.spec = spec
        if isinstance(store, (str,)) or hasattr(store, "__fspath__"):
            store = CheckpointStore(store)
        self.store = store
        self.config = config or SessionConfig()
        self.config.validate()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events
        #: Live-progress sink (one
        #: :class:`~repro.obs.progress.ProgressEvent` per committed
        #: chunk, mirrored into the session log when one is attached).
        #: Observational only; ``None`` (default) costs nothing.
        self.progress = progress
        self._sleep = sleep
        self.sims = tuple(sims)
        #: Why the session degraded to serial execution, if it did.
        self.fallback_reason: str | None = None

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self) -> list[WorkUnit]:
        """Every work unit of the sweep, in deterministic order."""
        chunk_runs = self.spec.resolved_chunk_runs()
        units: list[WorkUnit] = []
        for cell_index, cell in enumerate(self.spec.cells()):
            for start, stop in plan_chunks(cell.runs, jobs=1,
                                           chunk_size=chunk_runs):
                units.append(WorkUnit(cell_index, start, stop))
        return units

    def _adaptive(self) -> AdaptiveConfig | None:
        """The stopping rule every cell commits under, if any."""
        if self.spec.target_margin is None:
            return None
        return AdaptiveConfig(target_margin=self.spec.target_margin,
                              check_every=self.spec.resolved_chunk_runs())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> SweepResult:
        """Execute the sweep to completion (or durable interruption).

        Raises :class:`~repro.errors.SessionInterrupted` when stopped
        early (``SIGINT`` or the ``stop_after_chunks`` budget) with
        all completed chunks checkpointed, and
        :class:`~repro.errors.SessionError` when a chunk exhausts its
        retry budget.
        """
        wall_begin = time.perf_counter()
        cells = self.spec.cells()
        adaptive = self._adaptive()
        log.info(f"sweep: {len(cells)} cell(s), building campaigns")
        campaigns = [
            cell.build_campaign(
                batch=_unit_batch(self.config.batch, adaptive))
            for cell in cells
        ]
        if self.store is not None:
            self.store.initialize(self.spec.to_dict(), resume=resume)

        units = self.plan()
        self.metrics.counter("session.cells").set(len(cells))
        self.metrics.counter("session.chunks.planned").set(len(units))
        self._emit("plan", detail=f"{len(cells)} cells, "
                                  f"{len(units)} chunks")
        drive = _Drive(
            campaigns, units, self.config, metrics=self.metrics,
            rule=adaptive, sims=self.sims, store=self.store,
            labels=[cell.key for cell in cells], progress=self.progress,
            emit=self._emit, sleep=self._sleep, entry=_run_session_span,
        )
        committer = drive.committer
        try:
            drive.run()
        except KeyboardInterrupt:
            self._emit("interrupted",
                       detail=f"SIGINT after {drive.executed} chunk(s)")
            raise SessionInterrupted(len(committer.finished), len(units),
                                     reason="interrupted") from None
        self.fallback_reason = drive.fallback_reason
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
                       detail=f"{skipped} chunk(s) under target margin "
                              f"{self.spec.target_margin:g}")

        sweep = SweepResult(spec=self.spec, reports=drive.reports)
        sweep.entries = [
            SweepEntry(cell=cell, digest=drive.digests[index],
                       result=drive.result(index),
                       decisions=tuple(committer.decisions[index]))
            for index, cell in enumerate(cells)
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


def run_sweep(
    spec: SweepSpec,
    store: CheckpointStore | str | None = None,
    resume: bool = False,
    jobs: int = 1,
    progress=None,
    checkpoint_dir=_compat.UNSET,
    **config_kwargs,
) -> SweepResult:
    """One-call convenience wrapper around :class:`Session`.

    ``store`` names the durability root (a
    :class:`~repro.runtime.checkpoint.CheckpointStore` or a directory
    path), matching the :class:`Session` constructor; the old
    ``checkpoint_dir`` spelling keeps working with a one-time
    :class:`DeprecationWarning`.
    """
    if checkpoint_dir is not _compat.UNSET:
        store = _compat.resolve_renamed(
            "run_sweep", "checkpoint_dir", "store",
            checkpoint_dir, _compat.UNSET if store is None else store,
        )
    session = Session(
        spec,
        store=store,
        config=SessionConfig(jobs=jobs, **config_kwargs),
        progress=progress,
    )
    return session.run(resume=resume)
