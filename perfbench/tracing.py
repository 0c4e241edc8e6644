"""Spans for the benchmark's traced run.

The traced run wraps public functions of every layer in place: class
attributes and module globals are replaced by timing wrappers for the
traced pass and restored afterwards, so nothing in the program itself
changes.  Two kinds of wrapper share one call stack:

* a *span* wrapper (layer boundaries such as ``simulate_performance``,
  ``evaluate``, ``Session.run`` or checkpoint I/O) keeps one record per
  call in memory: name, start, end, parent span, run id, phase and
  process;
* a *counted* wrapper (per-cycle simulator calls and per-run campaign
  calls, millions per pass) keeps only a call count, total time and
  self time per name, so memory stays bounded.  Counts are exact; the
  wrapper's own cost inflates the times, so read them as shares.

Self time is a call's duration minus the durations of its direct
children.

Worker processes: Session and campaign pools fork their workers from
the traced parent, so the workers inherit the wrappers.  After a fork
the child starts with an empty stack and empty tallies.  Whenever a
top-level call in the child returns, the child appends its tallies and
spans to a spool file, and the parent folds every spool file in when
the pass ends.  Worker seconds run concurrently with the parent's
``runtime.session_run`` span, so they are kept apart from the parent's
wall-time shares.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: The program's layers (module names under ``repro``), plus ``bench``
#: for the benchmark's own code between layer calls.
LAYERS = ("kernels", "profiling", "core", "sim", "arch", "faults",
          "runtime", "search", "obs", "bench")

SPAN = "span"
COUNT = "count"


def _new_table():
    """name -> [calls, total_ns, self_ns]."""
    return defaultdict(lambda: [0, 0, 0])


class Recorder:
    """One traced pass's spans and per-name tallies."""

    def __init__(self, spool: Path, run_id: str):
        self.spool = Path(spool)
        self.run_id = run_id
        self.pid = os.getpid()
        self.worker = False
        self.active = False
        #: Frames of open calls: [children_ns, span_id].
        self.stack: list[list] = [[0, None]]
        #: phase -> tallies of this process.
        self.tables: dict[str, defaultdict] = {}
        self.spans: list[dict] = []
        #: (phase, SimReport) of every traced simulation.
        self.reports: list[tuple[str, object]] = []
        self.worker_tables: dict[str, defaultdict] = {}
        self.worker_spans: list[dict] = []
        self._ids = 0
        self._patches: list[tuple[object, str, object]] = []
        self.set_phase("main")
        os.register_at_fork(after_in_child=self._after_fork)

    def set_phase(self, phase: str) -> None:
        """Tally the following calls under ``phase``."""
        self.phase = phase
        self.table = self.tables.setdefault(phase, _new_table())

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _open(self) -> tuple[list, object]:
        parent = self.stack[-1][1]
        self._ids += 1
        frame = [0, f"{self.pid}.{self._ids}"]
        self.stack.append(frame)
        return frame, parent

    def _close(self, name: str, frame: list, parent, t0: int,
               t1: int) -> None:
        dt = t1 - t0
        stack = self.stack
        stack.pop()
        stack[-1][0] += dt
        acc = self.table[name]
        acc[0] += 1
        acc[1] += dt
        acc[2] += dt - frame[0]
        self.spans.append({
            "id": frame[1], "parent": parent, "name": name,
            "start_ns": t0, "end_ns": t1, "self_ns": dt - frame[0],
            "run": self.run_id, "phase": self.phase, "pid": self.pid,
        })
        if self.worker and len(stack) == 1:
            self._flush_worker()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, frame, parent, t0, time.perf_counter_ns())

    def spanned(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a recorded span."""
        rec = self
        perf = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent = rec._open()
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec._close(name, frame, parent, t0, perf())
                if on_result is not None and result is not None:
                    on_result(rec, result)

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped in a tally-only call (no span record)."""
        rec = self
        stack = self.stack
        perf = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0, stack[-1][1]]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stack[-1][0] += dt
                acc = rec.table[name]
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - frame[0]

        return wrapper

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self, targets) -> None:
        """Wrap every ``(owner, attribute, name, kind, on_result)``."""
        for owner, attr, name, kind, on_result in targets:
            original = vars(owner)[attr]
            if kind == COUNT:
                wrapped = self.counted(name, original)
            else:
                wrapped = self.spanned(name, original, on_result)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        self.active = True

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        if not self.active:
            return
        self.pid = os.getpid()
        self.worker = True
        self.stack[:] = [[0, None]]
        self.tables = {}
        self.spans = []
        self.reports = []
        self.set_phase(self.phase)

    def _flush_worker(self) -> None:
        doc = {
            "pid": self.pid,
            "tables": {phase: dict(table)
                       for phase, table in self.tables.items()},
            "spans": self.spans,
        }
        path = self.spool / f"worker-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
        self.tables = {}
        self.spans = []
        self.set_phase(self.phase)

    def collect_workers(self) -> None:
        """Fold every worker spool file into this (parent) recorder."""
        for path in sorted(self.spool.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    doc = json.loads(line)
                    for phase, table in doc["tables"].items():
                        mine = self.worker_tables.setdefault(
                            phase, _new_table())
                        for name, acc in table.items():
                            for i, value in enumerate(acc):
                                mine[name][i] += value
                    self.worker_spans.extend(doc["spans"])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _tables(self, phase: str | None, workers: bool):
        sources = [self.tables] + ([self.worker_tables] if workers else [])
        for source in sources:
            for table_phase, table in source.items():
                if phase is None or table_phase == phase:
                    yield table

    def calls(self, name: str, phase: str | None = None,
              workers: bool = True) -> int:
        """Calls of ``name`` (all phases unless one is named)."""
        return sum(t[name][0] for t in self._tables(phase, workers)
                   if name in t)

    def total_s(self, name: str, phase: str | None = None,
                workers: bool = True) -> float:
        """Seconds inside ``name``, children included."""
        return sum(t[name][1] for t in self._tables(phase, workers)
                   if name in t) / 1e9

    def self_s(self, name: str, phase: str | None = None,
               workers: bool = True) -> float:
        """Seconds inside ``name``, children excluded."""
        return sum(t[name][2] for t in self._tables(phase, workers)
                   if name in t) / 1e9

    def layer_self_s(self, workers: bool) -> dict[str, float]:
        """Self seconds per layer, of this process or of the workers."""
        out = {layer: 0.0 for layer in LAYERS}
        tables = self.worker_tables if workers else self.tables
        for table in tables.values():
            for name, acc in table.items():
                layer = name.split(".", 1)[0]
                out[layer if layer in out else "bench"] += acc[2] / 1e9
        return out

    def child_total_s(self, name: str, parent_name: str) -> float:
        """Seconds of ``name`` spans whose parent span is
        ``parent_name`` (this process)."""
        names = {s["id"]: s["name"] for s in self.spans}
        return sum(
            s["end_ns"] - s["start_ns"] for s in self.spans
            if s["name"] == name and names.get(s["parent"]) == parent_name
        ) / 1e9

    def write(self, path: Path) -> int:
        """Write every span, parent and workers, as JSON lines."""
        spans = self.spans + self.worker_spans
        origin = min((s["start_ns"] for s in spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(spans, key=lambda s: (s["start_ns"], s["id"])):
                doc = dict(s)
                doc["start_ns"] -= origin
                doc["end_ns"] -= origin
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
        return len(spans)


def _capture_report(rec: Recorder, report) -> None:
    rec.reports.append((rec.phase, report))


def _count_load_hit(rec: Recorder, _payload) -> None:
    """A checkpoint load that found its chunk (misses return None)."""
    rec.table["runtime.checkpoint.load_hit"][0] += 1


def targets() -> list[tuple]:
    """Every wrapped function: ``(owner, attribute, span name, kind,
    on_result)``.  Imported lazily: the program is importable only
    after the driver has put its sources on ``sys.path``."""
    from repro.arch.cache import Cache
    from repro.arch.dram import DramChannel
    from repro.arch.interconnect import Crossbar
    from repro.arch.mshr import MshrFile
    from repro.core import manager as core_manager
    from repro.core.manager import ReliabilityManager
    from repro.faults.campaign import Campaign
    from repro.kernels import registry
    from repro.kernels.base import GpuApplication
    from repro.obs.search import SearchTrailWriter
    from repro.profiling import access_profile
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.session import Session
    from repro.sim import simulator
    from repro.sim.ldst import LdstUnit
    from repro.sim.memory_subsystem import MemorySubsystem
    from repro.sim.sm import SmCore

    out = [
        (ReliabilityManager, "simulate_performance",
         "core.simulate_performance", SPAN, _capture_report),
        (ReliabilityManager, "evaluate", "core.evaluate", SPAN, None),
        (simulator, "simulate_trace", "sim.simulate_trace", SPAN, None),
        (SmCore, "step", "sim.sm.step", COUNT, None),
        (LdstUnit, "load", "sim.ldst.load", COUNT, None),
        (LdstUnit, "store", "sim.ldst.store", COUNT, None),
        (MemorySubsystem, "read", "sim.mem.read", COUNT, None),
        (MemorySubsystem, "write", "sim.mem.write", COUNT, None),
        (DramChannel, "access", "arch.dram", COUNT, None),
        (Campaign, "run_span", "faults.run_span", SPAN, None),
        (Campaign, "run_batch", "faults.run_batch", SPAN, None),
        (Campaign, "run_one", "faults.run_one", COUNT, None),
        (GpuApplication, "fresh_memory", "kernels.fresh_memory", SPAN,
         None),
        (GpuApplication, "golden_output", "kernels.golden_output", SPAN,
         None),
        (access_profile, "profile_trace", "profiling.profile_trace", SPAN,
         None),
        (core_manager, "profile_trace", "profiling.profile_trace", SPAN,
         None),
        (Session, "run", "runtime.session_run", SPAN, None),
        (CheckpointStore, "save_chunk", "runtime.checkpoint.save", SPAN,
         None),
        (CheckpointStore, "load_chunk", "runtime.checkpoint.load", SPAN,
         _count_load_hit),
        (SearchTrailWriter, "write_header", "obs.trail_write", SPAN, None),
        (SearchTrailWriter, "write_round", "obs.trail_write", SPAN, None),
    ]
    for attr in ("access", "lookup", "fill"):
        out.append((Cache, attr, "arch.cache", COUNT, None))
    for attr in ("probe", "add", "record_stall", "release"):
        out.append((MshrFile, attr, "arch.mshr", COUNT, None))
    for attr in ("send_request", "send_response"):
        out.append((Crossbar, attr, "arch.interconnect", COUNT, None))
    # Every application class that defines its own kernel entry points.
    apps = {GpuApplication}
    for table in (registry.APPLICATIONS, registry.FLAT_APPLICATIONS,
                  registry.EXTENDED_APPLICATIONS):
        for cls in table.values():
            apps.update(c for c in cls.__mro__
                        if issubclass(c, GpuApplication))
    for cls in sorted(apps, key=lambda c: (c.__module__, c.__qualname__)):
        for attr, name, kind in (
            ("build_trace", "kernels.build_trace", SPAN),
            ("execute", "kernels.execute", COUNT),
            ("execute_batch", "kernels.execute_batch", COUNT),
        ):
            if attr in vars(cls) and not getattr(
                    vars(cls)[attr], "__isabstractmethod__", False):
                out.append((cls, attr, name, kind, None))
    return out
