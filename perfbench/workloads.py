"""The benchmark's three workloads.

Every workload is a closed loop with one caller: each call waits for
the previous one, and no more than two worker processes run (``jobs=2``
on dse-optimize, ``jobs=1`` elsewhere).  One *pass* is a set-up
followed by the workload's fixed work; the driver repeats passes for
the run's measuring time.  Each set-up starts with ``clear_app_cache()``,
and every simulation builds a fresh modelled hierarchy, so its L1, L2
and DRAM state starts empty.

* ``fig7-timing``: the Fig 7 timing simulations.  P-BICG at default
  scale under baseline/none, detection/hot, correction/hot and
  correction/all, plus C-NN baseline/none.  P-BICG is memory-bound
  (IPC about 0.4; stalled warps re-poll the LD/ST unit), C-NN is
  issue-bound (IPC about 9).  The simulator is deterministic and its
  inputs do not depend on the seed.
* ``fig9-campaigns``: Fig 9 fault-injection campaigns on the batched
  engine (``batch=64``, ``jobs=1``), sized so that each application
  takes a comparable share of the pass: P-BICG (mostly analytic lane
  classification), A-Laplacian (crash-heavy) and C-NN (mostly executed
  lanes).  It bypasses the simulator and the scalar fallback.
* ``dse-optimize``: one greedy protection search on P-BICG with a
  checkpoint store and a trail in a fresh temporary directory
  (``jobs=2``, ``batch=64``), then a resume of the finished search from
  that store.  Most candidates are mixed per-object specs, which run on
  the scalar ``run_one`` path.  The search runs at small scale: at
  default scale its seven timing simulations per search would make one
  pass take about 50 s.

The seed picks the campaign seed (``CAMPAIGN_SEED_BASE + seed``) and
the search seed (``SEARCH_SEED_BASE + seed``); seed 0 gives the
program's own defaults.

Timed operations are reported in *reference seconds* (see
:func:`timed`), which cancel the speed drift of a shared host.
"""

from __future__ import annotations

import hashlib
import heapq
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.manager import ReliabilityManager
from repro.kernels.registry import create_app
from repro.obs.metrics import MetricsRegistry
from repro.profiling import access_profile
from repro.runtime import app_context, clear_app_cache
from repro.search import optimize

CAMPAIGN_SEED_BASE = 20210621
SEARCH_SEED_BASE = 1

#: (application, scheme, protect) of every Fig 7 simulation.
FIG7_CONFIGS = (
    ("P-BICG", "baseline", "none"),
    ("P-BICG", "detection", "hot"),
    ("P-BICG", "correction", "hot"),
    ("P-BICG", "correction", "all"),
    ("C-NN", "baseline", "none"),
)

#: (application, scheme, protect, runs) of every Fig 9 campaign.  The
#: run counts give each application about the same wall time: P-BICG
#: classifies about 2000 runs/s, A-Laplacian about 4000 runs/s and
#: C-NN, whose lanes mostly execute, about 90 runs/s.
FIG9_CAMPAIGNS = (
    ("P-BICG", "correction", "hot", 2048),
    ("P-BICG", "baseline", "none", 2048),
    ("A-Laplacian", "baseline", "none", 8192),
    ("C-NN", "baseline", "none", 128),
    ("C-NN", "correction", "hot", 128),
)
FIG9_BATCH = 64

DSE_APP = "P-BICG"
DSE_SCALE = "small"
#: Runs per evaluated configuration: enough that the campaigns, not
#: the seven small-scale timing simulations, take most of a search,
#: and few enough that a run holds several passes.
DSE_RUNS = 800
DSE_JOBS = 2
DSE_BATCH = 64
DSE_MAX_OVERHEAD = 0.02

#: Iterations of the reference loop, and the seconds one sample of it
#: takes on the host the benchmark was defined on (an idle two-core
#: x86-64 VM, CPython 3.11).
REFERENCE_ITERATIONS = 40_000
REFERENCE_S = 0.0155


def reference_s() -> float:
    """Median of three timings of a fixed pure-Python loop that mixes
    what the program's hot paths do: dict updates, heap operations and
    integer arithmetic."""
    samples = []
    for _ in range(3):
        begin = time.perf_counter()
        table: dict[int, int] = {}
        heap: list[int] = []
        for i in range(REFERENCE_ITERATIONS):
            key = i * 7919 % 4093
            table[key] = table.get(key, 0) + i
            heapq.heappush(heap, key)
            if len(heap) > 64:
                heapq.heappop(heap)
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples)


def timed(fn):
    """Call ``fn()``; return its result and its time in reference seconds.

    A shared host's speed drifts by 20% or more within minutes, which
    would swamp the regressions the benchmark exists to catch.  The
    reference loop is timed right before and right after ``fn``, and
    ``fn``'s wall time is scaled by ``REFERENCE_S`` over their mean:
    host drift cancels, while a change in the program's own speed
    passes through unscaled.
    """
    before = reference_s()
    begin = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - begin
    return result, seconds * 2 * REFERENCE_S / (before + reference_s())


@dataclass
class Op:
    """One checked operation of a pass."""

    label: str
    #: Outputs compared with the oracle (``None`` for a pure check).
    doc: dict | None
    #: Reference seconds (see :func:`timed`).
    seconds: float = 0.0
    #: Simulated instructions (timing simulations).
    instructions: int = 0
    #: Fault-injection runs (campaigns).
    runs: int = 0
    counters: dict = field(default_factory=dict)
    #: Why the operation failed, if it did.
    error: str | None = None


def sim_doc(report) -> dict:
    """Every simulated statistic of a SimReport: the cycle oracle."""
    return {
        "cycles": report.cycles,
        "kernel_cycles": dict(report.kernel_cycles),
        "instructions": report.instructions,
        "demand_misses": report.demand_misses,
        "replica_transactions": report.replica_transactions,
        "store_transactions": report.store_transactions,
        "l1_accesses": report.l1_accesses,
        "l1_hits": report.l1_hits,
        "l2_accesses": report.l2_accesses,
        "l2_hits": report.l2_hits,
        "dram_requests": report.dram_requests,
        "dram_row_hits": report.dram_row_hits,
        "dram_bank_queue_cycles": report.dram_bank_queue_cycles,
        "dram_bus_queue_cycles": report.dram_bus_queue_cycles,
        "stalls": {
            "memory_wait": report.stalls.memory_wait,
            "mshr_full": report.stalls.mshr_full,
            "compare_queue_full": report.stalls.compare_queue_full,
        },
    }


def _managers(names, scale: str = "default") -> dict:
    """Build each application with its device memory, trace and access
    profile: the paper's one-time offline analysis."""
    managers = {}
    for name in names:
        manager = ReliabilityManager(create_app(name, scale=scale))
        manager.profile  # builds the memory and the trace on the way
        managers[name] = manager
    return managers


class Workload:
    """A set-up and a fixed unit of work, repeated by the driver."""

    name = ""
    #: False when the outputs do not depend on the seed, so that one
    #: oracle entry serves every seed.
    seeded = True

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = Path(work_dir)
        #: The traced pass's recorder (``None`` when untraced).
        self.tracer = None

    def setup(self) -> None:
        """Build the pass's state from a cleared app cache, dropping the
        previous pass's state first so that two never coexist in
        memory (which would skew ``peak_rss_mb``)."""
        raise NotImplementedError

    def work(self) -> list[Op]:
        """The pass's fixed work, one :class:`Op` per checked output."""
        raise NotImplementedError

    @contextmanager
    def span(self, name: str, phase: str):
        """In the traced pass, a span around the benchmark's own code
        whose calls are tallied under ``phase``."""
        if self.tracer is None:
            yield
            return
        self.tracer.set_phase(phase)
        try:
            with self.tracer.span(name):
                yield
        finally:
            self.tracer.set_phase("main")


class Fig7Timing(Workload):
    name = "fig7-timing"
    seeded = False

    def setup(self) -> None:
        self.managers = {}
        clear_app_cache()
        self.managers = _managers(
            dict.fromkeys(app for app, _scheme, _protect in FIG7_CONFIGS))

    def work(self) -> list[Op]:
        ops = []
        for app, scheme, protect in FIG7_CONFIGS:
            report, seconds = timed(
                lambda: self.managers[app].simulate_performance(
                    scheme, protect))
            ops.append(Op(f"{app} {scheme}/{protect}", sim_doc(report),
                          seconds=seconds,
                          instructions=report.instructions))
        return ops


class Fig9Campaigns(Workload):
    name = "fig9-campaigns"

    def setup(self) -> None:
        self.managers = {}
        clear_app_cache()
        self.managers = _managers(
            dict.fromkeys(app for app, *_rest in FIG9_CAMPAIGNS))
        for manager in self.managers.values():
            # The pristine image and golden output every campaign of
            # the application shares.
            context = app_context(manager.app)
            context.pristine
            context.golden

    def work(self) -> list[Op]:
        ops = []
        for app, scheme, protect, runs in FIG9_CAMPAIGNS:
            registry = MetricsRegistry()
            result, seconds = timed(lambda: self.managers[app].evaluate(
                scheme=scheme, protect=protect, runs=runs,
                seed=CAMPAIGN_SEED_BASE + self.seed, batch=FIG9_BATCH,
                jobs=1, metrics=registry,
            ))
            error = None
            if result.n_runs != runs:
                error = f"ran {result.n_runs} of {runs} runs"
            ops.append(Op(
                f"{app} {scheme}/{protect}",
                {"counts": {o.value: n for o, n in result.counts.items()}},
                seconds=seconds, runs=result.n_runs,
                counters=registry.counters, error=error,
            ))
        return ops


def _search_doc(result, trail: bytes) -> dict:
    """What the oracle pins of a search: front, budget pick, trail."""
    return {
        "evaluations": len(result.evaluations),
        "rounds": result.rounds,
        "front": [e.to_dict() for e in result.front],
        "best": None if result.best is None else result.best.digest,
        "trail_sha256": hashlib.sha256(trail).hexdigest(),
    }


class DseOptimize(Workload):
    name = "dse-optimize"

    def setup(self) -> None:
        clear_app_cache()
        app = create_app(DSE_APP, scale=DSE_SCALE)
        context = app_context(app)
        access_profile.profile_trace(context.trace, context.pristine)
        context.golden

    def _search(self, phase: str, store: Path, trail: Path,
                resume: bool) -> Op:
        registry = MetricsRegistry()
        with self.span("search.optimize", phase):
            result, seconds = timed(lambda: optimize(
                app=DSE_APP, strategy="greedy", runs=DSE_RUNS,
                seed=CAMPAIGN_SEED_BASE + self.seed,
                search_seed=SEARCH_SEED_BASE + self.seed,
                scale=DSE_SCALE, store=str(store), resume=resume,
                jobs=DSE_JOBS, batch=DSE_BATCH, trail=str(trail),
                metrics=registry, max_overhead=DSE_MAX_OVERHEAD,
            ))
        trail_bytes = trail.read_bytes()
        counters = dict(result.stats)
        counters["rounds"] = result.rounds
        counters["trail_bytes"] = len(trail_bytes)
        for name in ("retries", "pool_restarts", "timeouts",
                     "fallback_serial"):
            counters[name] = registry.counter(f"session.{name}").value
        return Op(f"optimize {phase}", _search_doc(result, trail_bytes),
                  seconds=seconds, counters=counters)

    def work(self) -> list[Op]:
        with tempfile.TemporaryDirectory(dir=self.work_dir,
                                         prefix="dse-") as tmp:
            store = Path(tmp) / "search"
            cold = self._search("cold", store, Path(tmp) / "cold.trail",
                                resume=False)
            resume = self._search("resume", store,
                                  Path(tmp) / "resume.trail", resume=True)
        executed = cold.counters["chunks_executed"]
        checks = (
            ("cold search executed chunks", executed > 0,
             "executed no chunk"),
            ("cold search resumed no chunk",
             cold.counters["chunks_resumed"] == 0,
             f"resumed {cold.counters['chunks_resumed']} chunks"),
            ("resume executed no chunk",
             resume.counters["chunks_executed"] == 0,
             f"executed {resume.counters['chunks_executed']} chunks"),
            ("resume loaded every chunk",
             resume.counters["chunks_resumed"] == executed,
             f"loaded {resume.counters['chunks_resumed']} of "
             f"{executed} chunks"),
            ("resume reproduced the cold search", resume.doc == cold.doc,
             "front, budget pick or trail bytes differ"),
        )
        return [cold, resume] + [
            Op(label, None, error=None if ok else detail)
            for label, ok, detail in checks
        ]


WORKLOADS = {cls.name: cls for cls in (Fig7Timing, Fig9Campaigns,
                                       DseOptimize)}
