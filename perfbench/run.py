"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig7-timing --seed 0 \\
        --seconds 10 --trace 0

The program is imported from the checkout's ``src/``.  A run repeats
passes (one set-up plus the workload's fixed work, see
``workloads.py``) until ``--seconds`` have passed, then repeats the
set-up alone until it has timed enough set-ups for a steady median.
Every operation's outputs are checked: against ``oracle.json`` for the
seeds it records, otherwise against the run's own first pass.  The
dse-optimize workload also checks that its cold search executed chunks
and resumed none, and that the resume executed none and reproduced the
cold search's front, budget pick and trail bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``.
With ``--trace 1`` the run then makes one more pass with every layer's
public functions wrapped in spans (``tracing.py``), reports the
per-layer metrics instead, writes every span to
``.perfbench/spans-<workload>-seed<seed>.jsonl`` and prints the tracing
overhead.  Human-readable lines go to standard error.

``--record-oracle`` stores the run's outputs in ``oracle.json`` as the
expected outputs for its seed (for every seed, on a workload whose
outputs do not depend on it).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread per process: dse-optimize already runs two worker
# processes on a two-core host, and a steady single thread keeps the
# numpy-heavy campaign timings comparable between runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ORACLE_PATH = BENCH_DIR / "oracle.json"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("fig7-timing", "fig9-campaigns", "dse-optimize")
#: Set-ups timed per run: at least this many, and more until they add
#: up to ``MIN_SETUP_S`` (small set-ups need many samples for a steady
#: median).
MIN_SETUPS = 3
MIN_SETUP_S = 2.0
MAX_SETUPS = 200


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Pass:
    #: Set-up time in reference seconds (see ``workloads.timed``).
    setup_s: float
    #: Wall seconds of the whole pass, calibration samples included.
    wall_s: float
    ops: list = field(default_factory=list)
    broken: bool = False

    @property
    def work_s(self) -> float:
        """The pass's timed operations, in reference seconds."""
        return sum(op.seconds for op in self.ops)


def run_pass(workload) -> Pass:
    """One set-up plus the workload's work."""
    from workloads import Op, timed

    begin = time.perf_counter()
    setup_s = 0.0
    try:
        _none, setup_s = timed(workload.setup)
        ops = workload.work()
    except Exception as exc:  # a failed pass is reported, not raised
        traceback.print_exc(file=sys.stderr)
        return Pass(setup_s, time.perf_counter() - begin, [Op(
            "pass", None, error=f"{type(exc).__name__}: {exc}")], True)
    return Pass(setup_s, time.perf_counter() - begin, ops)


def first_difference(expected, actual, path: str = "") -> str | None:
    """The first field where two JSON documents differ, or ``None``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                return f"field {path}{key} is present on one side only"
            found = first_difference(expected[key], actual[key],
                                     f"{path}{key}.")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return (f"field {path.rstrip('.')} has {len(actual)} items, "
                    f"expected {len(expected)}")
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = first_difference(e, a, f"{path}{i}.")
            if found:
                return found
        return None
    if expected != actual:
        return (f"field {path.rstrip('.')}: expected {expected!r}, "
                f"got {actual!r}")
    return None


class Checker:
    """Counts operations and failures; compares outputs."""

    def __init__(self, expected: dict | None):
        #: label -> expected document, or ``None`` without an oracle.
        self.expected = expected
        self.first: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            problem = op.error or self._compare(op)
            if problem:
                self.failed += 1
                log(f"FAILED {op.label}: {problem}")

    def _compare(self, op) -> str | None:
        if op.doc is None:
            return None
        doc = json.loads(json.dumps(op.doc))
        if self.expected is not None:
            if op.label not in self.expected:
                return "no recorded oracle entry"
            found = first_difference(self.expected[op.label], doc)
            return found and f"{found} (oracle)"
        found = first_difference(self.first.setdefault(op.label, doc), doc)
        return found and f"{found} (first pass)"


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(workload, seconds: float, checker: Checker):
    """Passes for ``seconds``, then extra set-ups; returns both."""
    from workloads import timed

    passes: list[Pass] = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        one = run_pass(workload)
        checker.check(one.ops)
        passes.append(one)
        if one.broken:
            return passes, [one.setup_s]
    setups = [p.setup_s for p in passes]
    while len(setups) < MAX_SETUPS and (
            len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_S):
        setups.append(timed(workload.setup)[1])
    return passes, setups


def traced_pass(workload, spool: Path, checker: Checker):
    """One more pass with every layer's public functions wrapped."""
    import tracing
    from workloads import Op, timed

    recorder = tracing.Recorder(
        spool, run_id=f"{workload.name}/seed{workload.seed}/traced")
    recorder.install(tracing.targets())
    workload.tracer = recorder
    ops = []
    try:
        with recorder.span("bench.pass"):
            with recorder.span("bench.setup"):
                timed(workload.setup)
            with recorder.span("bench.work"):
                ops = workload.work()
    except Exception as exc:  # a failed pass is reported, not raised
        traceback.print_exc(file=sys.stderr)
        ops = [Op("traced pass", None,
                  error=f"{type(exc).__name__}: {exc}")]
    finally:
        recorder.uninstall()
        workload.tracer = None
    checker.check(ops)
    recorder.collect_workers()
    return ops, recorder


def _sum_counter(ops, prefix: str) -> int:
    return sum(value for op in ops for name, value in op.counters.items()
               if name.startswith(prefix))


def layer_metrics(rec, passes: list[Pass], traced_ops, failed_ratio):
    """The per-layer metrics of ``BENCHMARK.json`` from a traced run."""
    metrics: dict[str, dict] = {}

    def put(name: str, value, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def ratio(part, whole) -> float:
        return part / whole if whole else 0.0

    # The issue's workload-specific figures, from the untraced passes.
    ops = [op for p in passes for op in p.ops]
    sim_s = sum(op.seconds for op in ops if op.instructions)
    put("sim_kinstr_per_s",
        ratio(sum(op.instructions for op in ops) / 1e3, sim_s),
        "kinstr/s")
    campaign_s = sum(op.seconds for op in ops if op.runs)
    put("campaign_runs_per_s",
        ratio(sum(op.runs for op in ops), campaign_s), "1/s")
    for phase in ("cold", "resume"):
        times = [op.seconds for op in ops if op.label == f"optimize {phase}"]
        put(f"optimize_{phase}_s",
            statistics.median(times) if times else 0.0, "s")
    put("failed_ratio", failed_ratio, "ratio")

    # Tracing: overhead and wall-time shares by layer (this process).
    untraced = statistics.median(p.wall_s for p in passes)
    wall = rec.total_s("bench.pass", workers=False)
    put("trace_overhead", ratio(wall, untraced), "ratio")
    put("trace.wall_s", wall, "s")
    put("trace.untraced_wall_s", untraced, "s")
    put("trace.worker_s", sum(rec.layer_self_s(workers=True).values()), "s")
    for layer, seconds in rec.layer_self_s(workers=False).items():
        put(f"share.{layer}", ratio(seconds, wall), "ratio")

    # kernels and profiling
    for name in ("kernels.fresh_memory", "kernels.build_trace",
                 "profiling.profile_trace", "kernels.golden_output"):
        put(f"{name}_s", rec.total_s(name), "s")
    for name in ("kernels.execute", "kernels.execute_batch",
                 "core.simulate_performance", "core.evaluate",
                 "faults.run_batch", "faults.run_one"):
        put(f"{name}_calls", rec.calls(name), "count")
        put(f"{name}_s", rec.total_s(name), "s")

    # sim: simulated work, summed over every traced simulation.
    reports = [report for _phase, report in rec.reports]
    put("sim.reports", len(reports), "count")
    for name, attr in (
        ("sim.instructions", "instructions"), ("sim.cycles", "cycles"),
        ("sim.demand_misses", "demand_misses"),
        ("sim.replica_transactions", "replica_transactions"),
        ("sim.l1.accesses", "l1_accesses"), ("sim.l1.hits", "l1_hits"),
        ("sim.l2.accesses", "l2_accesses"), ("sim.l2.hits", "l2_hits"),
        ("sim.dram.requests", "dram_requests"),
        ("sim.dram.row_hits", "dram_row_hits"),
    ):
        put(name, sum(getattr(r, attr) for r in reports), "count")
    for stall in ("memory_wait", "mshr_full", "compare_queue_full"):
        put(f"sim.stalls.{stall}",
            sum(getattr(r.stalls, stall) for r in reports), "count")

    # sim and arch: host calls and self time.
    put("sim.simulate_trace_s", rec.total_s("sim.simulate_trace"), "s")
    for name in ("sim.sm.step", "sim.ldst.load", "sim.ldst.store",
                 "sim.mem.read", "sim.mem.write", "arch.cache",
                 "arch.mshr", "arch.dram", "arch.interconnect"):
        put(f"{name}.calls" if name.startswith("arch.")
            else f"{name}_calls", rec.calls(name), "count")
        put(f"{name}.self_s" if name.startswith("arch.")
            else f"{name}_self_s", rec.self_s(name), "s")
    put("sim.ldst.load_calls_per_l1_access",
        ratio(rec.calls("sim.ldst.load"),
              metrics["sim.l1.accesses"]["value"]), "ratio")

    # faults: the batched engine's lane split (fig9 campaigns).
    analytic = _sum_counter(traced_ops, "campaign.batch.analytic_lanes")
    executed = _sum_counter(traced_ops, "campaign.batch.exec_lanes")
    put("faults.batch.lanes", analytic + executed, "count")
    put("faults.batch.analytic_lanes", analytic, "count")
    put("faults.batch.exec_lanes", executed, "count")
    put("faults.batch.analytic_share", ratio(analytic, analytic + executed),
        "ratio")
    put("faults.batch.pruned",
        _sum_counter(traced_ops, "campaign.batch.pruned."), "count")
    put("faults.runs", sum(op.runs for op in traced_ops), "count")

    # runtime: Session, pool and checkpoints (dse-optimize).
    put("runtime.session_run_calls", rec.calls("runtime.session_run"),
        "count")
    put("runtime.session_run_s", rec.total_s("runtime.session_run"), "s")
    put("runtime.chunks_executed",
        _sum_counter(traced_ops, "chunks_executed"), "count")
    put("runtime.chunks_resumed",
        _sum_counter(traced_ops, "chunks_resumed"), "count")
    for io in ("save", "load"):
        name = f"runtime.checkpoint.{io}"
        put(f"{name}_calls", rec.calls(name), "count")
        put(f"{name}_s", rec.total_s(name), "s")
    for name in ("retries", "pool_restarts", "timeouts", "fallback_serial"):
        put(f"runtime.{name}", _sum_counter(traced_ops, name), "count")

    # search and obs
    cold = [op for op in traced_ops if op.label == "optimize cold"]
    put("search.evaluations",
        cold[0].counters["evaluations"] if cold else 0, "count")
    put("search.rounds", cold[0].counters["rounds"] if cold else 0, "count")
    search_s = rec.total_s("search.optimize")
    put("search.wall_s", search_s, "s")
    put("search.ranking_s",
        rec.child_total_s("core.evaluate", "search.optimize"), "s")
    put("search.sim_share", ratio(
        rec.child_total_s("core.simulate_performance", "search.optimize"),
        search_s), "ratio")
    put("obs.trail_write_calls", rec.calls("obs.trail_write"), "count")
    put("obs.trail_write_s", rec.total_s("obs.trail_write"), "s")
    put("obs.trail_bytes",
        cold[0].counters["trail_bytes"] if cold else 0, "bytes")

    # The cold search against its resume.
    for phase in ("cold", "resume"):
        put(f"{phase}.runtime.checkpoint.save_calls",
            rec.calls("runtime.checkpoint.save", phase), "count")
        put(f"{phase}.runtime.checkpoint.load_calls",
            rec.calls("runtime.checkpoint.load", phase), "count")
        put(f"{phase}.runtime.checkpoint.load_hits",
            rec.calls("runtime.checkpoint.load_hit", phase), "count")
        put(f"{phase}.core.simulate_performance_calls",
            rec.calls("core.simulate_performance", phase), "count")
    put("resume.runtime.chunks_executed", sum(
        op.counters["chunks_executed"] for op in traced_ops
        if op.label == "optimize resume"), "count")
    return metrics


def report_trace(workload, rec, metrics) -> None:
    """Human-readable summary of the traced pass on standard error."""
    value = {name: m["value"] for name, m in metrics.items()}
    log(f"{workload.name}: tracing overhead {value['trace_overhead']:.2f}x "
        f"(traced pass {value['trace.wall_s']:.2f} s / untraced "
        f"{value['trace.untraced_wall_s']:.2f} s)")
    shares = sorted(((v, k[6:]) for k, v in value.items()
                     if k.startswith("share.")), reverse=True)
    log("  self-time share of the traced pass by layer: " + ", ".join(
        f"{layer} {share:.1%}" for share, layer in shares if share >= 0.001))
    if value["trace.worker_s"]:
        log(f"  worker processes: {value['trace.worker_s']:.2f} s of self "
            "time, tallied in the workers and merged after the pass "
            "(not part of the shares above)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-oracle", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        log(f"error: no program sources under {src}")
        return 2
    sys.path.insert(0, str(src))
    from repro.obs import log as repro_log
    from workloads import WORKLOADS

    # The program's progress lines would interleave with the result.
    repro_log.configure(quiet=True)

    oracle = {}
    if ORACLE_PATH.is_file():
        oracle = json.loads(ORACLE_PATH.read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="run-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        key = str(args.seed) if workload.seeded else "*"
        expected = oracle.get(workload.name, {}).get(key)
        checker = Checker(None if args.record_oracle else expected)
        if expected is None and not args.record_oracle:
            log(f"note: no oracle recorded for seed {key}; checking "
                "every pass against the first")
        passes, setups = measure(workload, args.seconds, checker)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            # The fastest pass: other tenants of a shared host only ever
            # slow a pass down, so the minimum is the steadiest estimate
            # of the program's own cost.
            "pass_s": {"value": min(p.work_s for p in passes),
                       "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        log(f"{workload.name}: {len(passes)} passes of "
            + ", ".join(f"{p.work_s:.3f}" for p in passes)
            + " reference s (wall "
            + ", ".join(f"{p.wall_s:.3f}" for p in passes)
            + f" s), {len(setups)} set-ups")
        for name, m in metrics.items():
            log(f"{workload.name}: {name} = {m['value']:.4f} {m['unit']}")
        if args.trace:
            spool = Path(tmp) / "spool"
            spool.mkdir()
            traced_ops, rec = traced_pass(workload, spool, checker)
            metrics = layer_metrics(
                rec, passes, traced_ops,
                checker.failed / max(checker.attempted, 1))
            path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
            n_spans = rec.write(path)
            report_trace(workload, rec, metrics)
            log(f"  {n_spans} spans written to {path}")
    for child in multiprocessing.active_children():
        child.join()

    if args.record_oracle and checker.failed == 0 and not passes[0].broken:
        docs = {op.label: json.loads(json.dumps(op.doc))
                for op in passes[0].ops if op.doc is not None}
        oracle.setdefault(workload.name, {})[key] = docs
        ORACLE_PATH.write_text(
            json.dumps(oracle, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        log(f"recorded the oracle of {workload.name} for seed {key}")

    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
