"""Design-space exploration throughput: what a search costs.

Runs one greedy ``optimize`` search twice against the same checkpoint
directory:

* ``cold``  — fresh directory, every configuration evaluated;
* ``warm``  — a resume of the same search: strategies re-propose the
  same candidates, whose campaign chunks and timing reports load from
  the checkpoints.

Both arms must return the identical Pareto front — the engine's core
guarantee — and the warm arm must execute no chunk and no simulation.
Results are written to ``BENCH_optimize.json`` at the repository
root: per arm the wall seconds, the summed seconds of timing
simulations and of campaign chunks (each unit timed where it ran; at
``jobs > 1`` they overlap, so they may add up to more than the wall
time), and the simulations executed and loaded; plus evaluations/sec
cold, the chunk cache-hit rate warm and the resume speedup.

Environment knobs: ``REPRO_BENCH_RUNS`` (default 300, runs per
configuration), ``REPRO_BENCH_JOBS`` (default 4).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from conftest import SEED, banner

from repro.obs.metrics import MetricsRegistry
from repro.runtime import clear_app_cache
from repro.search import optimize
from repro.utils.tables import TextTable

BENCH_RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "300"))
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "4"))
_APP = "P-BICG"


def _search(store: str, resume: bool):
    metrics = MetricsRegistry()
    start = time.perf_counter()
    result = optimize(
        app=_APP,
        strategy="greedy",
        runs=BENCH_RUNS,
        seed=SEED,
        store=store,
        resume=resume,
        jobs=BENCH_JOBS,
        max_overhead=0.02,
        metrics=metrics,
    )
    return time.perf_counter() - start, result, metrics


def _arm(seconds: float, result, metrics: MetricsRegistry) -> dict:
    """One arm's wall time, its split by unit kind, and unit counts."""
    def unit_s(name: str) -> float:
        return round(metrics.histogram(name).total / 1e3, 3)

    return {
        "wall_s": round(seconds, 3),
        "simulation_s": unit_s("session.sim_ms"),
        "campaign_chunk_s": unit_s("session.chunk_ms"),
        "simulations_executed": result.stats["simulations_executed"],
        "simulations_loaded": result.stats["simulations_loaded"],
        "chunks_executed": result.stats["chunks_executed"],
        "chunks_resumed": result.stats["chunks_resumed"],
    }


def test_optimize_throughput(benchmark):
    def compute():
        clear_app_cache()
        with tempfile.TemporaryDirectory() as tmp:
            store = str(Path(tmp) / "dse")
            cold_s, cold, cold_metrics = _search(store, resume=False)
            warm_s, warm, warm_metrics = _search(store, resume=True)
        return cold_s, cold, cold_metrics, warm_s, warm, warm_metrics

    cold_s, cold, cold_metrics, warm_s, warm, warm_metrics = \
        benchmark.pedantic(compute, rounds=1, iterations=1)

    # The engine's contract: a resume replays to the same outcome.
    assert [e.to_dict() for e in warm.front] == \
        [e.to_dict() for e in cold.front]
    # A full resume executes nothing — every chunk comes from disk.
    assert warm.stats["chunks_executed"] == 0
    assert warm.stats["chunks_resumed"] == \
        cold.stats["chunks_executed"]
    # ... and simulates nothing — every timing report loads too.
    assert warm.stats["simulations_executed"] == 0
    assert warm.stats["simulations_loaded"] == \
        cold.stats["simulations_executed"]

    n_evals = cold.stats["evaluations"]
    warm_chunks = warm.stats["chunks_resumed"] + \
        warm.stats["chunks_executed"]
    report = {
        "app": _APP,
        "strategy": "greedy",
        "runs_per_configuration": BENCH_RUNS,
        "seed": SEED,
        "jobs": BENCH_JOBS,
        "host_cpus": os.cpu_count(),
        "evaluations": n_evals,
        "rounds": cold.rounds,
        "front_size": len(cold.front),
        "seconds": {"cold": round(cold_s, 3),
                    "warm": round(warm_s, 3)},
        "cold": _arm(cold_s, cold, cold_metrics),
        "warm": _arm(warm_s, warm, warm_metrics),
        "evaluations_per_second_cold": round(n_evals / cold_s, 2),
        "chunk_cache_hit_rate_warm": round(
            warm.stats["chunks_resumed"] / warm_chunks, 3)
        if warm_chunks else 0.0,
        "resume_speedup": round(cold_s / warm_s, 1),
    }
    out = Path(__file__).resolve().parent.parent / \
        "BENCH_optimize.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    banner(f"Design-space exploration ({n_evals} configurations x "
           f"{BENCH_RUNS} runs, jobs={BENCH_JOBS})")
    table = TextTable(["arm", "seconds", "evals/s", "sim s", "chunk s",
                       "sims run", "sims loaded"],
                      float_format="{:.2f}")
    for label, arm in (("cold", report["cold"]),
                       ("warm (resume)", report["warm"])):
        table.add_row([label, arm["wall_s"], n_evals / arm["wall_s"],
                       arm["simulation_s"], arm["campaign_chunk_s"],
                       arm["simulations_executed"],
                       arm["simulations_loaded"]])
    print(table.render())
    print(f"\nfront size {len(cold.front)}, cache-hit rate "
          f"{report['chunk_cache_hit_rate_warm']:.0%} on resume "
          f"({report['resume_speedup']}x faster); wrote {out}")

    # A resume must be much cheaper than searching from scratch.
    assert warm_s < cold_s, report
