"""Timing-simulator speed, end to end and split by simulator layer.

Times the five Fig 7 timing simulations (the configurations of the
benchmark's ``fig7-timing`` workload, default scale): P-BICG under
baseline/none, detection/hot, correction/hot and correction/all, plus
C-NN baseline/none.  Each simulation's time is the minimum of
``REPEATS`` runs; with it go the simulated kilo-instructions per wall
second and the LD/ST polls per L1 access,
``(l1_accesses + mshr_full + compare_queue_full) / l1_accesses`` — every
``LdstUnit.load`` call either performs one L1 access or returns one
structural stall, so this is the number of load calls the SMs make per
access the L1 actually serves.

One further P-BICG detection/hot run under ``cProfile`` splits the
simulator's self time by layer.  Built-in calls (dict, heap and list
methods) are charged to the Python functions that made them, in
proportion to each caller's share of the built-in's time.  The L1s and
the L2 slices share one ``Cache`` class, so the cache layer covers both.

No environment knobs: the runs and repetitions are fixed, so that
``BENCH_timing.json`` files written by two checkouts compare directly.
Results go to ``BENCH_timing.json`` at the repository root.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from pathlib import Path

from conftest import banner

from repro.core.manager import ReliabilityManager
from repro.kernels.registry import create_app
from repro.utils.tables import TextTable

SCALE = "default"
REPEATS = 3
#: ``(app, scheme, protect)`` of every Fig 7 timing simulation.
CONFIGS = (
    ("P-BICG", "baseline", "none"),
    ("P-BICG", "detection", "hot"),
    ("P-BICG", "correction", "hot"),
    ("P-BICG", "correction", "all"),
    ("C-NN", "baseline", "none"),
)
PROFILED = ("P-BICG", "detection", "hot")
#: layer -> source files (under ``src/repro``) owning its self time.
LAYERS = {
    "sm_issue": ("sim/sm.py", "sim/warp.py", "sim/simulator.py"),
    "ldst_mshr": ("sim/ldst.py", "arch/mshr.py"),
    "caches_l1_l2": ("arch/cache.py",),
    "l2_noc": ("sim/memory_subsystem.py", "arch/interconnect.py"),
    "dram": ("arch/dram.py",),
}


def _layer_of(func) -> str | None:
    """The layer owning a pstats function key, if any."""
    path = func[0].replace("\\", "/")
    for layer, files in LAYERS.items():
        if any(path.endswith("repro/" + f) for f in files):
            return layer
    return None


def layer_split(stats: pstats.Stats) -> dict[str, float]:
    """Self seconds per layer, built-ins charged to their callers."""
    raw = stats.stats
    out = dict.fromkeys(LAYERS, 0.0)
    out["other"] = 0.0
    for func, (_cc, _nc, tottime, _ct, callers) in raw.items():
        layer = _layer_of(func)
        if layer is not None or func[0] != "~" or not callers:
            out[layer or "other"] += tottime
            continue
        # A built-in: split its self time over its callers.
        caller_tt = sum(c[2] for c in callers.values())
        for caller, (_c, _n, tt, _t) in callers.items():
            share = tt / caller_tt if caller_tt else 1 / len(callers)
            out[_layer_of(caller) or "other"] += tottime * share
    return out


def _simulate(manager, scheme, protect):
    start = time.perf_counter()
    report = manager.simulate_performance(scheme, protect)
    return report, time.perf_counter() - start


def test_timing_simulator_speed(benchmark):
    managers = {
        app: ReliabilityManager(create_app(app, scale=SCALE))
        for app in dict.fromkeys(app for app, _s, _p in CONFIGS)
    }
    for manager in managers.values():
        manager.profile  # builds the memory and the trace untimed

    def compute():
        rows = []
        for app, scheme, protect in CONFIGS:
            runs = [_simulate(managers[app], scheme, protect)
                    for _ in range(REPEATS)]
            report = runs[0][0]
            rows.append((app, scheme, protect, report,
                         min(seconds for _r, seconds in runs)))
        profiler = cProfile.Profile()
        app, scheme, protect = PROFILED
        profiler.enable()
        profiled = managers[app].simulate_performance(scheme, protect)
        profiler.disable()
        return rows, pstats.Stats(profiler), profiled

    rows, stats, profiled = benchmark.pedantic(compute, rounds=1,
                                               iterations=1)

    configs = []
    for app, scheme, protect, report, seconds in rows:
        stalls = report.stalls
        polls = report.l1_accesses + stalls.mshr_full \
            + stalls.compare_queue_full
        configs.append({
            "app": app,
            "scheme": scheme,
            "protect": protect,
            "seconds": round(seconds, 4),
            "instructions": report.instructions,
            "kinstr_per_s": round(report.instructions / seconds / 1e3, 2),
            "l1_accesses": report.l1_accesses,
            "ldst_polls_per_l1_access": round(
                polls / report.l1_accesses, 4),
        })
    split = layer_split(stats)
    profiled_s = sum(split.values())
    report = {
        "scale": SCALE,
        "repeats": REPEATS,
        "configs": configs,
        "total_seconds": round(sum(c["seconds"] for c in configs), 4),
        "layer_split": {
            "run": "{} {}/{}".format(*PROFILED),
            "profiled_seconds": round(profiled_s, 4),
            "self_seconds": {k: round(v, 4) for k, v in split.items()},
            "share": {k: round(v / profiled_s, 4)
                      for k, v in split.items()},
        },
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_timing.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    banner(f"Timing simulator ({SCALE} scale, min of {REPEATS} runs)")
    table = TextTable(["config", "seconds", "kinstr/s",
                       "polls/L1 access"], float_format="{:.3f}")
    for c in configs:
        table.add_row([f"{c['app']} {c['scheme']}/{c['protect']}",
                       c["seconds"], c["kinstr_per_s"],
                       c["ldst_polls_per_l1_access"]])
    print(table.render())
    print(f"\nself-time split of one cProfile'd {report['layer_split']['run']}"
          f" run ({profiled_s:.2f} s under the profiler):")
    for layer, share in report["layer_split"]["share"].items():
        print(f"  {layer:<13} {100 * share:5.1f}%")
    print(f"\nwrote {out}")

    # Every load call is one L1 access or one structural stall, so the
    # profiler's call count must equal the poll count of the report.
    load_calls = sum(
        nc for (path, _line, name), (_cc, nc, *_rest) in stats.stats.items()
        if name == "load" and path.replace("\\", "/").endswith(
            "repro/sim/ldst.py"))
    stalls = profiled.stalls
    assert load_calls == (profiled.l1_accesses + stalls.mshr_full
                          + stalls.compare_queue_full)
    assert split["other"] < 0.5 * profiled_s
