"""Sweep-session overhead: what durability and resumability cost.

Runs one two-cell sweep (baseline + correction) through three arms of
the session orchestrator:

* ``bare``        — no checkpoint store: pure execution cost;
* ``checkpointed``— every chunk persisted (write path overhead);
* ``resumed``     — the same sweep replayed entirely from the durable
  chunks (read/verify path; no campaign executes).

All arms must produce byte-identical merged results — the session's
core guarantee.  Results (seconds per arm, checkpoint overhead %,
bytes on disk, resume speedup) are written to ``BENCH_sweep.json`` at
the repository root.

Environment knobs: ``REPRO_BENCH_RUNS`` (default 300, split across
both cells), ``REPRO_BENCH_JOBS`` (default 4).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from conftest import SEED, banner

from repro.core.request import EvaluationRequest
from repro.runtime import clear_app_cache
from repro.runtime.session import Session, SessionConfig, SweepSpec
from repro.utils.canonical import canonical_json
from repro.utils.tables import TextTable

BENCH_RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "300")) // 2
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "4"))
_APP = "P-BICG"


def _spec() -> SweepSpec:
    return SweepSpec(
        EvaluationRequest(app=_APP, runs=BENCH_RUNS, seed=SEED,
                          collect_records=True),
        schemes=("baseline", "correction"),
    )


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _time_arm(store, resume: bool):
    session = Session(_spec(), store=store,
                      config=SessionConfig(jobs=BENCH_JOBS))
    start = time.perf_counter()
    sweep = session.run(resume=resume)
    elapsed = time.perf_counter() - start
    return elapsed, canonical_json(sweep.to_dict()), session


def test_sweep_checkpoint_overhead(benchmark):
    def compute():
        clear_app_cache()
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "ckpt"
            bare_s, bare_doc, _ = _time_arm(None, resume=False)
            ckpt_s, ckpt_doc, _ = _time_arm(ckpt, resume=False)
            resume_s, resume_doc, resumed = _time_arm(
                ckpt, resume=True)
            disk = _dir_bytes(ckpt)
            counters = resumed.metrics.snapshot()["counters"]
        return (bare_s, ckpt_s, resume_s, bare_doc, ckpt_doc,
                resume_doc, disk, counters)

    (bare_s, ckpt_s, resume_s, bare_doc, ckpt_doc, resume_doc, disk,
     counters) = benchmark.pedantic(compute, rounds=1, iterations=1)

    # The session's contract: identical bytes in every arm.
    assert bare_doc == ckpt_doc == resume_doc
    # A full resume executes nothing — every chunk comes from disk.
    assert counters["session.chunks.resumed"] == counters.get(
        "session.chunks.planned", counters["session.chunks.resumed"])
    assert "session.chunks.executed" not in counters

    overhead_pct = 100.0 * (ckpt_s - bare_s) / bare_s
    report = {
        "app": _APP,
        "runs_per_cell": BENCH_RUNS,
        "cells": 2,
        "seed": SEED,
        "jobs": BENCH_JOBS,
        "host_cpus": os.cpu_count(),
        "seconds": {
            "bare": round(bare_s, 3),
            "checkpointed": round(ckpt_s, 3),
            "resumed": round(resume_s, 3),
        },
        "checkpoint_overhead_pct": round(overhead_pct, 2),
        "checkpoint_bytes": disk,
        "resume_speedup": round(bare_s / resume_s, 1),
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    banner(f"Sweep session overhead ({2 * BENCH_RUNS} runs over "
           f"2 cells, jobs={BENCH_JOBS})")
    table = TextTable(["arm", "seconds", "vs bare"],
                      float_format="{:.2f}")
    table.add_row(["bare", report["seconds"]["bare"], 1.0])
    table.add_row(["checkpointed", report["seconds"]["checkpointed"],
                   ckpt_s / bare_s])
    table.add_row(["resumed", report["seconds"]["resumed"],
                   resume_s / bare_s])
    print(table.render())
    print(f"\ncheckpoint overhead: {overhead_pct:+.1f}% "
          f"({disk / 1024:.0f} KiB on disk); resume replays "
          f"{report['resume_speedup']}x faster; wrote {out}")

    # Durability must stay cheap relative to execution, and a resume
    # must be much cheaper than rerunning.
    assert overhead_pct < 50.0, report
    assert resume_s < bare_s, report
