"""Results-warehouse throughput and the progress-off overhead gate.

Two questions, answered into ``BENCH_store.json``:

* how fast does :class:`~repro.obs.store.ResultsStore` ingest a
  campaign corpus (rows/sec, with the dedup re-ingest timed
  separately), and how long does the HTML report take to render from
  it (``REPRO_BENCH_STORE_ROWS`` rows, default 5000)?
* does the live-progress subsystem cost anything when disabled?  A
  campaign built exactly as pre-progress code did (no ``progress``
  argument at all) is paired-timed against one passing
  ``progress=None`` explicitly; both must take the identical code
  path, so the alternate-order ratio of the per-arm minima is gated
  at ``MAX_PROGRESS_OFF_RATIO`` — within 2% of the
  ``BENCH_campaign`` baseline idiom — and a structural assert pins
  the dormancy (the executor must make exactly one unchunked
  ``run_span`` call).

Environment knobs: ``REPRO_BENCH_STORE_ROWS`` (default 5000),
``REPRO_BENCH_PROGRESS_OFF_RUNS`` (default 800) and
``REPRO_BENCH_PROGRESS_OFF_SAMPLES`` (default 9).
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from pathlib import Path

from conftest import SEED, banner

from repro.analysis.html import render_html_report
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.selection import uniform_selection
from repro.kernels.registry import create_app
from repro.obs.provenance import ProvenanceWriter
from repro.obs.records import TelemetryWriter
from repro.obs.store import ResultsStore
from repro.utils.canonical import canonical_json

STORE_ROWS = int(os.environ.get("REPRO_BENCH_STORE_ROWS", "5000"))
PROGRESS_OFF_RUNS = int(
    os.environ.get("REPRO_BENCH_PROGRESS_OFF_RUNS", "800"))
PROGRESS_OFF_SAMPLES = int(
    os.environ.get("REPRO_BENCH_PROGRESS_OFF_SAMPLES", "9"))

#: Identical code in both arms — anything beyond noise is a leak of
#: progress bookkeeping into the disabled path.
MAX_PROGRESS_OFF_RATIO = 1.02


def _campaign(runs, **kwargs):
    app = create_app("A-Laplacian", scale="small", seed=1234)
    memory = app.fresh_memory()
    pool = [a for o in memory.objects for a in o.block_addrs()]
    return Campaign(
        app,
        uniform_selection(pool),
        scheme="correction",
        protect=(),
        config=CampaignConfig(runs=runs, n_blocks=2, n_bits=2,
                              seed=SEED),
        keep_runs=True,
        collect_records=True,
        collect_provenance=True,
        **kwargs,
    )


def _synthesize_corpus(tmp_path: Path, rows: int):
    """A ``rows``-line telemetry + provenance corpus on disk.

    Seeded from one real campaign, then tiled by patching
    ``run_index``/``seed`` — every line stays schema-valid and the
    ingest cost scales to warehouse-sized files without paying for
    ``rows`` actual fault injections.
    """
    result = _campaign(runs=48).run()
    telemetry = tmp_path / "telemetry.jsonl"
    with TelemetryWriter(str(telemetry)) as writer:
        writer.write_result(result)
    provenance = tmp_path / "provenance.jsonl"
    with ProvenanceWriter(str(provenance)) as writer:
        writer.write_result(result)
    for path in (telemetry, provenance):
        base = [json.loads(line)
                for line in path.read_text().splitlines()]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for index in range(rows):
                record = dict(base[index % len(base)])
                record["run_index"] = index
                record["seed"] = SEED + index
                fh.write(canonical_json(record) + "\n")
    return telemetry, provenance


def test_store_ingest_throughput(benchmark, tmp_path):
    telemetry, provenance = _synthesize_corpus(tmp_path, STORE_ROWS)
    db = tmp_path / "bench.db"

    def compute():
        with ResultsStore(str(db)) as store:
            start = time.perf_counter()
            receipts = [*store.ingest(str(telemetry)),
                        *store.ingest(str(provenance))]
            ingest_s = time.perf_counter() - start
            start = time.perf_counter()
            deduped = [*store.ingest(str(telemetry)),
                       *store.ingest(str(provenance))]
            reingest_s = time.perf_counter() - start
            start = time.perf_counter()
            html = render_html_report(store)
            report_s = time.perf_counter() - start
        return receipts, deduped, ingest_s, reingest_s, report_s, html

    receipts, deduped, ingest_s, reingest_s, report_s, html = \
        benchmark.pedantic(compute, rounds=1, iterations=1)

    total_rows = sum(r["rows"] for r in receipts)
    assert total_rows == 2 * STORE_ROWS
    assert not any(r["deduped"] for r in receipts)
    assert all(r["deduped"] for r in deduped)
    assert html.startswith("<!DOCTYPE html>")

    report = {
        "rows": total_rows,
        "ingest_seconds": round(ingest_s, 3),
        "ingest_rows_per_sec": round(total_rows / ingest_s, 1),
        "reingest_seconds": round(reingest_s, 3),
        "reingest_rows_per_sec": round(total_rows / reingest_s, 1),
        "report_seconds": round(report_s, 3),
        "report_bytes": len(html.encode("utf-8")),
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_store.json"
    existing = json.loads(out.read_text()) if out.exists() else {}
    existing["ingest"] = report
    out.write_text(json.dumps(existing, indent=2) + "\n")

    banner(f"Results-store ingest ({total_rows} rows)")
    print(f"ingest: {report['ingest_rows_per_sec']} rows/sec; "
          f"re-ingest (dedup): {report['reingest_rows_per_sec']} "
          f"rows/sec; report: {report['report_seconds']}s for "
          f"{report['report_bytes']} bytes; wrote {out}")

    # The warehouse must not be the bottleneck of any realistic
    # campaign: even modest hardware ingests thousands of rows/sec.
    assert report["ingest_rows_per_sec"] > 500, report


def test_progress_off_overhead(benchmark):
    """Live progress is strictly pay-for-use: a campaign without it
    must run the exact pre-progress code path."""
    app = create_app("A-Laplacian", scale="small", seed=1234)
    memory = app.fresh_memory()
    pool = [a for o in memory.objects for a in o.block_addrs()]

    def run_arm(explicit_off: bool) -> float:
        # Telemetry-only, like the pre-progress throughput baseline —
        # no provenance machinery whose fixed costs would drown the
        # signal the 2% gate is after.
        kwargs = {"progress": None} if explicit_off else {}
        campaign = Campaign(
            app,
            uniform_selection(pool),
            scheme="correction",
            protect=(),
            config=CampaignConfig(runs=PROGRESS_OFF_RUNS, n_blocks=2,
                                  n_bits=2, seed=SEED),
            collect_records=True,
            **kwargs,
        )
        start = time.perf_counter()
        result = campaign.run()
        elapsed = time.perf_counter() - start
        assert campaign.progress is None
        assert result.n_runs == PROGRESS_OFF_RUNS
        return elapsed

    def compute():
        run_arm(False)  # warm-up (app/kernels cache)
        times: dict[bool, list[float]] = {False: [], True: []}
        for i in range(PROGRESS_OFF_SAMPLES):
            order = (False, True) if i % 2 == 0 else (True, False)
            for explicit_off in order:
                gc.collect()
                times[explicit_off].append(run_arm(explicit_off))
        return times

    times = benchmark.pedantic(compute, rounds=1, iterations=1)
    # Three noise-rejecting estimators, smallest wins (identical code
    # in both arms, so anything above 1.0 is sampling error): per-arm
    # minima, per-arm medians, and the median of same-round paired
    # ratios — the pairs run back to back, so load drift cancels.
    pair_ratios = [a / b for a, b in zip(times[False], times[True])]
    ratio = min(
        min(times[False]) / min(times[True]),
        statistics.median(times[False])
        / statistics.median(times[True]),
        statistics.median(pair_ratios),
    )

    # Structural dormancy: with progress disabled the executor makes
    # exactly one unchunked run_span call — the pre-progress path.
    campaign = _campaign(runs=16)
    calls = []
    original = campaign.run_span
    campaign.run_span = lambda start, stop: (
        calls.append((start, stop)) or original(start, stop))
    campaign.run(jobs=1)
    assert calls == [(0, 16)], calls

    out = Path(__file__).resolve().parent.parent / "BENCH_store.json"
    report = json.loads(out.read_text()) if out.exists() else {}
    report["progress_disabled"] = {
        "app": "A-Laplacian",
        "scale": "small",
        "scheme": "correction",
        "runs": PROGRESS_OFF_RUNS,
        "samples": PROGRESS_OFF_SAMPLES,
        "default_seconds": [round(t, 4) for t in times[False]],
        "explicit_off_seconds": [round(t, 4) for t in times[True]],
        "default_over_explicit_off": round(ratio, 4),
        "max_ratio": MAX_PROGRESS_OFF_RATIO,
    }
    out.write_text(json.dumps(report, indent=2) + "\n")

    banner(f"Progress-off overhead (A-Laplacian correction, "
           f"{PROGRESS_OFF_RUNS} runs, {PROGRESS_OFF_SAMPLES} samples)")
    print(f"default/explicit-off ratio: {ratio:.4f} "
          f"(bar: {MAX_PROGRESS_OFF_RATIO}); wrote {out}")

    assert ratio < MAX_PROGRESS_OFF_RATIO, (
        f"progress-free campaign is {100 * (ratio - 1):.2f}% slower "
        f"with the progress subsystem present (bar: "
        f"{100 * (MAX_PROGRESS_OFF_RATIO - 1):.0f}%)"
    )
