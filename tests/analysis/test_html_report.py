"""The HTML report: determinism, content, and store-parallelism proof.

The headline invariant: stores built from the same campaign outputs —
at any ``--jobs``/``--batch`` — render byte-identical HTML, because
the report reads only store contents and formats every number through
fixed-precision specifiers (no clocks, no environment).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.html import render_html_report, write_html_report
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.selection import uniform_selection
from repro.kernels.registry import create_app
from repro.obs.provenance import ProvenanceWriter
from repro.obs.records import TelemetryWriter, write_decisions
from repro.obs.store import ResultsStore


def make_campaign(runs=24, batch=1, jobs=1):
    app = create_app("A-Laplacian", scale="small")
    memory = app.fresh_memory()
    pool = [a for o in memory.objects for a in o.block_addrs()]
    return Campaign(
        app,
        uniform_selection(pool),
        scheme="correction",
        protect=(),
        config=CampaignConfig(runs=runs, n_blocks=2, n_bits=2,
                              seed=20210621),
        keep_runs=True,
        collect_records=True,
        collect_provenance=True,
        batch=batch,
        jobs=jobs,
    )


def build_store(tmp_path, tag, batch=1):
    """Run one campaign at ``batch`` and warehouse all its outputs."""
    result = make_campaign(batch=batch).run()
    telemetry = tmp_path / f"t-{tag}.jsonl"
    with TelemetryWriter(str(telemetry)) as writer:
        writer.write_result(result)
    provenance = tmp_path / f"p-{tag}.jsonl"
    with ProvenanceWriter(str(provenance)) as writer:
        writer.write_result(result)
    from repro.faults.adaptive import AdaptiveConfig

    adaptive = make_campaign(runs=32).run_adaptive(
        config=AdaptiveConfig(target_margin=0.2, check_every=8))
    decisions = tmp_path / "decisions.jsonl"
    write_decisions(str(decisions), adaptive.decisions)
    bench = tmp_path / "BENCH_demo.json"
    bench.write_text(json.dumps({"throughput": 41.5, "ratio": 1.01}))
    store = ResultsStore(str(tmp_path / f"store-{tag}.db"))
    for path in (telemetry, provenance, decisions, bench):
        store.ingest(str(path))
    return store


class TestDeterminism:
    def test_render_twice_is_byte_identical(self, tmp_path):
        store = build_store(tmp_path, "a")
        try:
            assert render_html_report(store) == \
                render_html_report(store)
        finally:
            store.close()

    def test_batch_invariant_stores_render_identically(self, tmp_path):
        """batch=1 and batch=8 campaign outputs are byte-identical →
        same cell digests → byte-identical report."""
        one = build_store(tmp_path, "b1", batch=1)
        eight = build_store(tmp_path, "b8", batch=8)
        try:
            assert render_html_report(one) == render_html_report(eight)
        finally:
            one.close()
            eight.close()

    def test_write_returns_byte_count(self, tmp_path):
        store = build_store(tmp_path, "w")
        try:
            out = tmp_path / "report.html"
            n = write_html_report(store, str(out))
            assert out.stat().st_size == n
            assert out.read_text(encoding="utf-8") == \
                render_html_report(store)
        finally:
            store.close()


class TestContent:
    @pytest.fixture(scope="class")
    def html(self, tmp_path_factory):
        store = build_store(tmp_path_factory.mktemp("report"), "c")
        try:
            return render_html_report(store)
        finally:
            store.close()

    def test_is_one_self_contained_page(self, html):
        assert html.startswith("<!DOCTYPE html>")
        assert html.endswith("</html>\n")
        assert "<style>" in html
        assert "src=" not in html  # no external resources

    def test_version_stamps_in_header(self, html):
        import repro
        from repro.obs.store import STORE_SCHEMA_VERSION

        assert f"repro_version={repro.__version__}" in html
        assert (f"store_schema_version={STORE_SCHEMA_VERSION}"
                in html)

    def test_all_sections_present(self, html):
        for heading in ("Campaign cells", "Outcome and cause taxonomy",
                        "Per-object vulnerability heatmap",
                        "Adaptive stop history",
                        "Benchmark trajectory"):
            assert heading in html, heading

    def test_cells_and_heatmap_content(self, html):
        assert "A-Laplacian" in html
        assert "correction" in html
        assert "Wilson CI" in html
        # heatmap columns are the provenance cause taxonomy
        assert "value-agrees" in html
        assert "output-corrupted" in html

    def test_bench_snapshot_flattened(self, html):
        assert "BENCH_demo" in html
        assert "throughput" in html
        assert "41.5000" in html

    def test_empty_store_still_renders(self, tmp_path):
        with ResultsStore(str(tmp_path / "empty.db")) as store:
            html = render_html_report(store)
        assert "No run cells warehoused" in html
        assert "No provenance records warehoused" in html
        assert html == html  # and deterministically so
