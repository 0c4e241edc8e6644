"""The results warehouse: ingest, dedup, export, and failure modes.

The contract under test: ingest → export reproduces the source
canonical JSONL byte-for-byte; re-ingesting identical content is an
idempotent no-op (row counts unchanged); and every malformed input —
truncated JSONL, corrupt JSON, foreign SQLite files — surfaces as a
typed :class:`~repro.errors.StoreError`, never a traceback.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.errors import StoreError
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.selection import uniform_selection
from repro.kernels.registry import create_app
from repro.obs.provenance import ProvenanceWriter
from repro.obs.records import TelemetryWriter, write_decisions
from repro.obs.store import (
    KINDS,
    STORE_SCHEMA_VERSION,
    ResultsStore,
    detect_kind,
    ingest_files,
)


def make_campaign(runs=24, scheme="correction", protect=(),
                  batch=1, jobs=1, adaptive=None):
    app = create_app("A-Laplacian", scale="small")
    memory = app.fresh_memory()
    pool = [a for o in memory.objects for a in o.block_addrs()]
    return Campaign(
        app,
        uniform_selection(pool),
        scheme=scheme,
        protect=protect,
        config=CampaignConfig(runs=runs, n_blocks=2, n_bits=2,
                              seed=20210621),
        keep_runs=True,
        collect_records=True,
        collect_provenance=True,
        batch=batch,
        jobs=jobs,
        adaptive=adaptive,
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One campaign's telemetry + provenance + decisions on disk."""
    root = tmp_path_factory.mktemp("corpus")
    result = make_campaign().run()
    telemetry = root / "telemetry.jsonl"
    with TelemetryWriter(str(telemetry)) as writer:
        writer.write_result(result)
    provenance = root / "provenance.jsonl"
    with ProvenanceWriter(str(provenance)) as writer:
        writer.write_result(result)
    from repro.faults.adaptive import AdaptiveConfig

    adaptive = make_campaign(runs=32).run_adaptive(
        config=AdaptiveConfig(target_margin=0.2, check_every=8))
    decisions = root / "decisions.jsonl"
    write_decisions(str(decisions), adaptive.decisions)
    bench = root / "BENCH_demo.json"
    bench.write_text(json.dumps(
        {"throughput": {"runs_per_sec": 123.4}, "samples": [1, 2]}))
    return {"root": root, "telemetry": telemetry,
            "provenance": provenance, "decisions": decisions,
            "bench": bench}


def row_counts(path):
    conn = sqlite3.connect(str(path))
    try:
        tables = ("cells", "runs", "provenance", "decisions",
                  "session_events", "bench")
        return {t: conn.execute(f"SELECT COUNT(*) FROM {t}")
                .fetchone()[0] for t in tables}
    finally:
        conn.close()


class TestDetectKind:
    def test_detects_each_kind(self, corpus):
        assert detect_kind(str(corpus["telemetry"])) == "runs"
        assert detect_kind(str(corpus["provenance"])) == "provenance"
        assert detect_kind(str(corpus["decisions"])) == "decisions"
        assert detect_kind(str(corpus["bench"])) == "bench"

    def test_session_log_detected(self, tmp_path, corpus):
        from repro.obs.session import SessionLog

        path = tmp_path / "session.jsonl"
        log = SessionLog(str(path))
        log.emit("plan", detail="2 cells")
        log.emit("finish", detail="ok")
        log.close()
        assert detect_kind(str(path)) == "session"

    def test_undetectable_raises(self, tmp_path):
        path = tmp_path / "mystery.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(StoreError, match="cannot detect"):
            detect_kind(str(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StoreError, match="cannot read"):
            detect_kind(str(tmp_path / "absent.jsonl"))


class TestIngestAndExport:
    def test_export_is_byte_identical_to_source(self, corpus, tmp_path):
        with ResultsStore(str(tmp_path / "w.db")) as store:
            for key in ("telemetry", "provenance", "decisions"):
                (receipt,) = store.ingest(str(corpus[key]))
                assert store.export(receipt["digest"]) == \
                    corpus[key].read_text()

    def test_reingest_is_noop(self, corpus, tmp_path):
        db = tmp_path / "w.db"
        paths = [str(corpus[k]) for k in
                 ("telemetry", "provenance", "decisions", "bench")]
        with ResultsStore(str(db)) as store:
            first = ingest_files(store, paths)
        counts = row_counts(db)
        with ResultsStore(str(db)) as store:
            second = ingest_files(store, paths)
        assert row_counts(db) == counts
        assert all(not r["deduped"] for r in first)
        assert all(r["deduped"] for r in second)
        assert [r["digest"] for r in first] == \
            [r["digest"] for r in second]

    def test_digest_invariant_across_batch_and_jobs(self, tmp_path):
        digests = []
        for batch in (1, 8):
            path = tmp_path / f"t{batch}.jsonl"
            with TelemetryWriter(str(path)) as writer:
                writer.write_result(make_campaign(batch=batch).run())
            with ResultsStore(str(tmp_path / f"s{batch}.db")) as store:
                (receipt,) = store.ingest(str(path))
            digests.append(receipt["digest"])
        assert digests[0] == digests[1]

    def test_run_cell_carries_campaign_identity(self, corpus, tmp_path):
        with ResultsStore(str(tmp_path / "w.db")) as store:
            store.ingest(str(corpus["telemetry"]))
            (cell,) = store.cells()
        assert cell["app"] == "A-Laplacian"
        assert cell["scheme"] == "correction"
        assert (cell["n_blocks"], cell["n_bits"]) == (2, 2)
        assert cell["rows"] == 24

    def test_bench_label_strips_prefix(self, corpus, tmp_path):
        with ResultsStore(str(tmp_path / "w.db")) as store:
            (receipt,) = store.ingest(str(corpus["bench"]))
        assert receipt["label"] == "demo"
        assert receipt["kind"] == "bench"

    def test_kind_override_beats_detection(self, corpus, tmp_path):
        with ResultsStore(str(tmp_path / "w.db")) as store:
            (receipt,) = store.ingest(str(corpus["telemetry"]),
                                      kind="runs")
        assert receipt["kind"] == "runs"
        with ResultsStore(str(tmp_path / "w2.db")) as store:
            with pytest.raises(StoreError):
                store.ingest(str(corpus["telemetry"]), kind="nonsense")


class TestQueries:
    def test_query_tallies_and_interval(self, corpus, tmp_path):
        with ResultsStore(str(tmp_path / "w.db")) as store:
            store.ingest(str(corpus["telemetry"]))
            (summary,) = store.query()
        assert summary["runs"] == 24
        assert sum(summary["outcomes"].values()) == 24
        ci = summary["sdc_interval"]
        assert 0.0 <= ci["low"] <= ci["proportion"] <= ci["high"] <= 1.0
        with ResultsStore(str(tmp_path / "w.db")) as store:
            assert len(store.query(app="A-Laplacian")) == 1
            assert store.query(app="NOPE") == []
            assert store.query(scheme="correction")[0]["scheme"] == \
                "correction"

    def test_meta_stamps(self, tmp_path):
        import repro

        with ResultsStore(str(tmp_path / "w.db")) as store:
            meta = store.meta()
        assert meta["store_schema_version"] == str(STORE_SCHEMA_VERSION)
        assert meta["repro_version"] == repro.__version__
        assert meta["run_record_version"] == "1"

    def test_export_unknown_digest_raises(self, tmp_path):
        with ResultsStore(str(tmp_path / "w.db")) as store:
            with pytest.raises(StoreError, match="no cell"):
                store.export("deadbeef")

    def test_decision_trails_and_bench_views(self, corpus, tmp_path):
        with ResultsStore(str(tmp_path / "w.db")) as store:
            store.ingest(str(corpus["decisions"]))
            store.ingest(str(corpus["bench"]))
            (trail,) = store.decision_trails()
            (snapshot,) = store.bench_snapshots()
        assert trail["decisions"][-1]["stop"] in (True, False)
        assert all(d["version"] == 1 for d in trail["decisions"])
        assert snapshot["name"] == "demo"
        assert snapshot["snapshot"]["throughput"]["runs_per_sec"] \
            == 123.4


class TestFailureModes:
    def test_truncated_jsonl_raises_store_error(self, corpus, tmp_path):
        lines = corpus["telemetry"].read_text().splitlines(True)
        broken = tmp_path / "truncated.jsonl"
        broken.write_text("".join(lines[:-1]) + lines[-1][:20])
        with ResultsStore(str(tmp_path / "w.db")) as store:
            with pytest.raises(StoreError, match="truncated.jsonl"):
                store.ingest(str(broken), kind="runs")

    def test_corrupt_json_raises_store_error(self, tmp_path):
        broken = tmp_path / "corrupt.jsonl"
        broken.write_text("this is not json\n")
        with ResultsStore(str(tmp_path / "w.db")) as store:
            with pytest.raises(StoreError, match="not valid JSON"):
                store.ingest(str(broken), kind="runs")

    def test_session_log_sequence_gap_raises(self, tmp_path):
        from repro.obs.session import SessionLog

        path = tmp_path / "gap.jsonl"
        with SessionLog(str(path)) as log:
            for kind in ("plan", "progress", "finish"):
                log.emit(kind)
        first, _, last = path.read_text().splitlines(True)
        path.write_text(first + last)
        with ResultsStore(str(tmp_path / "w.db")) as store:
            with pytest.raises(StoreError,
                               match=r"gap\.jsonl:2: sequence gap"):
                store.ingest(str(path))

    def test_empty_file_raises(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with ResultsStore(str(tmp_path / "w.db")) as store:
            with pytest.raises(StoreError, match="no records"):
                store.ingest(str(empty), kind="runs")

    def test_foreign_sqlite_file_refused(self, tmp_path):
        foreign = tmp_path / "other.db"
        conn = sqlite3.connect(str(foreign))
        conn.execute("CREATE TABLE unrelated (x INTEGER)")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="not a results store"):
            ResultsStore(str(foreign))

    def test_schema_version_mismatch_refused(self, tmp_path):
        db = tmp_path / "w.db"
        ResultsStore(str(db)).close()
        conn = sqlite3.connect(str(db))
        conn.execute("UPDATE meta SET value = '999' "
                     "WHERE key = 'store_schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="schema version"):
            ResultsStore(str(db))

    def test_errors_are_store_errors_only(self):
        assert len(KINDS) == 5
        from repro.errors import ReproError

        assert issubclass(StoreError, ReproError)
