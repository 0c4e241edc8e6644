"""CLI tests for the warehouse surface: db, report, --version, stdin.

Exercises the exit-code taxonomy end to end: ``0`` on success, ``7``
for any :class:`~repro.errors.StoreError` (corrupt ingest, unknown
digest, a missing store on a read-only command), and the
long-standing ``2`` for corrupt ``stats``/``vuln`` input — now also
when the JSONL arrives on stdin as ``-``.
"""

from __future__ import annotations

import io

import pytest

import repro
from repro.cli import main


@pytest.fixture(scope="module")
def campaign_files(tmp_path_factory):
    """Telemetry + provenance JSONL from one small CLI campaign."""
    root = tmp_path_factory.mktemp("cli-db")
    telemetry = root / "telemetry.jsonl"
    provenance = root / "provenance.jsonl"
    code = main([
        "campaign", "A-Laplacian", "--scale", "small",
        "--scheme", "correction", "--protect", "hot",
        "--runs", "12", "--telemetry", str(telemetry),
        "--provenance", str(provenance),
    ])
    assert code == 0
    return {"root": root, "telemetry": telemetry,
            "provenance": provenance}


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out
        assert "repro" in out


class TestDbCommands:
    def test_ingest_twice_dedupes(self, campaign_files, tmp_path,
                                  capsys):
        db = tmp_path / "w.db"
        args = ["db", "ingest", str(db),
                str(campaign_files["telemetry"]),
                str(campaign_files["provenance"])]
        assert main(args) == 0
        assert "2 new cell(s), 0 deduplicated" in \
            capsys.readouterr().out
        assert main(args) == 0
        assert "0 new cell(s), 2 deduplicated" in \
            capsys.readouterr().out

    def test_cells_query_export_flow(self, campaign_files, tmp_path,
                                     capsys):
        import json

        db = tmp_path / "w.db"
        assert main(["db", "ingest", str(db),
                     str(campaign_files["telemetry"])]) == 0
        capsys.readouterr()
        assert main(["db", "cells", str(db), "--json"]) == 0
        (cell,) = json.loads(capsys.readouterr().out)
        assert cell["kind"] == "runs"
        assert main(["db", "query", str(db), "--json"]) == 0
        (summary,) = json.loads(capsys.readouterr().out)
        assert summary["runs"] == 12
        assert "sdc_interval" in summary
        out = tmp_path / "export.jsonl"
        assert main(["db", "export", str(db), cell["digest"],
                     "--out", str(out)]) == 0
        assert out.read_bytes() == \
            campaign_files["telemetry"].read_bytes()

    def test_query_text_table(self, campaign_files, tmp_path, capsys):
        db = tmp_path / "w.db"
        assert main(["db", "ingest", str(db),
                     str(campaign_files["telemetry"])]) == 0
        capsys.readouterr()
        assert main(["db", "query", str(db)]) == 0
        out = capsys.readouterr().out
        assert "A-Laplacian" in out
        assert "CI margin" in out

    def test_corrupt_ingest_exits_7(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        code = main(["db", "ingest", str(tmp_path / "w.db"),
                     str(bad), "--kind", "runs"])
        assert code == 7

    def test_unknown_digest_exits_7(self, campaign_files, tmp_path):
        db = tmp_path / "w.db"
        assert main(["db", "ingest", str(db),
                     str(campaign_files["telemetry"])]) == 0
        assert main(["db", "cells", str(db)]) == 0
        assert main(["db", "export", str(db), "feedface"]) == 7

    @pytest.mark.parametrize("command", [
        ["db", "cells"], ["db", "query"], ["db", "export"], ["report"],
    ], ids=" ".join)
    def test_read_only_command_refuses_missing_store(
            self, command, tmp_path, capsys):
        db = tmp_path / "none.db"
        extra = {"db export": ["feedface"],
                 "report": ["--out", str(tmp_path / "r.html")]}
        assert main([*command, str(db),
                     *extra.get(" ".join(command), [])]) == 7
        assert "no results store" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestReportCommand:
    def test_report_writes_html(self, campaign_files, tmp_path,
                                capsys):
        db = tmp_path / "w.db"
        assert main(["db", "ingest", str(db),
                     str(campaign_files["telemetry"]),
                     str(campaign_files["provenance"])]) == 0
        out = tmp_path / "report.html"
        assert main(["report", str(db), "--out", str(out)]) == 0
        html = out.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "A-Laplacian" in html
        assert repro.__version__ in html


class TestStdinInput:
    def test_stats_reads_stdin(self, campaign_files, monkeypatch,
                               capsys):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(campaign_files["telemetry"].read_text()))
        assert main(["stats", "-"]) == 0
        out = capsys.readouterr().out
        assert "<stdin>" in out
        assert "12 run record(s)" in out

    def test_vuln_reads_stdin(self, campaign_files, monkeypatch,
                              capsys):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(campaign_files["provenance"].read_text()))
        assert main(["vuln", "-"]) == 0
        out = capsys.readouterr().out
        assert "provenance record(s)" in out

    def test_corrupt_stdin_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("garbage\n"))
        assert main(["stats", "-"]) == 2
        monkeypatch.setattr("sys.stdin", io.StringIO("garbage\n"))
        assert main(["vuln", "-"]) == 2

    def test_file_paths_still_work(self, campaign_files, capsys):
        assert main(["stats",
                     str(campaign_files["telemetry"])]) == 0
        assert "12 run record(s)" in capsys.readouterr().out


class TestProgressFlag:
    def test_campaign_progress_runs_clean(self, capsys):
        code = main([
            "campaign", "A-Laplacian", "--scale", "small",
            "--runs", "8", "--progress",
        ])
        assert code == 0
        assert "SDC rate" in capsys.readouterr().out

    def test_quiet_silences_progress(self, capsys):
        code = main([
            "-q", "campaign", "A-Laplacian", "--scale", "small",
            "--runs", "8", "--progress",
        ])
        assert code == 0
