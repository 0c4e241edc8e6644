"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.faults.campaign import Campaign
from repro.obs.perfetto import validate_trace_file
from repro.utils.canonical import canonical_json


class TestParser:
    def test_apps_command(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "P-BICG" in out
        assert "C-BlackScholes" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestProfileCommand:
    def test_profile_output(self, capsys):
        assert main(["profile", "A-Laplacian", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "hot objects (declared)" in out
        assert "Filter" in out


class TestCampaignCommand:
    def test_campaign_runs(self, capsys):
        code = main([
            "campaign", "A-Laplacian", "--scale", "small",
            "--scheme", "detection", "--protect", "hot",
            "--runs", "10", "--selection", "hot",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SDC rate" in out

    def test_numeric_protect_level(self, capsys):
        code = main([
            "campaign", "A-Laplacian", "--scale", "small",
            "--scheme", "correction", "--protect", "2",
            "--runs", "5",
        ])
        assert code == 0


class TestTypedProtect:
    """``--protect``/``--protects`` take ``obj=scheme,...`` strings."""

    TYPED = "p=detection,r=correction"

    def test_campaign_equals_evaluate(self, tmp_path,
                                      small_bicg_manager):
        from repro.core.protection import ProtectionSpec
        from repro.obs.records import TelemetryWriter

        cli_path = tmp_path / "cli.jsonl"
        assert main(["-q", "campaign", "P-BICG", "--scale", "small",
                     "--protect", self.TYPED,
                     "--telemetry", str(cli_path)]) == 0
        result = small_bicg_manager.evaluate(
            protect=ProtectionSpec.parse(self.TYPED), runs=200,
            collect_records=True)
        api_path = tmp_path / "api.jsonl"
        with TelemetryWriter(str(api_path)) as writer:
            writer.write_result(result)
        assert cli_path.read_bytes() == api_path.read_bytes()

    def test_sweep_equals_campaign(self, tmp_path):
        args = ["--scale", "small", "--runs", "48"]
        assert main(["-q", "campaign", "P-BICG", *args, "--protect",
                     self.TYPED, "--telemetry",
                     str(tmp_path / "a.jsonl")]) == 0
        assert main(["-q", "sweep", "P-BICG", *args, "--schemes",
                     "correction", "--protects", self.TYPED,
                     "--telemetry", str(tmp_path / "b.jsonl")]) == 0
        assert (tmp_path / "a.jsonl").read_bytes() \
            == (tmp_path / "b.jsonl").read_bytes()

    def test_typed_protect_skips_the_scheme_axis(self, tmp_path):
        # The default --schemes is "baseline correction"; a typed
        # protection names its own schemes, so it is one cell.
        args = ["--scale", "small", "--runs", "48"]
        assert main(["-q", "campaign", "P-BICG", *args, "--protect",
                     self.TYPED, "--telemetry",
                     str(tmp_path / "a.jsonl")]) == 0
        assert main(["-q", "sweep", "P-BICG", *args, "--protects",
                     self.TYPED, "--telemetry",
                     str(tmp_path / "b.jsonl")]) == 0
        assert (tmp_path / "a.jsonl").read_bytes() \
            == (tmp_path / "b.jsonl").read_bytes()

    @pytest.mark.parametrize("command,flag", [
        ("campaign", "--protect"), ("sweep", "--protects"),
        ("perf", "--protect")])
    def test_malformed_typed_protect_exits_4(self, command, flag,
                                             capsys):
        assert main([command, "P-BICG", "--scale", "small",
                     "--runs" if command != "perf" else "--app-seed",
                     "4", flag, "p=detection,r"]) == 4
        assert "protection assignment" in capsys.readouterr().err

    def test_protecting_a_writable_object_exits_4(self, capsys):
        # A ConfigError, not a retried-then-wrapped SessionError (6).
        assert main(["-q", "campaign", "P-BICG", "--scale", "small",
                     "--runs", "8", "--protect", "s=detection"]) == 4
        assert "cannot protect writable object 's'" \
            in capsys.readouterr().err


class TestPerfCommand:
    def test_perf_prints_normalized_row(self, capsys):
        code = main([
            "perf", "A-Meanfilter", "--scale", "small",
            "--scheme", "detection", "--protect", "hot",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "norm-time" in out
        assert "baseline" in out


class TestTradeoffCommand:
    def test_tradeoff_prints_sweet_spot(self, capsys):
        code = main([
            "tradeoff", "A-Meanfilter", "--scale", "small",
            "--runs", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweet spot" in out

    def test_baseline_scheme_rejected(self, capsys):
        # Every level of a baseline curve protects nothing.
        assert main(["tradeoff", "A-Meanfilter", "--scale", "small",
                     "--runs", "5", "--scheme", "baseline"]) == 4
        assert "sweet spot" not in capsys.readouterr().out


class TestTraceCommand:
    def test_trace_writes_valid_perfetto_json(self, tmp_path, capsys):
        out = tmp_path / "run.trace.json"
        objects = tmp_path / "run.objects.json"
        code = main([
            "trace", "P-ATAX", "--scale", "small",
            "--scheme", "detection", "--protect", "hot",
            "--out", str(out), "--objects-out", str(objects),
        ])
        assert code == 0
        assert validate_trace_file(str(out)) > 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        spans = [e for e in doc["traceEvents"]
                 if e["ph"] == "X" and "obj" in e.get("args", {})]
        assert spans, "no data-object-labeled spans in the export"
        summary = json.loads(objects.read_text(encoding="utf-8"))
        assert summary["app"] == "P-ATAX"
        assert summary["objects"]
        captured = capsys.readouterr().out
        assert "trace event(s)" in captured
        assert "object" in captured

    def test_missing_app_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace"])
        assert exc.value.code == 2
        assert "app" in capsys.readouterr().err

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        out = tmp_path / "q.trace.json"
        code = main([
            "-q", "trace", "P-ATAX", "--scale", "small",
            "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "trace event(s)" not in captured  # progress silenced
        assert "cycles" in captured  # results still print


class TestGoldenTraceCapture:
    def test_perf_trace_capture(self, tmp_path, capsys):
        out = tmp_path / "golden.trace.json"
        code = main([
            "perf", "A-Meanfilter", "--scale", "small",
            "--scheme", "detection", "--protect", "hot",
            "--trace", str(out),
        ])
        assert code == 0
        assert validate_trace_file(str(out)) > 0

    def test_campaign_trace_identical_across_jobs(self, tmp_path):
        """The golden-run trace is captured parent-side, so the export
        must be byte-identical for any --jobs setting."""
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.trace.json"
            code = main([
                "-q", "campaign", "A-Laplacian", "--scale", "small",
                "--scheme", "detection", "--protect", "hot",
                "--runs", "4", "--jobs", jobs, "--trace", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSweepCommand:
    ARGS = [
        "-q", "sweep", "A-Laplacian", "--scale", "small",
        "--schemes", "baseline", "--protects", "hot",
        "--runs", "4", "--chunk-runs", "2", "--fault-seed", "9",
    ]

    def test_sweep_prints_table_and_writes_outputs(self, tmp_path,
                                                   capsys):
        out = tmp_path / "sweep.json"
        telemetry = tmp_path / "t.jsonl"
        events = tmp_path / "events.jsonl"
        code = main(self.ARGS + [
            "--out", str(out), "--telemetry", str(telemetry),
            "--session-log", str(events),
        ])
        assert code == 0
        assert "sdc-rate" in capsys.readouterr().out
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["spec"]["cells"][0]["runs"] == 4
        assert len(doc["cells"]) == 1
        assert telemetry.read_text().count("\n") == 4
        from repro.obs.session import read_session_events

        kinds = [e["kind"] for e in read_session_events(str(events))]
        assert kinds[0] == "plan"
        assert kinds[-1] == "finish"

    def test_interrupted_exits_75_then_resume_matches(self, tmp_path):
        """The CI smoke contract: budget-stop exits 75 with durable
        chunks; --resume completes to the byte-identical result."""
        store = tmp_path / "ckpt"
        reference = tmp_path / "ref.json"
        assert main(self.ARGS + ["--out", str(reference)]) == 0

        checkpointed = [
            *self.ARGS, "--checkpoint-dir", str(store),
        ]
        assert main(checkpointed + ["--stop-after-chunks", "1"]) == 75
        resumed = tmp_path / "resumed.json"
        assert main(checkpointed + [
            "--resume", "--jobs", "2", "--out", str(resumed),
        ]) == 0
        assert resumed.read_bytes() == reference.read_bytes()

    def test_unknown_app_exits_3(self, capsys):
        assert main(["sweep", "NOT-AN-APP", "--runs", "4"]) == 3
        assert "unknown application" in capsys.readouterr().err

    def test_unknown_scheme_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "A-Laplacian", "--schemes", "tmr"])

    def test_bad_protect_exits_4(self, capsys):
        assert main(["sweep", "A-Laplacian", "--protects", "warm",
                     "--runs", "4"]) == 4
        assert "protection level" in capsys.readouterr().err

    def test_resume_without_dir_exits_4(self, capsys):
        assert main(["sweep", "A-Laplacian", "--resume",
                     "--runs", "4"]) == 4
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_batch_writes_the_scalar_bytes(self, tmp_path):
        outs = []
        for batch in ("1", "16"):
            out = tmp_path / f"batch{batch}.json"
            assert main(self.ARGS + ["--batch", batch,
                                     "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_mismatched_checkpoint_dir_exits_5(self, tmp_path, capsys):
        store = tmp_path / "ckpt"
        assert main(self.ARGS + ["--checkpoint-dir", str(store)]) == 0
        assert main(self.ARGS + [
            "--checkpoint-dir", str(store), "--runs", "6",
        ]) == 5
        assert "different sweep" in capsys.readouterr().err


class TestErrorExitCodes:
    def test_campaign_unknown_app_exits_3(self, capsys):
        assert main(["campaign", "NOT-AN-APP"]) == 3
        assert "unknown application" in capsys.readouterr().err

    def test_campaign_bad_protect_exits_4(self):
        assert main(["campaign", "A-Laplacian", "--scale", "small",
                     "--protect", "warm"]) == 4


@pytest.mark.parametrize("command", ["stats", "vuln"])
class TestStatsErrors:
    """``stats`` and ``vuln`` share one read path and its exit-2 errors."""

    def test_missing_file(self, command, capsys):
        assert main([command, "/no/such/telemetry.jsonl"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_corrupt_file(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n", encoding="utf-8")
        assert main([command, str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_directory_argument(self, command, tmp_path, capsys):
        assert main([command, str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err


class TestExportCommand:
    def test_export_writes_csvs(self, tmp_path, capsys):
        code = main([
            "export", "A-Meanfilter", "--scale", "small",
            "--out", str(tmp_path), "--runs", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig9_a_meanfilter.csv" in out
        assert (tmp_path / "table1_config.csv").exists()
        assert (tmp_path / "fig7_a_meanfilter.csv").exists()


def subparsers() -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def request_options(parser) -> dict[str, argparse.Action]:
    return {
        action.option_strings[0]: action for action in parser._actions
        if action.option_strings
        and action.option_strings[0] in cli._REQUEST_FLAGS
    }


#: The request flags each evaluating subcommand's entry point honours.
HONOURED = {
    "profile": {"--scale", "--app-seed"},
    "perf": {"--scale", "--app-seed", "--scheme", "--protect"},
    "trace": {"--scale", "--app-seed", "--scheme", "--protect"},
    "export": {"--scale", "--app-seed", "--runs"},
    "tradeoff": {"--scale", "--app-seed", "--fault-seed", "--runs",
                 "--blocks", "--bits", "--selection", "--scheme",
                 "--jobs"},
    "campaign": set(cli._REQUEST_FLAGS),
    "sweep": set(cli._REQUEST_FLAGS) - {"--scheme", "--protect"},
    "optimize": set(cli._REQUEST_FLAGS)
    - {"--scheme", "--protect", "--target-margin"},
}


class TestRequestFlags:
    def test_each_subcommand_takes_exactly_its_honoured_flags(self):
        parsers = subparsers()
        for name, flags in HONOURED.items():
            assert set(request_options(parsers[name])) == flags, name

    def test_every_flag_has_one_default_and_type(self):
        seen = {}
        for name in HONOURED:
            for flag, action in request_options(
                    subparsers()[name]).items():
                default = None if flag == "--scheme" else action.default
                key = (default, action.type, action.choices,
                       action.dest, action.help)
                assert seen.setdefault(flag, key) == key, (name, flag)
        assert set(seen) == set(cli._REQUEST_FLAGS)
        assert seen["--runs"][0] == 200

    def test_scheme_defaults_keep_their_arm(self):
        parsers = subparsers()
        defaults = {name: request_options(parsers[name])["--scheme"]
                    .default for name in ("campaign", "perf", "trace",
                                          "tradeoff")}
        assert defaults == {"campaign": "baseline", "perf": "detection",
                            "trace": "baseline", "tradeoff": "correction"}

    def test_canonical_spelling_never_warns(self, capsys):
        cli._request(build_parser().parse_args(
            ["campaign", "P-BICG", "--app-seed", "5",
             "--fault-seed", "6"]))
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("call,error", [
        *(pytest.param(lambda name=name: build_parser().parse_args(
            [name, "P-BICG", "--seed", "7"]), SystemExit, id=name)
          for name in HONOURED),
        # Fails on the keyword itself, before any argument is used.
        pytest.param(lambda: Campaign(None, None, scheme_name="baseline"),
                     TypeError, id="Campaign-scheme_name"),
    ])
    def test_removed_spellings_are_rejected(self, call, error, capsys):
        with pytest.raises(error) as exc:
            call()
        if error is SystemExit:
            assert exc.value.code == 2
            assert "--seed" in capsys.readouterr().err
        else:
            assert "scheme_name" in str(exc.value)

    @pytest.mark.parametrize("flags", [
        ["--runs", "0"], ["--jobs", "0"], ["--batch", "0"],
        ["--target-margin", "1.5"], ["--chunk-runs", "32"],
        ["--decisions", "d.jsonl"],
    ])
    def test_invalid_campaign_request_exits_4(self, flags):
        assert main(["campaign", "A-Laplacian", "--scale", "small",
                     *flags]) == 4

    @pytest.mark.parametrize("command, flags", [
        ("campaign", ["--runs", "8", "--protect", "nope=correction"]),
        ("sweep", ["--runs", "8", "--protects", "nope=correction"]),
        ("perf", ["--protect", "nope=correction"]),
    ])
    def test_unknown_protected_object_exits_4(self, command, flags,
                                              capsys):
        assert main([command, "P-BICG", "--scale", "small",
                     *flags]) == 4
        assert "cannot protect 'nope'" in capsys.readouterr().err


class TestOptimizeCommand:
    ARGS = ["P-BICG", "--scale", "small", "--objects", "1",
            "--runs", "16"]

    def test_json_is_the_library_result(self, capsys):
        from repro.core.request import EvaluationRequest
        from repro.search import optimize

        assert main(["optimize", *self.ARGS, "--json"]) == 0
        out = capsys.readouterr().out
        request = EvaluationRequest(app="P-BICG", scale="small",
                                    runs=16)
        expected = optimize(request=request, strategy="greedy",
                            objects=1)
        assert out == canonical_json(expected.to_dict()) + "\n"

    def test_max_evals_zero_exits_4(self, capsys):
        assert main(["optimize", *self.ARGS, "--max-evals", "0"]) == 4
        assert "max_evals" in capsys.readouterr().err

    def test_rejected_population_leaves_no_manifest(self, tmp_path):
        store = tmp_path / "search"
        argv = ["optimize", *self.ARGS, "--strategy", "random",
                "--checkpoint-dir", str(store), "--population"]
        assert main([*argv, "0"]) == 4
        assert not (store / "SEARCH.json").exists()
        assert main([*argv, "2"]) == 0

    def test_resume_without_dir_exits_4(self, capsys):
        assert main(["optimize", *self.ARGS, "--resume"]) == 4
        assert "--checkpoint-dir" in capsys.readouterr().err
