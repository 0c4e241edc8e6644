"""Tests for telemetry run records: schema, writer, reader."""

import json

import pytest

from repro.faults.model import FaultSpec
from repro.obs.records import (
    RUN_RECORD_VERSION,
    RunRecord,
    TelemetryError,
    TelemetryWriter,
    iter_records,
    read_records,
    validate_record,
)


def make_record(run_index=0, **overrides):
    kwargs = dict(
        run_index=run_index,
        seed=12345,
        app="P-BICG",
        scheme="correction",
        selection="uniform",
        n_blocks=1,
        n_bits=2,
        outcome="masked",
        error=0.25,
        detail="",
        faults=(FaultSpec(4096, 3, (1, 9), (1, 0)),),
        counters=(("corrected_reads", 0),),
    )
    kwargs.update(overrides)
    return RunRecord(**kwargs)


class TestCanonicalJson:
    def test_single_line_sorted_compact(self):
        text = make_record().to_json()
        assert "\n" not in text
        assert ": " not in text and ", " not in text
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_same_record_same_bytes(self):
        assert make_record().to_json() == make_record().to_json()

    def test_roundtrip(self):
        rec = make_record()
        again = RunRecord.from_dict(json.loads(rec.to_json()))
        assert again == rec

    def test_version_stamped(self):
        assert json.loads(make_record().to_json())["version"] == \
            RUN_RECORD_VERSION


class TestValidation:
    def test_valid_record_passes(self):
        validate_record(make_record().to_dict())

    def test_missing_key_rejected(self):
        data = make_record().to_dict()
        del data["seed"]
        with pytest.raises(TelemetryError):
            validate_record(data)

    def test_wrong_type_rejected(self):
        data = make_record().to_dict()
        data["run_index"] = "zero"
        with pytest.raises(TelemetryError):
            validate_record(data)

    def test_bool_is_not_an_int(self):
        data = make_record().to_dict()
        data["n_bits"] = True
        with pytest.raises(TelemetryError):
            validate_record(data)

    def test_unknown_outcome_rejected(self):
        data = make_record().to_dict()
        data["outcome"] = "exploded"
        with pytest.raises(TelemetryError):
            validate_record(data)

    def test_wrong_version_rejected(self):
        data = make_record().to_dict()
        data["version"] = RUN_RECORD_VERSION + 1
        with pytest.raises(TelemetryError):
            validate_record(data)

    def test_negative_run_index_rejected(self):
        data = make_record().to_dict()
        data["run_index"] = -1
        with pytest.raises(TelemetryError):
            validate_record(data)

    def test_malformed_fault_rejected(self):
        data = make_record().to_dict()
        data["faults"][0].pop("word_index")
        with pytest.raises(TelemetryError):
            validate_record(data)

    def test_fault_bit_value_mismatch_rejected(self):
        data = make_record().to_dict()
        data["faults"][0]["stuck_values"] = [1]
        with pytest.raises(TelemetryError):
            validate_record(data)

    @pytest.mark.parametrize("nested", ["fault", "counter"])
    def test_bool_is_not_an_int_when_nested(self, nested):
        data = make_record().to_dict()
        if nested == "fault":
            data["faults"][0]["block_addr"] = True
        else:
            data["counters"]["c"] = True
        with pytest.raises(TelemetryError):
            validate_record(data)

    def test_bad_counter_value_rejected(self):
        data = make_record().to_dict()
        data["counters"]["corrected_reads"] = 1.5
        with pytest.raises(TelemetryError):
            validate_record(data)


class TestWriterReader:
    def test_write_then_read(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetryWriter(path) as writer:
            for i in range(3):
                writer.write(make_record(run_index=i))
        assert writer.n_written == 3
        loaded = read_records(path)
        assert [r["run_index"] for r in loaded] == [0, 1, 2]

    def test_reader_rejects_junk_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(make_record().to_json() + "\nnot json\n")
        with pytest.raises(TelemetryError, match="not valid JSON"):
            list(iter_records(str(path)))

    def test_reader_rejects_invalid_record(self, tmp_path):
        data = make_record().to_dict()
        data["outcome"] = "meh"
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(data) + "\n")
        with pytest.raises(TelemetryError, match="outcome"):
            read_records(str(path))

    def test_reader_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n" + make_record().to_json() + "\n\n")
        assert len(read_records(str(path))) == 1

    def test_write_result_requires_records(self, tmp_path):
        from repro.faults.campaign import CampaignConfig, CampaignResult

        empty = CampaignResult("A", "baseline", "uniform",
                               CampaignConfig(runs=1))
        with TelemetryWriter(str(tmp_path / "t.jsonl")) as writer:
            with pytest.raises(TelemetryError, match="collect_records"):
                writer.write_result(empty)
