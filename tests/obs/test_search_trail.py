"""Tests for the search-trail JSONL writer and reader."""

import pytest

from repro.errors import TelemetryError
from repro.obs.records import validate_trail_line
from repro.obs.search import SearchTrailWriter, read_search_trail

HEADER = {"app": "P-BICG", "space": {"objects": ["p"]},
          "strategy": "greedy", "search_seed": 1}
ROUND = {"round": 0, "proposed": 1, "new": 1, "cached": 0,
         "evaluations": [], "front": []}


def write_trail(path, rounds=1):
    with SearchTrailWriter(str(path)) as writer:
        writer.write_header(dict(HEADER))
        for index in range(rounds):
            writer.write_round({**ROUND, "round": index})
    return writer


class TestWriter:
    def test_counts_lines(self, tmp_path):
        writer = write_trail(tmp_path / "t.jsonl", rounds=3)
        assert writer.n_written == 4

    def test_lines_are_canonical_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trail(path)
        raw = path.read_text(encoding="utf-8").splitlines()
        assert raw[0].startswith('{"app":"P-BICG"')
        assert '"type":"search"' in raw[0]
        assert '"version":1' in raw[0]

    def test_close_is_idempotent(self, tmp_path):
        writer = write_trail(tmp_path / "t.jsonl")
        writer.close()
        writer.close()


class TestReader:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trail(path, rounds=2)
        lines = read_search_trail(str(path))
        assert [line["type"] for line in lines] == \
            ["search", "round", "round"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TelemetryError, match="empty"):
            read_search_trail(str(path))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with SearchTrailWriter(str(path)) as writer:
            writer.write_round(dict(ROUND))
        with pytest.raises(TelemetryError, match="expected a search"):
            read_search_trail(str(path))

    def test_second_header_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with SearchTrailWriter(str(path)) as writer:
            writer.write_header(dict(HEADER))
            writer.write_header(dict(HEADER))
        with pytest.raises(TelemetryError, match="expected a round"):
            read_search_trail(str(path))

    def test_non_json_names_the_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trail(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        with pytest.raises(TelemetryError, match=":3"):
            read_search_trail(str(path))


class TestValidation:
    def test_header_requires_keys(self):
        with pytest.raises(TelemetryError, match="missing key"):
            validate_trail_line({"type": "search", "version": 1})

    def test_version_pinned(self):
        doc = {"type": "search", "version": 999, **HEADER}
        with pytest.raises(TelemetryError, match="version"):
            validate_trail_line(doc)

    def test_round_requires_keys(self):
        with pytest.raises(TelemetryError, match="missing key"):
            validate_trail_line({"type": "round", "round": 0})

    def test_round_fields_are_typed(self):
        doc = {"type": "round", **ROUND, "round": "x", "evaluations": 3}
        with pytest.raises(TelemetryError, match="'round' has type str"):
            validate_trail_line(doc)

    def test_header_version_bool_rejected(self):
        doc = {"type": "search", **HEADER, "version": True}
        with pytest.raises(TelemetryError, match="has type bool"):
            validate_trail_line(doc)

    def test_unknown_type_rejected(self):
        with pytest.raises(TelemetryError, match="unknown trail"):
            validate_trail_line({"type": "mystery"})

    def test_non_dict_rejected(self):
        with pytest.raises(TelemetryError, match="not a trail"):
            validate_trail_line(["nope"])
