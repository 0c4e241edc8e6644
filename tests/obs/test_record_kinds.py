"""One contract for every registered JSONL record kind.

Each kind in :data:`~repro.obs.records.RECORD_KINDS` is written by its
own writer and read back through the one codec: the round trip is
lossless, the file is exactly the records' canonical JSON, the store
detects the kind from the first line, and a record one schema version
ahead is refused by the reader and by store ingest alike.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.errors import StoreError, TelemetryError
from repro.faults.adaptive import StopDecision
from repro.faults.model import FaultSpec
from repro.obs.provenance import (
    ProvenanceRecord,
    ProvenanceSite,
    ProvenanceWriter,
    read_provenance,
)
from repro.obs.records import (
    RECORD_KINDS,
    RunRecord,
    TelemetryWriter,
    iter_jsonl,
    read_decisions,
    read_records,
    write_decisions,
)
from repro.obs.search import SearchTrailWriter, read_search_trail
from repro.obs.session import SessionLog, read_session_events
from repro.obs.store import KINDS, ResultsStore, detect_kind
from repro.utils.canonical import canonical_json
from repro.utils.stats import confidence_interval

STORE_KINDS = [kind for kind in RECORD_KINDS if kind in KINDS]


def write_runs(path):
    records = [
        RunRecord(run_index=i, seed=100 + i, app="P-BICG",
                  scheme="detection", selection="uniform", n_blocks=1,
                  n_bits=2, outcome="masked", error=0.5 * i, detail="",
                  faults=(FaultSpec(4096, i, (1, 9), (1, 0)),),
                  counters=(("comparisons", i),))
        for i in range(3)
    ]
    with TelemetryWriter(str(path)) as writer:
        writer.write_result(SimpleNamespace(records=records, app_name="A"))
    return [r.to_dict() for r in records]


def write_provenance(path):
    records = [
        ProvenanceRecord(
            run_index=i, seed=7 + i, app="P-BICG", scheme="detection",
            selection="uniform", n_blocks=1, n_bits=2,
            outcome="detected", evidence="analytic",
            cause="replica-detected",
            sites=(ProvenanceSite(
                object="A", region="hot", liveness="input",
                block_addr=128, word_index=4, byte_offset=16,
                bit_positions=(3, 17), stuck_values=(1, 0), visible=True,
            ),),
            first_corrupted_read=i, corrupted_reads=2,
            consumers=(("A", 2),), detection=("A", i),
        )
        for i in range(3)
    ]
    with ProvenanceWriter(str(path)) as writer:
        writer.write_result(
            SimpleNamespace(provenance=records, app_name="A"))
    return [r.to_dict() for r in records]


def write_decision_trail(path):
    decisions = [
        StopDecision(committed=n, sdc=1,
                     interval=confidence_interval(1, n), stop=n == 48)
        for n in (16, 32, 48)
    ]
    write_decisions(str(path), decisions)
    return [{"version": 1, **d.to_dict()} for d in decisions]


def write_session(path):
    with SessionLog(str(path)) as log:
        events = [log.emit("plan", detail="1 cell"),
                  log.emit("chunk", cell="c", start=0, stop=8,
                           source="run"),
                  log.emit("finish")]
    return [e.to_dict() for e in events]


def write_trail(path):
    header = {"app": "P-BICG", "space": {"objects": ["A"]},
              "strategy": "greedy", "search_seed": 1}
    rounds = [{"round": i, "proposed": 2, "new": 1, "cached": 1,
               "evaluations": [], "front": ["d"]} for i in range(2)]
    with SearchTrailWriter(str(path)) as writer:
        writer.write_header(header)
        for doc in rounds:
            writer.write_round(doc)
    return [{"type": "search", "version": 1, **header}] \
        + [{"type": "round", **doc} for doc in rounds]


#: Per kind: its writer (returns the records it wrote, as dicts) and
#: its public reader.
STREAMS = {
    "runs": (write_runs, read_records),
    "provenance": (write_provenance, read_provenance),
    "decisions": (write_decision_trail, read_decisions),
    "session": (write_session, read_session_events),
    "trail": (write_trail, read_search_trail),
}


def test_every_kind_has_a_stream_case():
    assert set(STREAMS) == set(RECORD_KINDS)


@pytest.mark.parametrize("kind", sorted(RECORD_KINDS))
def test_round_trip(kind, tmp_path):
    write, read = STREAMS[kind]
    path = tmp_path / f"{kind}.jsonl"
    records = write(path)
    assert read(str(path)) == records
    assert list(iter_jsonl(str(path), kind)) == records


@pytest.mark.parametrize("kind", sorted(RECORD_KINDS))
def test_lines_are_canonical_json(kind, tmp_path):
    write, _ = STREAMS[kind]
    path = tmp_path / f"{kind}.jsonl"
    records = write(path)
    assert path.read_bytes() == "".join(
        canonical_json(r) + "\n" for r in records).encode("utf-8")


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_store_detects_kind(kind, tmp_path):
    write, _ = STREAMS[kind]
    path = tmp_path / f"{kind}.jsonl"
    write(path)
    assert detect_kind(str(path)) == kind


def future_version_file(kind, tmp_path):
    """The kind's stream with its first record one version ahead."""
    write, _ = STREAMS[kind]
    path = tmp_path / f"{kind}.jsonl"
    records = write(path)
    records[0]["version"] = RECORD_KINDS[kind].version + 1
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


@pytest.mark.parametrize("kind", sorted(RECORD_KINDS))
def test_reader_refuses_future_version(kind, tmp_path):
    path = future_version_file(kind, tmp_path)
    with pytest.raises(TelemetryError, match=r":1: unsupported .*version"):
        list(iter_jsonl(str(path), kind))


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_ingest_refuses_future_version(kind, tmp_path):
    path = future_version_file(kind, tmp_path)
    with ResultsStore(str(tmp_path / "w.db")) as store:
        with pytest.raises(StoreError,
                           match=rf"{kind}\.jsonl:1: unsupported"):
            store.ingest(str(path))
        assert store.cells() == []
