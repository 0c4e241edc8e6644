"""The JSONL record codec: schemas, one writer, one reader, one registry.

Five record streams are evidence for the campaign results and the
search: run telemetry (:class:`RunRecord`), fault provenance, adaptive
stop decisions, session events and the search trail.  Each *kind* is
registered in :data:`RECORD_KINDS` with its schema version, the marker
keys of its first line, its validator — a :class:`Schema` plus the
kind's cross-field invariants — and an optional whole-stream check.

Every stream is written by :class:`JsonlWriter` and read by
:func:`iter_jsonl`.  Lines are canonical JSON, so byte comparison is a
valid determinism check: records are merged into run-index order, and
a telemetry file is byte-identical for any worker count.  Wall-clock
data never enters a record; it lives in the
:class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator

from repro.errors import TelemetryError
from repro.faults.model import FaultSpec
from repro.faults.outcomes import Outcome
from repro.utils.canonical import canonical_json

#: Schema versions, bumped whenever a kind's shape changes
#: incompatibly.
RUN_RECORD_VERSION = 1
DECISION_RECORD_VERSION = 1
PROVENANCE_RECORD_VERSION = 1
SESSION_EVENT_VERSION = 1
TRAIL_VERSION = 1

#: The masking/detection cause taxonomy of provenance records.  Masked
#: runs: the stuck bits agree with the data underneath
#: (``value-agrees``), the word is on no read path (``dead-word``),
#: every read sees post-overwrite content the fault agrees with
#: (``overwritten-before-read``), the SECDED decode repaired the
#: cluster (``secded-corrected``), or corrupted data was really
#: consumed yet the output stayed within threshold (``tolerated``).
#: Loud runs: ``replica-detected`` (detection scheme mismatch),
#: ``secded-due`` (detected-uncorrectable ECC error), ``crash``.
#: ``replica-voted`` is the correction scheme repairing reads;
#: ``output-corrupted`` is SDC.
PROVENANCE_CAUSES = (
    "value-agrees",
    "dead-word",
    "overwritten-before-read",
    "tolerated",
    "secded-corrected",
    "secded-due",
    "replica-detected",
    "replica-voted",
    "output-corrupted",
    "crash",
)

#: How a provenance record's classification was established:
#: ``analytic`` lanes are decided from the golden evidence alone (the
#: batch engine skips execution for them), ``executed`` lanes ran the
#: application.  The label is a property of (faults, golden evidence)
#: — identical no matter which strategy actually produced the record.
EVIDENCE_KINDS = ("analytic", "executed")

#: Paper vocabulary for the fault site's object class.
REGIONS = ("hot", "rest")

#: Liveness exposure classes: the golden-timeline window of the object
#: (``dead``/``input``/``working``), or ``internal`` for objects
#: consumed only by scheme-internal reads the positional trace cannot
#: see.
LIVENESS_CLASSES = ("dead", "input", "working", "internal")

#: The closed vocabulary of session event kinds.
EVENT_KINDS = (
    "plan",         # session planned its work units
    "chunk",        # one chunk completed (source: run|checkpoint|serial)
    "retry",        # a chunk attempt failed and will be retried
    "timeout",      # a chunk attempt exceeded its deadline
    "fallback",     # the session degraded to in-process serial execution
    "early_stop",   # adaptive cells under target margin skipped chunks
    "progress",     # mirrored live-progress observation (detail field)
    "interrupted",  # the session stopped early with durable progress
    "finish",       # the session completed every planned chunk
)

#: Valid ``source`` values of a ``chunk`` session event.
CHUNK_SOURCES = ("run", "serial", "checkpoint")


# -- the field checker ---------------------------------------------------
class OneOf(frozenset):
    """Spec of a string field drawn from a closed vocabulary."""

    types = (str,)

    def check_value(self, value, key: str) -> None:
        """Raise :class:`TelemetryError` unless ``value`` fits."""
        if value not in self:
            raise TelemetryError(f"unknown {key} {value!r}")


@dataclass(frozen=True)
class ListOf:
    """Spec of a list whose entries are objects of ``schema``."""

    schema: "Schema"
    types = (list,)

    def check_value(self, value: list, key: str) -> None:
        """Raise :class:`TelemetryError` unless ``value`` fits."""
        for entry in value:
            self.schema.check(entry)


@dataclass(frozen=True)
class MapOf:
    """Spec of an object mapping names to values of type ``value``."""

    value: type
    types = (dict,)

    def check_value(self, value: dict, key: str) -> None:
        """Raise :class:`TelemetryError` unless ``value`` fits."""
        for name, item in value.items():
            if item.__class__ is not self.value \
                    or name.__class__ is not str:
                raise TelemetryError(
                    f"{key} must map names to {self.value.__name__}")


class Schema:
    """The typed shape of one JSON object: the one field checker.

    ``fields`` maps every required key to a spec: a JSON type or a
    tuple of types, a :class:`OneOf` vocabulary, a nested
    :class:`Schema` (a ``nullable`` one also accepts ``null``), or a
    :class:`ListOf`/:class:`MapOf`.  A value matches when its class is
    one the spec names — JSON decodes to exactly ``dict``, ``list``,
    ``str``, ``int``, ``float``, ``bool`` and ``None`` — which is the
    one bool rule at every depth: ``true`` is never an ``int``.
    ``version`` adds a required ``version`` key pinned to that value,
    checked first so a record from another schema version is reported
    as such; ``invariant`` states the cross-field rules and runs once
    every field has checked out.
    """

    def __init__(self, what: str, fields: dict, *, version=None,
                 invariant: Callable[[dict], None] | None = None,
                 nullable: bool = False):
        if version is not None:
            fields = {"version": int, **fields}
        self.what = what
        self.version = version
        self.invariant = invariant
        self.types = (dict, type(None)) if nullable else (dict,)
        self._classes = tuple(
            (key, frozenset(spec if isinstance(spec, tuple) else
                            (spec,) if isinstance(spec, type)
                            else spec.types))
            for key, spec in fields.items()
        )
        self._nested = tuple(
            (key, spec.check_value) for key, spec in fields.items()
            if not isinstance(spec, (type, tuple))
        )

    def check(self, data) -> None:
        """Raise :class:`TelemetryError` unless ``data`` fits."""
        if data.__class__ is not dict:
            raise TelemetryError(
                f"not a {self.what} (expected an object, got "
                f"{type(data).__name__})"
            )
        version = self.version
        if version is not None \
                and data.get("version", version) != version:
            raise TelemetryError(
                f"unsupported {self.what} version {data['version']!r} "
                f"(expected {version})"
            )
        for key, classes in self._classes:
            try:
                cls = data[key].__class__
            except KeyError:
                raise TelemetryError(
                    f"{self.what} missing key {key!r}") from None
            if cls not in classes:
                raise TelemetryError(
                    f"{self.what} key {key!r} has type {cls.__name__}")
        for key, check_value in self._nested:
            check_value(data[key], key)
        if self.invariant is not None:
            self.invariant(data)

    def check_value(self, value, key: str) -> None:
        """Raise :class:`TelemetryError` unless ``value`` fits."""
        if value is not None:
            self.check(value)


# -- cross-field invariants ----------------------------------------------
def _non_negative(data: dict, *keys: str) -> None:
    for key in keys:
        if data[key] is not None and data[key] < 0:
            raise TelemetryError(f"{key} must be non-negative")


def _bits_match_values(entry: dict) -> None:
    if len(entry["bit_positions"]) != len(entry["stuck_values"]):
        raise TelemetryError("fault site bit/value length mismatch")


def _decision_invariants(data: dict) -> None:
    if data["committed"] <= 0:
        raise TelemetryError("decision committed count must be positive")
    if not 0 <= data["sdc"] <= data["committed"]:
        raise TelemetryError("decision sdc count outside [0, committed]")


def _provenance_invariants(data: dict) -> None:
    _non_negative(data, "run_index", "corrupted_reads",
                  "first_corrupted_read")
    if (data["first_corrupted_read"] is None) \
            != (data["corrupted_reads"] == 0):
        raise TelemetryError(
            "first_corrupted_read and corrupted_reads disagree on "
            "whether any read consumed corrupted bytes"
        )
    if any(n <= 0 for n in data["consumers"].values()):
        raise TelemetryError(
            "consumers must map object name -> positive read count")


def _chunk_source(data: dict) -> None:
    if data["kind"] == "chunk" and data["source"] not in CHUNK_SOURCES:
        raise TelemetryError(
            f"chunk event source {data['source']!r} not in "
            f"{CHUNK_SOURCES}"
        )


# -- schemas -------------------------------------------------------------
#: One injected fault cluster of a run record.
FAULT_SCHEMA = Schema("fault entry", {
    "block_addr": int,
    "word_index": int,
    "bit_positions": list,
    "stuck_values": list,
}, invariant=_bits_match_values)

#: The fields that place one run in its campaign, shared by the run
#: and provenance records.
RUN_IDENTITY = {
    "run_index": int,
    "seed": int,
    "app": str,
    "scheme": str,
    "selection": str,
    "n_blocks": int,
    "n_bits": int,
    "outcome": OneOf(o.value for o in Outcome),
}

RUN_RECORD_SCHEMA = Schema("run record", {
    **RUN_IDENTITY,
    "error": (int, float),
    "detail": str,
    "faults": ListOf(FAULT_SCHEMA),
    "counters": MapOf(int),
}, version=RUN_RECORD_VERSION,
    invariant=lambda record: _non_negative(record, "run_index"))

#: A decision's embedded interval image
#: (:meth:`repro.utils.stats.ConfidenceInterval.to_dict`).
INTERVAL_SCHEMA = Schema("decision interval", {
    "proportion": (int, float),
    "margin": (int, float),
    "low": (int, float),
    "high": (int, float),
    "level": (int, float),
    "runs": int,
})

DECISION_RECORD_SCHEMA = Schema("decision", {
    "committed": int,
    "sdc": int,
    "stop": bool,
    "interval": INTERVAL_SCHEMA,
}, version=DECISION_RECORD_VERSION, invariant=_decision_invariants)

#: One fault site of a provenance record.
SITE_SCHEMA = Schema("site", {
    "object": str,
    "region": OneOf(REGIONS),
    "liveness": OneOf(LIVENESS_CLASSES),
    "block_addr": int,
    "word_index": int,
    "byte_offset": int,
    "bit_positions": list,
    "stuck_values": list,
    "visible": bool,
}, invariant=_bits_match_values)

PROVENANCE_RECORD_SCHEMA = Schema("provenance record", {
    **RUN_IDENTITY,
    "evidence": OneOf(EVIDENCE_KINDS),
    "cause": OneOf(PROVENANCE_CAUSES),
    "sites": ListOf(SITE_SCHEMA),
    "first_corrupted_read": (int, type(None)),
    "corrupted_reads": int,
    "consumers": MapOf(int),
    "detection": Schema("detection", {
        "object": str,
        "read_position": int,
    }, nullable=True),
}, version=PROVENANCE_RECORD_VERSION, invariant=_provenance_invariants)

SESSION_EVENT_SCHEMA = Schema("session event", {
    "seq": int,
    "kind": OneOf(EVENT_KINDS),
    "cell": str,
    "start": int,
    "stop": int,
    "attempt": int,
    "source": str,
    "detail": str,
}, version=SESSION_EVENT_VERSION, invariant=_chunk_source)

#: The search trail's two line types, keyed by their ``type`` value.
TRAIL_LINE_SCHEMAS = {
    "search": Schema("trail header", {
        "type": str,
        "app": str,
        "space": dict,
        "strategy": str,
        "search_seed": int,
    }, version=TRAIL_VERSION),
    "round": Schema("trail round", {
        "type": str,
        "round": int,
        "proposed": int,
        "new": int,
        "cached": int,
        "evaluations": list,
        "front": list,
    }),
}


# -- validators: one per kind --------------------------------------------
validate_record = RUN_RECORD_SCHEMA.check
validate_decision = DECISION_RECORD_SCHEMA.check
validate_provenance = PROVENANCE_RECORD_SCHEMA.check
validate_event = SESSION_EVENT_SCHEMA.check


def validate_trail_line(doc) -> None:
    """Validate one search-trail line against its ``type``'s schema."""
    line_type = doc.get("type") if isinstance(doc, dict) else None
    if not isinstance(line_type, str):
        raise TelemetryError(f"not a trail line: {doc!r}")
    if line_type not in TRAIL_LINE_SCHEMAS:
        raise TelemetryError(f"unknown trail line type {line_type!r}")
    TRAIL_LINE_SCHEMAS[line_type].check(doc)


def _seq_continuity(index: int, event: dict) -> None:
    if event["seq"] != index:
        raise TelemetryError(
            f"sequence gap (got {event['seq']}, expected {index})")


def _header_first(index: int, line: dict) -> None:
    expected = "round" if index else "search"
    if line["type"] != expected:
        raise TelemetryError(
            f"expected a {expected} line, got {line['type']!r}")


@dataclass(frozen=True)
class RecordKind:
    """One registered JSONL record kind."""

    version: int
    #: Keys whose joint presence identifies the kind's first line.
    markers: tuple[str, ...]
    #: Per-line validator; raises :class:`TelemetryError`.
    validate: Callable[[dict], None]
    #: Whole-stream rule, called with each record's index in the
    #: stream; raises :class:`TelemetryError`.
    check_stream: Callable[[int, dict], None] | None = None


#: Every JSONL record kind, in first-line detection order.
RECORD_KINDS: dict[str, RecordKind] = {
    "runs": RecordKind(RUN_RECORD_VERSION, ("faults", "counters"),
                       validate_record),
    "provenance": RecordKind(PROVENANCE_RECORD_VERSION,
                             ("cause", "sites"), validate_provenance),
    "decisions": RecordKind(DECISION_RECORD_VERSION,
                            ("committed", "interval"), validate_decision),
    "session": RecordKind(SESSION_EVENT_VERSION, ("seq", "kind"),
                          validate_event, _seq_continuity),
    "trail": RecordKind(TRAIL_VERSION, ("type", "strategy"),
                        validate_trail_line, _header_first),
}


# -- the reader ----------------------------------------------------------
def iter_jsonl(source: str | os.PathLike | Iterable[str], kind: str,
               label: str | None = None) -> Iterator[dict]:
    """Yield the validated records of one ``kind`` stream, lazily.

    ``source`` is a file path or an iterable of lines (``repro stats
    -`` feeds stdin).  Blank lines are skipped; each other line is
    parsed, validated and checked against the stream rule, and any
    failure raises :class:`TelemetryError` prefixed ``label:lineno:``
    (``label`` defaults to the path).
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from iter_jsonl(fh, kind, label or os.fspath(source))
        return
    codec = RECORD_KINDS[kind]
    label = label or "<stream>"
    index = 0
    for lineno, line in enumerate(source, 1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryError(
                f"{label}:{lineno}: not valid JSON ({exc})") from None
        try:
            codec.validate(data)
            if codec.check_stream is not None:
                codec.check_stream(index, data)
        except TelemetryError as exc:
            raise TelemetryError(f"{label}:{lineno}: {exc}") from None
        index += 1
        yield data


# -- the writer ----------------------------------------------------------
class JsonlWriter:
    """The one JSONL sink: one canonical-JSON line per record.

    A record is a dict or anything with ``to_dict()``.  :meth:`write`
    appends one line and flushes it, so a stream written line by line
    (the session log, the search trail) leaves a valid prefix when
    interrupted; :meth:`write_all` appends a whole result, in the
    order given.  The file is created on construction; use as a
    context manager.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh: IO[str] | None = open(path, "w", encoding="utf-8",
                                        newline="\n")
        self.n_written = 0

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def write(self, record) -> None:
        """Append one record as a canonical JSON line and flush it."""
        self.write_all((record,))
        self._fh.flush()

    def write_all(self, records: Iterable) -> int:
        """Append every record; returns how many were written."""
        n = 0
        for record in records:
            if not isinstance(record, dict):
                record = record.to_dict()
            self._fh.write(canonical_json(record) + "\n")
            n += 1
        self.n_written += n
        return n

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# -- run records ---------------------------------------------------------
@dataclass(frozen=True)
class RunRecord:
    """The deterministic telemetry of one fault-injection run."""

    run_index: int
    seed: int
    app: str
    scheme: str
    selection: str
    n_blocks: int
    n_bits: int
    outcome: str
    error: float
    detail: str
    faults: tuple[FaultSpec, ...]
    #: Scheme counters (sorted name/value pairs) observed after the run.
    counters: tuple[tuple[str, int], ...] = ()

    def to_dict(self) -> dict:
        """The record as a JSON-ready plain dict."""
        return {
            "version": RUN_RECORD_VERSION,
            "run_index": self.run_index,
            "seed": self.seed,
            "app": self.app,
            "scheme": self.scheme,
            "selection": self.selection,
            "n_blocks": self.n_blocks,
            "n_bits": self.n_bits,
            "outcome": self.outcome,
            "error": self.error,
            "detail": self.detail,
            "faults": [
                {
                    "block_addr": f.block_addr,
                    "word_index": f.word_index,
                    "bit_positions": list(f.bit_positions),
                    "stuck_values": list(f.stuck_values),
                }
                for f in self.faults
            ],
            "counters": {name: value for name, value in self.counters},
        }

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, fixed separators)."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """Rebuild a record from a validated :meth:`to_dict` image."""
        validate_record(data)
        return cls(
            run_index=data["run_index"],
            seed=data["seed"],
            app=data["app"],
            scheme=data["scheme"],
            selection=data["selection"],
            n_blocks=data["n_blocks"],
            n_bits=data["n_bits"],
            outcome=data["outcome"],
            error=float(data["error"]),
            detail=data["detail"],
            faults=tuple(
                FaultSpec(
                    f["block_addr"],
                    f["word_index"],
                    tuple(f["bit_positions"]),
                    tuple(f["stuck_values"]),
                )
                for f in data["faults"]
            ),
            counters=tuple(sorted(data["counters"].items())),
        )


class TelemetryWriter(JsonlWriter):
    """Append-only JSONL sink for :class:`RunRecord` streams."""

    def write_result(self, result) -> int:
        """Append every record of a campaign result; returns the count.

        ``result`` is a :class:`~repro.faults.campaign.CampaignResult`
        executed with ``collect_records=True``; its ``records`` list is
        already merged into run-index order by the executor.
        """
        if not result.records:
            raise TelemetryError(
                f"{result.app_name}: no telemetry records collected "
                "(campaign must run with collect_records=True)"
            )
        return self.write_all(result.records)


def iter_records(path: str) -> Iterator[dict]:
    """Yield validated record dicts from a telemetry JSONL file."""
    return iter_jsonl(path, "runs")


def read_records(path: str) -> list[dict]:
    """Load and validate every record of a telemetry JSONL file."""
    return list(iter_jsonl(path, "runs"))


def write_decisions(path: str, decisions: Iterable) -> int:
    """Write an adaptive campaign's stop-decision trail as JSONL.

    ``decisions`` is the
    :attr:`~repro.faults.adaptive.AdaptiveResult.decisions` list; each
    becomes one canonical JSON line, so the file — like run telemetry —
    is byte-identical for any worker count or batch size.  Returns the
    number of lines written.
    """
    with JsonlWriter(path) as writer:
        return writer.write_all(
            {"version": DECISION_RECORD_VERSION, **decision.to_dict()}
            for decision in decisions
        )


def read_decisions(path: str) -> list[dict]:
    """Load and validate a stop-decision JSONL file."""
    return list(iter_jsonl(path, "decisions"))
