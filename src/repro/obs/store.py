"""Results warehouse: a queryable SQLite store for campaign corpora.

The repo's telemetry surfaces are append-only files — run-record
JSONL, provenance JSONL, session event logs, adaptive stop-decision
trails, ``BENCH_*.json`` snapshots.  Each is canonical JSON and
byte-identical at any ``--jobs``/``--batch``, which makes them perfect
warehouse feedstock: a *cell* (one coherent record stream) is keyed by
the content address of its canonical records
(:func:`repro.utils.canonical.canonical_digest`), so ingesting the
same campaign output twice — or the same campaign re-run at a
different parallelism — is an idempotent no-op.  That content-
addressed dedup is the substrate a fleet-scale job API can sit on:
workers push files at will, the store keeps one copy of each result.

Every row also stores its record's canonical-JSON line verbatim, so
:meth:`ResultsStore.export` reproduces the source JSONL byte-for-byte
— ingest → export round-trips are part of the test suite's
determinism contract.

All failures (unreadable file, schema-version mismatch, truncated or
corrupt JSONL, unknown cell) raise :class:`~repro.errors.StoreError`,
which the CLI maps to exit code 7.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Iterable

from repro.errors import StoreError, TelemetryError
from repro.obs.records import RECORD_KINDS, iter_jsonl
from repro.utils.canonical import canonical_digest, canonical_json
from repro.utils.stats import confidence_interval, zero_run_interval

#: Bumped whenever the warehouse table layout changes incompatibly.
STORE_SCHEMA_VERSION = 1

#: The record kinds the warehouse understands: four JSONL kinds of the
#: record codec plus whole-file bench snapshots.  ``ingest`` sniffs the
#: kind from the file's first record when not told explicitly.
KINDS = ("runs", "provenance", "decisions", "session", "bench")

#: The ``meta`` key stamping each JSONL kind's schema version.
_VERSION_STAMPS = {
    "runs": "run_record_version",
    "provenance": "provenance_record_version",
    "decisions": "decision_record_version",
    "session": "session_event_version",
}

_TABLES = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE cells (
    digest    TEXT PRIMARY KEY,
    kind      TEXT NOT NULL,
    label     TEXT NOT NULL,
    app       TEXT NOT NULL DEFAULT '',
    scheme    TEXT NOT NULL DEFAULT '',
    selection TEXT NOT NULL DEFAULT '',
    n_blocks  INTEGER NOT NULL DEFAULT 0,
    n_bits    INTEGER NOT NULL DEFAULT 0,
    rows      INTEGER NOT NULL,
    source    TEXT NOT NULL
);
CREATE TABLE runs (
    cell      TEXT NOT NULL,
    run_index INTEGER NOT NULL,
    seed      INTEGER NOT NULL,
    outcome   TEXT NOT NULL,
    error     REAL NOT NULL,
    record    TEXT NOT NULL,
    PRIMARY KEY (cell, run_index)
);
CREATE TABLE provenance (
    cell      TEXT NOT NULL,
    run_index INTEGER NOT NULL,
    object    TEXT NOT NULL,
    cause     TEXT NOT NULL,
    evidence  TEXT NOT NULL,
    outcome   TEXT NOT NULL,
    record    TEXT NOT NULL,
    PRIMARY KEY (cell, run_index)
);
CREATE TABLE decisions (
    cell      TEXT NOT NULL,
    seq       INTEGER NOT NULL,
    committed INTEGER NOT NULL,
    sdc       INTEGER NOT NULL,
    stop      INTEGER NOT NULL,
    margin    REAL NOT NULL,
    record    TEXT NOT NULL,
    PRIMARY KEY (cell, seq)
);
CREATE TABLE session_events (
    cell   TEXT NOT NULL,
    seq    INTEGER NOT NULL,
    kind   TEXT NOT NULL,
    record TEXT NOT NULL,
    PRIMARY KEY (cell, seq)
);
CREATE TABLE bench (
    cell   TEXT PRIMARY KEY,
    name   TEXT NOT NULL,
    record TEXT NOT NULL
);
"""

#: Per kind: the table holding its rows, the column :meth:`export`
#: orders them by, and the indexed columns stored beside each record's
#: canonical line, with their values from (position in cell, record).
_ROWS = {
    "runs": ("runs", "run_index", "run_index, seed, outcome, error",
             lambda i, r: (r["run_index"], r["seed"], r["outcome"],
                           float(r["error"]))),
    "provenance": (
        "provenance", "run_index",
        "run_index, object, cause, evidence, outcome",
        lambda i, r: (r["run_index"],
                      r["sites"][0]["object"] if r["sites"] else "",
                      r["cause"], r["evidence"], r["outcome"])),
    "decisions": ("decisions", "seq", "seq, committed, sdc, stop, margin",
                  lambda i, r: (i, r["committed"], r["sdc"],
                                int(r["stop"]),
                                float(r["interval"]["margin"]))),
    "session": ("session_events", "seq", "seq, kind",
                lambda i, r: (r["seq"], r["kind"])),
    "bench": ("bench", "rowid", "name", None),
}


def _meta_stamps() -> dict[str, str]:
    """Version stamps written into ``meta`` when a store is created,
    so a report (and any future reader) can state exactly which
    schemas the corpus was validated against.  Computed lazily: the
    package ``__version__`` is not yet bound while ``repro.obs`` is
    importing."""
    import repro

    return {
        "store_schema_version": str(STORE_SCHEMA_VERSION),
        "repro_version": repro.__version__,
        **{stamp: str(RECORD_KINDS[kind].version)
           for kind, stamp in _VERSION_STAMPS.items()},
    }


def _group_key(record: dict) -> tuple:
    """The run-cell identity of one run/provenance record."""
    return (record["app"], record["scheme"], record["selection"],
            record["n_blocks"], record["n_bits"])


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def detect_kind(path: str) -> str:
    """Sniff a file's record kind from its first record.

    A JSONL kind is recognized by the registry's marker keys on the
    file's first non-blank line; only when none match is the whole
    file parsed, and one JSON object is a bench snapshot.  Raises
    :class:`StoreError` when nothing matches.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = _parse(next((ln for ln in fh if ln.strip()), ""))
            if isinstance(first, dict):
                for kind, codec in RECORD_KINDS.items():
                    if all(key in first for key in codec.markers):
                        return kind
            fh.seek(0)
            whole = _parse(fh.read())
    except OSError as exc:
        raise StoreError(f"cannot read {path}: {exc}") from None
    if isinstance(whole, dict):
        return "bench"
    raise StoreError(
        f"{path}: cannot detect record kind (expected one of {KINDS}; "
        "pass --kind to override)"
    )


class ResultsStore:
    """A SQLite-backed, content-addressed warehouse of campaign results.

    Usable as a context manager; all mutation happens inside
    :meth:`ingest`, one transaction per source file.  The store keeps
    the schema-version stamps of the code that created it and refuses
    to open a store written under a different
    :data:`STORE_SCHEMA_VERSION`.
    """

    def __init__(self, path: str):
        self.path = str(path)
        try:
            self._conn = sqlite3.connect(self.path)
        except sqlite3.Error as exc:
            raise StoreError(
                f"cannot open store {self.path}: {exc}"
            ) from None
        try:
            self._initialize()
        except StoreError:
            self._conn.close()
            raise
        except sqlite3.Error as exc:
            self._conn.close()
            raise StoreError(
                f"{self.path} is not a results store: {exc}"
            ) from None

    # -- lifecycle ------------------------------------------------------
    def _initialize(self) -> None:
        has_meta = self._conn.execute(
            "SELECT name FROM sqlite_master "
            "WHERE type='table' AND name='meta'"
        ).fetchone()
        if has_meta is None:
            if self._conn.execute(
                    "SELECT name FROM sqlite_master").fetchone():
                raise StoreError(
                    f"{self.path} is a SQLite database but not a "
                    "results store"
                )
            with self._conn:
                self._conn.executescript(_TABLES)
                self._conn.executemany(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    sorted(_meta_stamps().items()),
                )
            return
        found = self._meta_value("store_schema_version")
        if found != str(STORE_SCHEMA_VERSION):
            raise StoreError(
                f"{self.path}: store schema version {found!r} "
                f"(this build reads {STORE_SCHEMA_VERSION})"
            )

    def _meta_value(self, key: str) -> str | None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- ingest ---------------------------------------------------------
    def ingest(self, path: str, kind: str | None = None) -> list[dict]:
        """Ingest one source file; returns one receipt per cell.

        ``kind`` overrides :func:`detect_kind`.  Each receipt is
        ``{"digest", "kind", "label", "rows", "deduped"}`` —
        ``deduped=True`` marks a cell whose content address already
        exists, in which case nothing is written (the idempotent
        no-op re-ingesting any already-warehoused file produces).
        Any unreadable, truncated, or schema-invalid source raises
        :class:`StoreError` with the offending ``path:lineno``.
        """
        if kind is None:
            kind = detect_kind(path)
        if kind not in KINDS:
            raise StoreError(f"unknown record kind {kind!r} "
                             f"(expected one of {KINDS})")
        try:
            if kind == "bench":
                cells = [self._load_bench(path)]
            else:
                cells = self._load_jsonl(path, kind)
        except OSError as exc:
            raise StoreError(f"cannot read {path}: {exc}") from None
        except TelemetryError as exc:
            raise StoreError(str(exc)) from None
        receipts = []
        try:
            with self._conn:
                for cell in cells:
                    receipts.append(self._store_cell(path, cell))
        except sqlite3.Error as exc:
            raise StoreError(
                f"ingest of {path} failed: {exc}"
            ) from None
        return receipts

    def _load_jsonl(self, path: str, kind: str) -> list[dict]:
        """Parse + validate one JSONL source into cell dicts."""
        records = list(iter_jsonl(path, kind))
        if not records:
            raise StoreError(f"{path}: no records to ingest")
        label = os.path.splitext(os.path.basename(path))[0]
        if kind in ("runs", "provenance"):
            # One cell per campaign identity, in first-seen order;
            # record order inside a cell is file order (ascending run
            # index), which export reproduces.
            groups: dict[tuple, list[dict]] = {}
            for record in records:
                groups.setdefault(_group_key(record), []).append(record)
            return [
                {
                    "kind": kind,
                    "records": rows,
                    "label": f"{key[0]}~{key[1]}~{key[2]}"
                             f"~{key[3]}x{key[4]}",
                    "identity": key,
                }
                for key, rows in groups.items()
            ]
        return [{"kind": kind, "records": records, "label": label,
                 "identity": None}]

    def _load_bench(self, path: str) -> dict:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                snapshot = json.load(fh)
            except json.JSONDecodeError as exc:
                raise StoreError(
                    f"{path}: not valid JSON ({exc})"
                ) from None
        if not isinstance(snapshot, dict):
            raise StoreError(f"{path}: bench snapshot must be an object")
        name = os.path.splitext(os.path.basename(path))[0]
        if name.startswith("BENCH_"):
            name = name[len("BENCH_"):]
        return {"kind": "bench", "records": [snapshot], "label": name,
                "identity": None}

    def _store_cell(self, source: str, cell: dict) -> dict:
        kind, records = cell["kind"], cell["records"]
        if kind == "bench":
            digest = canonical_digest({
                "kind": "bench", "name": cell["label"],
                "snapshot": records[0],
            })
        else:
            digest = canonical_digest({
                "kind": kind, "records": records,
            })
        receipt = {
            "digest": digest, "kind": kind, "label": cell["label"],
            "rows": len(records), "deduped": False,
        }
        exists = self._conn.execute(
            "SELECT 1 FROM cells WHERE digest = ?", (digest,)
        ).fetchone()
        if exists is not None:
            receipt["deduped"] = True
            return receipt
        identity = cell["identity"] or ("", "", "", 0, 0)
        self._conn.execute(
            "INSERT INTO cells (digest, kind, label, app, scheme, "
            "selection, n_blocks, n_bits, rows, source) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (digest, kind, cell["label"], *identity, len(records),
             os.path.basename(source)),
        )
        table, _, columns, values = _ROWS[kind]
        rows = [(digest, cell["label"], canonical_json(records[0]))] \
            if kind == "bench" else \
            [(digest, *values(i, r), canonical_json(r))
             for i, r in enumerate(records)]
        self._conn.executemany(
            f"INSERT INTO {table} (cell, {columns}, record) "
            f"VALUES ({', '.join('?' * len(rows[0]))})", rows)
        return receipt

    # -- queries --------------------------------------------------------
    def meta(self) -> dict[str, str]:
        """The store's metadata stamps (schema + library versions)."""
        try:
            rows = self._conn.execute(
                "SELECT key, value FROM meta ORDER BY key"
            ).fetchall()
        except sqlite3.Error as exc:
            raise StoreError(f"{self.path}: {exc}") from None
        return dict(rows)

    def cells(self) -> list[dict]:
        """Every warehoused cell, in ingest order."""
        rows = self._conn.execute(
            "SELECT digest, kind, label, app, scheme, selection, "
            "n_blocks, n_bits, rows, source FROM cells ORDER BY rowid"
        ).fetchall()
        keys = ("digest", "kind", "label", "app", "scheme",
                "selection", "n_blocks", "n_bits", "rows", "source")
        return [dict(zip(keys, row)) for row in rows]

    def query(
        self, app: str | None = None, scheme: str | None = None,
        level: float = 0.95,
    ) -> list[dict]:
        """Per-cell reliability summaries over the warehoused runs.

        One summary per run cell (sorted by app, scheme, selection,
        fault shape): outcome tallies plus the Wilson CI on the SDC
        rate.  ``app``/``scheme`` filter exactly.
        """
        clauses, params = [], []
        if app is not None:
            clauses.append("c.app = ?")
            params.append(app)
        if scheme is not None:
            clauses.append("c.scheme = ?")
            params.append(scheme)
        where = "WHERE c.kind = 'runs'"
        if clauses:
            where += " AND " + " AND ".join(clauses)
        cells = self._conn.execute(
            f"SELECT c.digest, c.label, c.app, c.scheme, c.selection, "
            f"c.n_blocks, c.n_bits, c.rows FROM cells c {where} "
            f"ORDER BY c.app, c.scheme, c.selection, c.n_blocks, "
            f"c.n_bits, c.digest",
            params,
        ).fetchall()
        summaries = []
        for (digest, label, app_name, scheme_name, selection,
             n_blocks, n_bits, n_rows) in cells:
            outcome_rows = self._conn.execute(
                "SELECT outcome, COUNT(*) FROM runs WHERE cell = ? "
                "GROUP BY outcome ORDER BY outcome", (digest,)
            ).fetchall()
            outcomes = dict(outcome_rows)
            sdc = outcomes.get("sdc", 0)
            interval = (confidence_interval(sdc, n_rows, level)
                        if n_rows else zero_run_interval(level))
            summaries.append({
                "digest": digest,
                "label": label,
                "app": app_name,
                "scheme": scheme_name,
                "selection": selection,
                "n_blocks": n_blocks,
                "n_bits": n_bits,
                "runs": n_rows,
                "outcomes": outcomes,
                "sdc_interval": interval.to_dict(),
            })
        return summaries

    def export(self, digest: str) -> str:
        """Reproduce one cell's source stream, byte-identical.

        JSONL cells come back as their canonical record lines in
        original order (ascending run index / sequence); a bench cell
        comes back as its single canonical JSON object plus newline.
        Raises :class:`StoreError` for an unknown digest.
        """
        row = self._conn.execute(
            "SELECT kind FROM cells WHERE digest = ?", (digest,)
        ).fetchone()
        if row is None:
            raise StoreError(
                f"{self.path}: no cell with digest {digest!r}"
            )
        table, order = _ROWS[row[0]][:2]
        lines = self._conn.execute(
            f"SELECT record FROM {table} WHERE cell = ? "
            f"ORDER BY {order}", (digest,)
        ).fetchall()
        return "".join(line + "\n" for (line,) in lines)

    # -- bulk views used by the report ----------------------------------
    def provenance_records(self) -> list[dict]:
        """Every warehoused provenance record, in cell/run order."""
        rows = self._conn.execute(
            "SELECT p.record FROM provenance p JOIN cells c "
            "ON p.cell = c.digest "
            "ORDER BY c.app, c.scheme, c.selection, c.n_blocks, "
            "c.n_bits, c.digest, p.run_index"
        ).fetchall()
        return [json.loads(record) for (record,) in rows]

    def cause_counts(self) -> list[tuple[str, str, str, int]]:
        """(app, scheme, cause, runs) tallies over the provenance."""
        return self._conn.execute(
            "SELECT c.app, c.scheme, p.cause, COUNT(*) "
            "FROM provenance p JOIN cells c ON p.cell = c.digest "
            "GROUP BY c.app, c.scheme, p.cause "
            "ORDER BY c.app, c.scheme, p.cause"
        ).fetchall()

    def decision_trails(self) -> list[dict]:
        """Every adaptive stop trail: label + ordered decision rows."""
        cells = self._conn.execute(
            "SELECT digest, label FROM cells WHERE kind = 'decisions' "
            "ORDER BY label, digest"
        ).fetchall()
        trails = []
        for digest, label in cells:
            rows = self._conn.execute(
                "SELECT record FROM decisions WHERE cell = ? "
                "ORDER BY seq", (digest,)
            ).fetchall()
            trails.append({
                "digest": digest,
                "label": label,
                "decisions": [json.loads(r) for (r,) in rows],
            })
        return trails

    def bench_snapshots(self) -> list[dict]:
        """Every bench snapshot: name, digest, and the payload."""
        rows = self._conn.execute(
            "SELECT b.name, b.cell, b.record FROM bench b "
            "ORDER BY b.name, b.cell"
        ).fetchall()
        return [
            {"name": name, "digest": digest,
             "snapshot": json.loads(record)}
            for name, digest, record in rows
        ]


def ingest_files(
    store: ResultsStore, paths: Iterable[str],
    kind: str | None = None,
) -> list[dict]:
    """Ingest many files into ``store``; receipts in argument order."""
    receipts = []
    for path in paths:
        receipts.extend(store.ingest(path, kind=kind))
    return receipts
