"""Durable on-disk checkpoints for sweep sessions.

A :class:`CheckpointStore` owns one directory and persists a sweep's
progress at chunk granularity, so a crashed or interrupted session
resumes from its last durable chunk instead of rerunning the whole
grid.  Layout::

    <root>/
        MANIFEST.json                  # sweep identity + store version
        cells/<cell-digest>/
            chunk-00000000-00000025.json
            chunk-00000025-00000050.json
            ...
        reports/<key>.json             # one derived result per key

Everything is content-addressed canonical JSON:

* the cell directory name is the SHA-256 of the cell campaign's
  :meth:`~repro.faults.campaign.Campaign.spec_identity` — execution
  knobs such as ``jobs`` stay out of the identity, so a checkpoint
  taken at one parallelism resumes at any other;
* each chunk file embeds the digest of its own payload, verified on
  load, so torn or hand-edited files surface as
  :class:`~repro.errors.CheckpointError` instead of silently skewing
  merged results;
* a report file holds one result that is not a chunk — a timing
  simulation's :class:`~repro.sim.metrics.SimReport`, a search's
  vulnerability ranking — under the digest of the identity that
  produced it, with the same payload digest and label checks;
* writes go through a temp file + :func:`os.replace`, so a crash
  mid-write can never leave a half chunk that a resume would trust.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import CheckpointError, ReproError
from repro.utils.canonical import canonical_digest, canonical_json

#: Bumped whenever the on-disk layout changes incompatibly.
STORE_VERSION = 1

_MANIFEST = "MANIFEST.json"
_CELLS = "cells"
_REPORTS = "reports"


def _chunk_name(start: int, stop: int) -> str:
    return f"chunk-{start:08d}-{stop:08d}.json"


class CheckpointStore:
    """Chunk-granular durable storage for one sweep's results."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST

    def exists(self) -> bool:
        """True if this directory already holds a sweep manifest."""
        return self.manifest_path.is_file()

    def initialize(self, spec_doc: dict, resume: bool = False) -> dict:
        """Create or validate the store for a sweep.

        ``spec_doc`` is the sweep's canonical identity document.  A
        fresh directory is stamped with it; an existing one must match
        it exactly (same digest) and requires ``resume=True`` — both
        mismatches raise :class:`~repro.errors.CheckpointError` so a
        stale ``--checkpoint-dir`` can never mix two different sweeps.
        """
        digest = canonical_digest(spec_doc)
        if self.exists():
            manifest = self._read_manifest()
            if manifest["digest"] != digest:
                raise CheckpointError(
                    f"checkpoint directory {self.root} belongs to a "
                    f"different sweep (manifest digest "
                    f"{manifest['digest'][:12]}…, this sweep "
                    f"{digest[:12]}…); use a fresh directory"
                )
            if not resume:
                raise CheckpointError(
                    f"checkpoint directory {self.root} already has "
                    "data for this sweep; pass resume=True "
                    "(CLI: --resume) to continue it"
                )
            return manifest
        manifest = {
            "version": STORE_VERSION,
            "digest": digest,
            "spec": spec_doc,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / _CELLS).mkdir(exist_ok=True)
        atomic_write_json(self.manifest_path, manifest)
        return manifest

    def _read_manifest(self) -> dict:
        doc = read_json(self.manifest_path)
        for key in ("version", "digest", "spec"):
            if key not in doc:
                raise CheckpointError(
                    f"{self.manifest_path}: manifest missing {key!r}"
                )
        if doc["version"] != STORE_VERSION:
            raise CheckpointError(
                f"{self.manifest_path}: store version {doc['version']!r} "
                f"unsupported (expected {STORE_VERSION})"
            )
        if doc["digest"] != canonical_digest(doc["spec"]):
            raise CheckpointError(
                f"{self.manifest_path}: manifest digest does not match "
                "its spec document (corrupt manifest)"
            )
        return doc

    # ------------------------------------------------------------------
    # Chunks
    # ------------------------------------------------------------------
    def cell_dir(self, cell_digest: str) -> Path:
        """Directory holding one cell's chunk files."""
        return self.root / _CELLS / cell_digest

    def chunk_path(self, cell_digest: str, start: int, stop: int) -> Path:
        """File path for the chunk covering runs ``[start, stop)``."""
        return self.cell_dir(cell_digest) / _chunk_name(start, stop)

    def save_chunk(
        self, cell_digest: str, start: int, stop: int, payload: dict
    ) -> Path:
        """Durably persist one completed chunk's result payload."""
        return self._save(self.chunk_path(cell_digest, start, stop),
                          {"cell": cell_digest, "span": [start, stop]},
                          payload)

    def load_chunk(
        self, cell_digest: str, start: int, stop: int
    ) -> dict | None:
        """Load one chunk's payload, or ``None`` if not checkpointed.

        Any defect — undecodable JSON, wrong span, digest mismatch —
        raises :class:`~repro.errors.CheckpointError` naming the file.
        """
        return self._load(self.chunk_path(cell_digest, start, stop),
                          {"cell": cell_digest, "span": [start, stop]},
                          "chunk")

    def completed_spans(self, cell_digest: str) -> set[tuple[int, int]]:
        """Spans with a chunk file present (not yet digest-verified)."""
        cell = self.cell_dir(cell_digest)
        if not cell.is_dir():
            return set()
        spans: set[tuple[int, int]] = set()
        for entry in cell.iterdir():
            name = entry.name
            if not (name.startswith("chunk-") and name.endswith(".json")):
                continue
            try:
                start_s, stop_s = name[len("chunk-"):-len(".json")] \
                    .split("-")
                spans.add((int(start_s), int(stop_s)))
            except ValueError:
                raise CheckpointError(
                    f"{entry}: unrecognized chunk filename"
                ) from None
        return spans

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def report_path(self, key: str) -> Path:
        """File path for the report stored under ``key``."""
        return self.root / _REPORTS / f"{key}.json"

    def save_report(self, key: str, payload: dict) -> Path:
        """Durably persist one derived result under its identity key."""
        return self._save(self.report_path(key), {"key": key}, payload)

    def load_report(self, key: str) -> dict | None:
        """Load the report stored under ``key``, or ``None``.

        Defects raise :class:`~repro.errors.CheckpointError` exactly as
        :meth:`load_chunk` does; a file labeled with another key is
        one of them.
        """
        return self._load(self.report_path(key), {"key": key}, "report")

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _save(path: Path, labels: dict, payload: dict) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, {
            "version": STORE_VERSION,
            **labels,
            "digest": canonical_digest(payload),
            "payload": payload,
        })
        return path

    @staticmethod
    def _load(path: Path, labels: dict, kind: str) -> dict | None:
        if not path.is_file():
            return None
        doc = read_json(path)
        if not isinstance(doc, dict) or "payload" not in doc \
                or "digest" not in doc:
            raise CheckpointError(f"{path}: not a {kind} document")
        if doc.get("version") != STORE_VERSION:
            raise CheckpointError(
                f"{path}: {kind} version {doc.get('version')!r} "
                f"unsupported (expected {STORE_VERSION})"
            )
        found = {name: doc.get(name) for name in labels}
        if found != labels:
            raise CheckpointError(
                f"{path}: {kind} labeled {found}, expected {labels}"
            )
        if canonical_digest(doc["payload"]) != doc["digest"]:
            raise CheckpointError(
                f"{path}: payload digest mismatch (corrupt {kind})"
            )
        return doc["payload"]


def atomic_write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` as canonical JSON; a crash leaves no torn file."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(doc))
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_json(path: Path) -> dict:
    """Decode one JSON file; any failure is a :class:`CheckpointError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"{path}: checkpoint file missing") \
            from None
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable ({exc})") from None


def wrap_payload_error(path, exc: ReproError) -> CheckpointError:
    """Recast a payload-decode failure as a checkpoint error."""
    return CheckpointError(f"{path}: bad chunk payload ({exc})")
