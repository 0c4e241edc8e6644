"""Sweep-session observability: a JSONL event log.

While :class:`~repro.obs.records.RunRecord` streams are deterministic
per-run telemetry, a session's *event log* narrates orchestration —
planning, chunk completions (and whether each came from a worker or
the checkpoint store), retries, timeouts, fallbacks, interruption.
Those depend on wall-clock behavior and are explicitly **not** part of
any byte-identity guarantee; they exist so an operator can reconstruct
what a long campaign did overnight.

One event per line, canonical JSON, flushed as it happens.  The event
schema, its vocabularies and the ``seq`` continuity rule are the
``session`` kind of the record codec (:mod:`repro.obs.records`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.obs.records import (
    SESSION_EVENT_VERSION,
    JsonlWriter,
    iter_jsonl,
    validate_event,
)


@dataclass(frozen=True)
class SessionEvent:
    """One line of a session event log."""

    seq: int
    kind: str
    cell: str = ""
    start: int = -1
    stop: int = -1
    attempt: int = 0
    source: str = ""
    detail: str = ""

    def to_dict(self) -> dict:
        """Schema-complete dict image (includes the schema version)."""
        return {
            "version": SESSION_EVENT_VERSION,
            "seq": self.seq,
            "kind": self.kind,
            "cell": self.cell,
            "start": self.start,
            "stop": self.stop,
            "attempt": self.attempt,
            "source": self.source,
            "detail": self.detail,
        }


class SessionLog(JsonlWriter):
    """Append-only JSONL sink for :class:`SessionEvent` streams."""

    def emit(self, kind: str, **fields) -> SessionEvent:
        """Append one event; sequence numbers are assigned here."""
        event = SessionEvent(seq=self.n_written, kind=kind, **fields)
        data = event.to_dict()
        validate_event(data)
        self.write(data)
        return event


def iter_session_events(path: str) -> Iterator[dict]:
    """Yield validated event dicts from a session log file."""
    return iter_jsonl(path, "session")


def read_session_events(path: str) -> list[dict]:
    """Load and validate every event of a session log file."""
    return list(iter_jsonl(path, "session"))
