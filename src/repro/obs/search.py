"""Search-trail JSONL: the design-space explorer's decision log.

``repro optimize`` narrates its search as one canonical-JSON line per
round: what the strategy proposed, which proposals were new versus
already cached, the objective values of every new evaluation, and the
Pareto front after the round.  A header line pins the search identity
(application, design space, strategy, seeds).

Because every quantity in the trail is a deterministic function of
the search spec — campaign results derive from ``(seed, run_index)``,
strategies from the search seed, and timing/footprint objectives from
the configuration alone — the file is **byte-identical at any
``--jobs``/``--batch`` setting and across interrupt/resume**, the
same guarantee the telemetry and provenance streams give.  That makes
the trail diffable evidence in the A/B determinism suite.  The header
and round schemas and the header-first rule are the ``trail`` kind of
the record codec (:mod:`repro.obs.records`).
"""

from __future__ import annotations

from repro.errors import TelemetryError
from repro.obs.records import TRAIL_VERSION, JsonlWriter, iter_jsonl


class SearchTrailWriter(JsonlWriter):
    """Stream search rounds to a JSONL file (context manager).

    Every line is flushed as it is written, so an interrupted search
    leaves a valid prefix of the replayed trail.
    """

    def write_header(self, doc: dict) -> None:
        """Write the search-identity header line."""
        self.write({"type": "search", "version": TRAIL_VERSION, **doc})

    def write_round(self, doc: dict) -> None:
        """Write one round's decision line."""
        self.write({"type": "round", **doc})


def read_search_trail(path: str) -> list[dict]:
    """Read and validate a search trail; returns its parsed lines.

    The first line must be the header; every later line a round.
    Defects raise :class:`~repro.errors.TelemetryError` naming the
    line number.
    """
    lines = list(iter_jsonl(path, "trail"))
    if not lines:
        raise TelemetryError(f"{path}: empty search trail")
    return lines
