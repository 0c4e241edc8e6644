"""Fault-provenance records and per-object vulnerability attribution.

The telemetry surface (:mod:`repro.obs.records`) says *what* outcome
each injected run produced; this module says *why*.  One
:class:`ProvenanceRecord` per injected run captures the fault site
(owning object, word offset, bit masks, hot/rest region, liveness
class), the propagation story measured against the golden read
timeline (first corrupted read position, how many reads consume
corrupted bytes, per-consuming-object fan-out), and a masking or
detection *cause* from a small taxonomy (:data:`PROVENANCE_CAUSES`).

Records are derived by :class:`repro.faults.evidence.GoldenEvidence`
from the fault-free golden run, so they are byte-identical at any
``--jobs``/``--batch``, with every lane labeled ``evidence:
"analytic"`` or ``"executed"``.  Like run telemetry, provenance JSONL
is canonical JSON, one record per line; its wire schema, vocabularies
and validator are registered with the record codec
(:mod:`repro.obs.records`).

:func:`vulnerability_profiles` aggregates record streams into a
DVF-style per-object table (SDC/DUE/masked breakdown with Wilson CIs,
reads-at-risk, liveness exposure) backing the ``repro vuln``
subcommand and the vulnerability heatmap in
:mod:`repro.analysis.figures`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import TelemetryError
from repro.faults.outcomes import Outcome
from repro.obs.records import (
    EVIDENCE_KINDS,
    LIVENESS_CLASSES,
    PROVENANCE_CAUSES,
    PROVENANCE_RECORD_VERSION,
    REGIONS,
    JsonlWriter,
    iter_jsonl,
    validate_provenance,
)
from repro.utils.canonical import canonical_json
from repro.utils.stats import (
    ConfidenceInterval,
    confidence_interval,
    zero_run_interval,
)

__all__ = [
    "EVIDENCE_KINDS",
    "LIVENESS_CLASSES",
    "PROVENANCE_CAUSES",
    "PROVENANCE_RECORD_VERSION",
    "ProvenanceRecord",
    "ProvenanceSite",
    "ProvenanceWriter",
    "REGIONS",
    "VulnerabilityProfile",
    "read_provenance",
    "top_sdc_objects",
    "validate_provenance",
    "vulnerability_profiles",
]


@dataclass(frozen=True, slots=True)
class ProvenanceSite:
    """Where one injected fault cluster lives, in data-centric terms."""

    object: str
    region: str
    liveness: str
    block_addr: int
    word_index: int
    #: Offset of the faulted word's first byte within its object's
    #: data (may point into block padding past ``nbytes``).
    byte_offset: int
    bit_positions: tuple[int, ...]
    stuck_values: tuple[int, ...]
    #: Whether the fault's own stuck bits diverge from the object's
    #: content at injection time (in-bounds bytes only).
    visible: bool

    def to_dict(self) -> dict:
        """The site as a JSON-ready plain dict."""
        return {
            "object": self.object,
            "region": self.region,
            "liveness": self.liveness,
            "block_addr": self.block_addr,
            "word_index": self.word_index,
            "byte_offset": self.byte_offset,
            "bit_positions": list(self.bit_positions),
            "stuck_values": list(self.stuck_values),
            "visible": self.visible,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProvenanceSite":
        return cls(
            object=data["object"],
            region=data["region"],
            liveness=data["liveness"],
            block_addr=data["block_addr"],
            word_index=data["word_index"],
            byte_offset=data["byte_offset"],
            bit_positions=tuple(data["bit_positions"]),
            stuck_values=tuple(data["stuck_values"]),
            visible=data["visible"],
        )


@dataclass(frozen=True, slots=True)
class ProvenanceRecord:
    """The deterministic provenance of one fault-injection run."""

    run_index: int
    seed: int
    app: str
    scheme: str
    selection: str
    n_blocks: int
    n_bits: int
    outcome: str
    evidence: str
    cause: str
    sites: tuple[ProvenanceSite, ...]
    #: Position in the golden read stream of the first read consuming
    #: corrupted bytes (``None`` when no read ever does).
    first_corrupted_read: int | None
    #: How many golden-stream reads consume corrupted bytes.
    corrupted_reads: int
    #: Per consuming object, its count of corrupted reads.
    consumers: tuple[tuple[str, int], ...] = ()
    #: ``(object, read position)`` where the detection scheme fires,
    #: when derivable from the golden evidence alone; ``None``
    #: otherwise.
    detection: tuple[str, int] | None = None

    def to_dict(self) -> dict:
        """The record as a JSON-ready plain dict."""
        return {
            "version": PROVENANCE_RECORD_VERSION,
            "run_index": self.run_index,
            "seed": self.seed,
            "app": self.app,
            "scheme": self.scheme,
            "selection": self.selection,
            "n_blocks": self.n_blocks,
            "n_bits": self.n_bits,
            "outcome": self.outcome,
            "evidence": self.evidence,
            "cause": self.cause,
            "sites": [site.to_dict() for site in self.sites],
            "first_corrupted_read": self.first_corrupted_read,
            "corrupted_reads": self.corrupted_reads,
            "consumers": {name: n for name, n in self.consumers},
            "detection": None if self.detection is None else {
                "object": self.detection[0],
                "read_position": self.detection[1],
            },
        }

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, fixed separators)."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "ProvenanceRecord":
        """Rebuild a record from a validated :meth:`to_dict` image."""
        validate_provenance(data)
        detection = data["detection"]
        return cls(
            run_index=data["run_index"],
            seed=data["seed"],
            app=data["app"],
            scheme=data["scheme"],
            selection=data["selection"],
            n_blocks=data["n_blocks"],
            n_bits=data["n_bits"],
            outcome=data["outcome"],
            evidence=data["evidence"],
            cause=data["cause"],
            sites=tuple(
                ProvenanceSite.from_dict(site) for site in data["sites"]
            ),
            first_corrupted_read=data["first_corrupted_read"],
            corrupted_reads=data["corrupted_reads"],
            consumers=tuple(sorted(data["consumers"].items())),
            detection=None if detection is None else (
                detection["object"], detection["read_position"]
            ),
        )


class ProvenanceWriter(JsonlWriter):
    """Append-only JSONL sink for :class:`ProvenanceRecord` streams."""

    def write_result(self, result) -> int:
        """Append every provenance record of a campaign result.

        ``result`` is a :class:`~repro.faults.campaign.CampaignResult`
        executed with ``collect_provenance=True``; its ``provenance``
        list is already merged into run-index order.
        """
        if not result.provenance:
            raise TelemetryError(
                f"{result.app_name}: no provenance records collected "
                "(campaign must run with collect_provenance=True)"
            )
        return self.write_all(result.provenance)


def read_provenance(path: str) -> list[dict]:
    """Load and validate every record of a provenance JSONL file."""
    return list(iter_jsonl(path, "provenance"))


@dataclass
class VulnerabilityProfile:
    """DVF-style vulnerability digest of one object under one scheme.

    A run is attributed to every object its fault clusters sit in
    (multi-site runs count once per distinct sited object), so the
    profile answers "what happened to runs that hit this object".
    ``reads_at_risk`` sums the object's corrupted-read exposure over
    the golden read stream.
    """

    app: str
    scheme: str
    object: str
    region: str
    liveness: str
    runs: int = 0
    outcome_counts: dict[str, int] = field(
        default_factory=lambda: {o.value: 0 for o in Outcome}
    )
    cause_counts: dict[str, int] = field(default_factory=dict)
    reads_at_risk: int = 0

    @property
    def sdc_count(self) -> int:
        return self.outcome_counts[Outcome.SDC.value]

    @property
    def sdc_rate(self) -> float:
        return self.sdc_count / self.runs if self.runs else 0.0

    def sdc_interval(self, level: float = 0.95) -> ConfidenceInterval:
        """Wilson CI on the object's SDC attribution rate."""
        if self.runs == 0:
            return zero_run_interval(level)
        return confidence_interval(self.sdc_count, self.runs, level)

    def to_dict(self) -> dict:
        """Canonical-JSON-ready image of the profile."""
        return {
            "app": self.app,
            "scheme": self.scheme,
            "object": self.object,
            "region": self.region,
            "liveness": self.liveness,
            "runs": self.runs,
            "outcomes": dict(self.outcome_counts),
            "causes": dict(sorted(self.cause_counts.items())),
            "reads_at_risk": self.reads_at_risk,
            "sdc_rate": self.sdc_rate,
            "sdc_interval": self.sdc_interval().to_dict(),
        }


def vulnerability_profiles(
    records: Iterable[dict],
) -> list[VulnerabilityProfile]:
    """Aggregate provenance records into per-object profiles.

    ``records`` are wire-form dicts (:func:`read_provenance` output or
    :meth:`ProvenanceRecord.to_dict` images).  Profiles are keyed by
    ``(app, scheme, object)`` and returned in that sort order, so the
    table is deterministic for a given record stream.
    """
    profiles: dict[tuple[str, str, str], VulnerabilityProfile] = {}
    for rec in records:
        if hasattr(rec, "to_dict"):
            rec = rec.to_dict()
        seen: set[str] = set()
        for site in rec["sites"]:
            name = site["object"]
            if name in seen:
                continue
            seen.add(name)
            key = (rec["app"], rec["scheme"], name)
            profile = profiles.get(key)
            if profile is None:
                profile = VulnerabilityProfile(
                    app=rec["app"], scheme=rec["scheme"], object=name,
                    region=site["region"], liveness=site["liveness"],
                )
                profiles[key] = profile
            profile.runs += 1
            profile.outcome_counts[rec["outcome"]] += 1
            profile.cause_counts[rec["cause"]] = \
                profile.cause_counts.get(rec["cause"], 0) + 1
            profile.reads_at_risk += rec["consumers"].get(name, 0)
    return [profiles[key] for key in sorted(profiles)]


def top_sdc_objects(
    profiles: Iterable[VulnerabilityProfile], n: int | None = None
) -> list[VulnerabilityProfile]:
    """Profiles ranked by SDC attribution (count, then rate), the
    ranking the paper's protect-the-hot-objects argument rests on."""
    ranked = sorted(
        profiles,
        key=lambda p: (-p.sdc_count, -p.sdc_rate, p.app, p.scheme,
                       p.object),
    )
    return ranked if n is None else ranked[:n]
