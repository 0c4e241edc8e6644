"""Fault-provenance records and per-object vulnerability attribution.

The telemetry surface (:mod:`repro.obs.records`) says *what* outcome
each injected run produced; this module says *why*.  One
:class:`ProvenanceRecord` per injected run captures the fault site
(owning object, word offset, bit masks, hot/rest region, liveness
class), the propagation story measured against the golden read
timeline (first corrupted read position, how many reads consume
corrupted bytes, per-consuming-object fan-out), and a masking or
detection *cause* from a small taxonomy (:data:`PROVENANCE_CAUSES`).

Every field derives from the campaign's deterministic inputs — the
:class:`GoldenEvidence` base captured once from the fault-free
reference execution, plus the run's ``(seed, run_index)``-derived
faults and its :class:`~repro.faults.outcomes.RunResult` — never from
how the run happened to execute.  The batch engine's analytic lanes
(:mod:`repro.faults.batch`) therefore emit byte-identical records to
scalar execution, labeled ``evidence: "analytic"``; a lane is labeled
analytic exactly when the classifier *can* decide it, a property of
the faults and the golden evidence, not of the execution strategy.
Like run telemetry, provenance JSONL is canonical JSON, one record per
line, byte-identical at any ``--jobs``/``--batch``; its wire schema,
vocabularies and validator are registered with the record codec
(:mod:`repro.obs.records`).

"Read position" here means the index into the golden run's positional
read stream (:meth:`~repro.obs.trace.GoldenTimeline.reads`) — the
propagation story is an *exposure* measure over the fault-free
timeline, which is what keeps it strategy-invariant.

:func:`vulnerability_profiles` aggregates record streams into a
DVF-style per-object table (SDC/DUE/masked breakdown with Wilson CIs,
reads-at-risk, liveness exposure) backing the ``repro vuln``
subcommand and the vulnerability heatmap in
:mod:`repro.analysis.figures`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.arch.address_space import BLOCK_BYTES, DataObject
from repro.core.schemes import make_protection
from repro.errors import FaultDetected, TelemetryError
from repro.faults.injector import merge_fault_masks, overlay_read_value
from repro.faults.model import FaultSpec
from repro.faults.outcomes import Outcome, RunResult
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
from repro.obs.trace import GoldenTimeline
from repro.utils.canonical import canonical_json
from repro.utils.stats import (
    ConfidenceInterval,
    confidence_interval,
    zero_run_interval,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.campaign import Campaign

__all__ = [
    "EVIDENCE_KINDS",
    "GoldenEvidence",
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


class GoldenEvidence:
    """The fault-free evidence base shared by the batch classifier and
    the provenance derivation.

    Captured once per campaign (per process): the golden read/write
    timeline with writable-object snapshots, the scheme's clean
    counters, prefix read counts and first-read positions, plus the
    layout caches.  Both :class:`~repro.faults.batch.BatchEngine` and
    the scalar :meth:`~repro.faults.campaign.Campaign.run_one` derive
    their analytic verdicts and provenance records from this one
    object, which is what makes the streams byte-identical across
    execution strategies.
    """

    def __init__(self, campaign: "Campaign"):
        c = self.campaign = campaign
        #: Byte address -> fault-free byte value in the base image.
        self._base_bytes: dict[int, int] = {}
        #: run_index -> overlay analysis cached by the classifier for
        #: the provenance derivation of the same run (popped on use;
        #: populated only when the campaign collects provenance, so
        #: telemetry-only campaigns never grow it).
        self._overlay_memo: dict[int, tuple] = {}
        memory = c._run_memory()
        self.base_memory = c._base_memory
        scheme = make_protection(memory, c.protection)
        self.protected = scheme.protected_names
        #: The detection-protected names; the rest of ``protected`` is
        #: correction-protected.  Every faulted object is judged by its
        #: own scheme (a uniform spec leaves one side empty).
        self.detection_names = frozenset(
            name for name in self.protected
            if c.protection.scheme_for(name) == "detection"
        )
        # Record every data consumption path via the golden timeline:
        # scheme reads (protected or not) AND direct
        # ``memory.read_object`` calls from kernel code ("raw" — they
        # bypass the scheme entirely, so divergence they observe can
        # neither be detected nor corrected), plus write events and
        # read-time content snapshots of writable objects for the
        # outcome-equivalence pruning.
        self.timeline, output = GoldenTimeline.capture(c.app, memory, scheme)
        reads = self.timeline.reads()
        self.reads = reads
        self.clean_counters = dict(vars(scheme.stats))
        self.zero_counters = {k: 0 for k in self.clean_counters}
        # Prefix read counts and first-read positions drive the
        # DETECTED stats reconstruction; per-object protected read
        # counts drive the CORRECTED vote tallies; first *unchecked*
        # (unprotected or raw) positions decide when divergent data
        # escapes the scheme.
        self.prot_prefix: list[int] = []
        self.unprot_prefix: list[int] = []
        self.first_prot_read: dict[str, int] = {}
        self.first_read: dict[str, int] = {}
        self.first_unchecked: dict[str, int] = {}
        self.prot_read_count: dict[str, int] = {}
        #: Per object, its positions in the golden read stream — the
        #: propagation story's coordinate system.
        self.read_positions: dict[str, list[int]] = {}
        n_prot = n_unprot = 0
        for i, (name, kind) in enumerate(reads):
            if kind == "prot":
                n_prot += 1
                self.first_prot_read.setdefault(name, i)
                self.prot_read_count[name] = \
                    self.prot_read_count.get(name, 0) + 1
            else:
                if kind == "unprot":
                    n_unprot += 1
                self.first_unchecked.setdefault(name, i)
            self.first_read.setdefault(name, i)
            self.read_positions.setdefault(name, []).append(i)
            self.prot_prefix.append(n_prot)
            self.unprot_prefix.append(n_unprot)
        self.liveness = self.timeline.liveness()
        self.hot_names = set(c.app.hot_object_names)
        # The analytic shortcuts are sound only if the fault-free
        # reference behaves exactly like the golden run; anything else
        # (a nondeterministic app, a scheme that corrects spuriously)
        # routes every lane through real execution instead.
        metric = None
        clean_ok = (
            isinstance(output, np.ndarray)
            and output.shape == c._golden.shape
            and output.dtype == c._golden.dtype
            and output.tobytes() == c._golden.tobytes()
            and scheme.stats.corrected_reads == 0
        )
        if clean_ok:
            metric = c.app.error_metric.compare(c._golden, output)
            clean_ok = not metric.is_sdc
        self.analytic = clean_ok
        self.clean_metric = metric

    # ------------------------------------------------------------------
    # Layout lookups (memoized, shared by classifier and provenance)
    # ------------------------------------------------------------------
    def base_byte(self, byte_addr: int) -> int:
        """Fault-free byte value at ``byte_addr`` (block-bulk cached)."""
        value = self._base_bytes.get(byte_addr)
        if value is None:
            # Fill the whole 128B block in one bulk read: faulted
            # bytes cluster within a block, so one fetch serves every
            # byte the overlay scan and the site records will touch.
            block = byte_addr - byte_addr % BLOCK_BYTES
            cache = self._base_bytes
            for i, raw in enumerate(
                    self.base_memory.read_block(block).tolist()):
                cache[block + i] = raw
            value = cache[byte_addr]
        return value

    def liveness_class(self, name: str) -> str:
        """The object's exposure class for provenance sites."""
        entry = self.liveness.get(name)
        if entry is not None:
            return entry.window
        if name in self.timeline.ever_read:
            return "internal"
        return "dead"

    # ------------------------------------------------------------------
    # Divergence analysis (moved here from BatchEngine)
    # ------------------------------------------------------------------
    def _overlay_analysis(
        self, faults: list[FaultSpec]
    ) -> tuple[dict[str, DataObject], set[str],
               dict[str, list[int]], dict[str, dict]]:
        """One pass over the merged overlays of ``faults``.

        Returns ``(sited, inbounds, ro_divergent, writable_masks)``:
        every faulted object (padding-only hits included), the subset
        with in-bounds bytes, per read-only object the sorted offsets
        whose faulted read differs from the clean byte, and per
        writable object its in-bounds byte masks.  Both the analytic
        classifier and the provenance derivation consume this shape,
        so it is computed once per run (see ``_overlay_memo``).
        """
        masks = merge_fault_masks(faults)
        sited: dict[str, DataObject] = {}
        inbounds: set[str] = set()
        ro_divergent: dict[str, list[int]] = {}
        writable_masks: dict[str, dict[int, tuple[int, int]]] = {}
        for byte_addr in sorted(masks):
            or_mask, and_mask = masks[byte_addr]
            # Word faults never straddle the 128B block, so the byte's
            # block is its fault's block — the memoized lookup applies.
            obj = self.campaign._object_for_block(
                byte_addr - byte_addr % BLOCK_BYTES
            )
            sited.setdefault(obj.name, obj)
            offset = byte_addr - obj.base_addr
            if offset >= obj.nbytes:
                continue  # block padding: invisible to every read
            inbounds.add(obj.name)
            if not obj.read_only:
                writable_masks.setdefault(obj.name, {})[offset] = \
                    (or_mask, and_mask)
                continue
            raw = self.base_byte(byte_addr)
            if overlay_read_value(raw, or_mask, and_mask) != raw:
                ro_divergent.setdefault(obj.name, []).append(offset)
        return sited, inbounds, ro_divergent, writable_masks

    def analyze(
        self, faults: list[FaultSpec], run_index: int | None = None
    ) -> tuple[dict[str, list[int]], bool, list[str]]:
        """Visible divergence of the merged overlays of ``faults``.

        Returns ``(divergent, must_exec, prunes)``: per read-only
        object, the sorted offsets whose faulted read differs from the
        clean byte; whether some writable-object overlay disagrees
        with the golden timeline's read-time snapshots (so the lane
        must execute for real); and the equivalence-class prune tags
        earned by writable faults proven invisible (``dead`` — the
        object is never read at all; ``agrees`` — the stuck bits match
        the object's content at every consumption point, overwritten
        windows included).

        With ``run_index`` given and provenance collection active, the
        overlay pass is cached for :meth:`provenance` of the same run.
        """
        analysis = self._overlay_analysis(faults)
        if run_index is not None and self.campaign.collect_provenance:
            self._overlay_memo[run_index] = analysis
        _sited, _inbounds, divergent, writable = analysis
        must_exec = False
        prunes: list[str] = []
        for name, byte_masks in writable.items():
            tag = self.writable_verdict(name, byte_masks)
            if tag is None:
                must_exec = True
            else:
                prunes.append(tag)
        return divergent, must_exec, prunes

    def writable_verdict(
        self, name: str, byte_masks: dict[int, tuple[int, int]]
    ) -> str | None:
        """Prune tag for a writable object's faults, ``None`` to run.

        ``dead``: the object is on no read path at all (scheme-internal
        reads included), so its content can never influence execution.
        ``agrees``: the stuck bits are a no-op against the object's
        raw content at every golden-run read — by the clean-prefix
        induction (writes store raw values, overlays re-apply on read)
        the faulted execution is then bitwise identical to the clean
        one.  Any snapshot mismatch — or a read path the timeline
        could not snapshot — means only real execution can tell.
        """
        timeline = self.timeline
        if name not in timeline.ever_read:
            return "dead"
        snapshots = timeline.read_values.get(name)
        if not snapshots:
            return None  # read somewhere we could not snapshot
        for offset, (or_mask, and_mask) in byte_masks.items():
            for snap in snapshots:
                raw = snap[offset]
                if overlay_read_value(raw, or_mask, and_mask) != raw:
                    return None
        return "agrees"

    def classify_analytic(self, run_index: int, faults: list[FaultSpec]):
        """Classify without executing; ``None`` if the lane must run.

        Returns ``(RunResult, counters_dict, prune_tags)`` for lanes
        whose outcome is fully determined by the clean read trace and
        the golden timeline.
        """
        divergent, must_exec, prunes = self.analyze(faults, run_index)
        if must_exec:
            # A writable-object fault that disagrees with some read-
            # time snapshot bites data written *during* the run; only
            # real execution can tell its visibility.
            return None
        visible: dict[str, list[int]] = {}
        for name, offsets in divergent.items():
            if name in self.first_read:
                visible[name] = offsets
            elif name in self.timeline.ever_read:
                # Consumed only by scheme-internal reads — a path the
                # positional trace cannot reason about, so execute.
                return None
            else:
                # Provably on no read path at all: the divergence is
                # invisible, the lane is bitwise clean.
                prunes.append("unread")
        divergent = visible
        prot_read = {
            name: offsets for name, offsets in divergent.items()
            if name in self.protected and name in self.first_prot_read
        }
        # Positions where some divergent object's data first escapes
        # the scheme (read unprotected, or read raw past the scheme).
        unchecked = [
            self.first_unchecked[name] for name in divergent
            if name in self.first_unchecked
        ]
        det_read = [name for name in prot_read
                    if name in self.detection_names]
        if det_read:
            if len(det_read) < len(prot_read):
                # Divergence reaches detection- and correction-protected
                # objects alike; execution decides which acts first.
                return None
            i_star, det_name = min(
                (self.first_prot_read[name], name) for name in det_read
            )
            if any(pos < i_star for pos in unchecked):
                return None
            exc = FaultDetected(
                det_name, prot_read[det_name][0] // BLOCK_BYTES
            )
            counters = dict(self.zero_counters)
            counters["protected_reads"] = self.prot_prefix[i_star]
            counters["comparisons"] = self.prot_prefix[i_star]
            counters["unprotected_reads"] = self.unprot_prefix[i_star]
            return (
                RunResult(run_index, Outcome.DETECTED, 0.0, str(exc)),
                counters,
                prunes,
            )
        if unchecked:
            return None
        if prot_read:
            # Every divergent protected object is correction-protected.
            corrected_reads = sum(
                self.prot_read_count[name] for name in prot_read
            )
            corrected_bytes = sum(
                self.prot_read_count[name] * len(offsets)
                for name, offsets in prot_read.items()
            )
            counters = dict(self.clean_counters)
            counters["corrected_bytes"] = corrected_bytes
            counters["corrected_reads"] = corrected_reads
            return (
                RunResult(
                    run_index, Outcome.CORRECTED,
                    self.clean_metric.error,
                    f"{corrected_bytes} byte(s) voted out",
                ),
                counters,
                prunes,
            )
        return (
            RunResult(run_index, Outcome.MASKED, self.clean_metric.error),
            dict(self.clean_counters),
            prunes,
        )

    # ------------------------------------------------------------------
    # Provenance derivation
    # ------------------------------------------------------------------
    def provenance(
        self,
        run_index: int,
        seed: int,
        faults: list[FaultSpec],
        result: RunResult,
        evidence: str | None = None,
        secded_verdicts: list | None = None,
    ) -> ProvenanceRecord:
        """Derive the run's :class:`ProvenanceRecord`.

        ``evidence`` may be passed by the batch engine (which already
        knows which lanes it decided analytically); when ``None`` it
        is recomputed from the same classifier, so scalar and batched
        campaigns label lanes identically.  ``secded_verdicts`` are the
        per-fault :class:`~repro.faults.secded_filter.EccVerdict` s of
        a SECDED campaign's filtering pass.
        """
        c = self.campaign
        if c.config.secded:
            return self._provenance_secded(
                run_index, seed, faults, result, secded_verdicts
            )
        if evidence is None:
            evidence = "executed"
            if self.analytic \
                    and self.classify_analytic(run_index, faults) is not None:
                evidence = "analytic"
        # The classifier caches its overlay pass per run (both in the
        # batch engine and in the recompute just above); reuse it so
        # provenance does not rescan the merged masks.
        analysis = self._overlay_memo.pop(run_index, None)
        if analysis is None:
            analysis = self._overlay_analysis(faults)
        sited, inbounds, ro_divergent, writable_masks = analysis
        first, total, consumers = self._propagation(
            ro_divergent, writable_masks
        )
        cause = self._cause(
            result.outcome, sited, inbounds, ro_divergent, writable_masks
        )
        detection = self._detection(result.outcome, ro_divergent)
        return ProvenanceRecord(
            run_index=run_index,
            seed=seed,
            app=c.app.name,
            scheme=c.scheme_name,
            selection=c.selection.name,
            n_blocks=c.config.n_blocks,
            n_bits=c.config.n_bits,
            outcome=result.outcome.value,
            evidence=evidence,
            cause=cause,
            sites=self._sites(faults),
            first_corrupted_read=first,
            corrupted_reads=total,
            consumers=tuple(sorted(consumers.items())),
            detection=detection,
        )

    def _sites(self, faults: list[FaultSpec]) -> tuple[ProvenanceSite, ...]:
        """One site per fault cluster, with injection-time visibility.

        Per-site visibility is evaluated against the fault's *own*
        masks (not the cross-fault merge), so a site's record is
        independent of what other clusters hit the same run.
        """
        sites = []
        for fault in faults:
            obj = self.campaign._object_for_block(fault.block_addr)
            # Visibility is a plain disjunction over the fault's own
            # bytes, so iteration order cannot affect the record.
            visible = False
            for byte_addr, (or_mask, and_mask) in \
                    fault.byte_masks().items():
                offset = byte_addr - obj.base_addr
                if offset >= obj.nbytes:
                    continue
                raw = self.base_byte(byte_addr)
                if overlay_read_value(raw, or_mask, and_mask) != raw:
                    visible = True
                    break
            sites.append(ProvenanceSite(
                object=obj.name,
                region="hot" if obj.name in self.hot_names else "rest",
                liveness=self.liveness_class(obj.name),
                block_addr=fault.block_addr,
                word_index=fault.word_index,
                byte_offset=fault.word_addr - obj.base_addr,
                bit_positions=tuple(fault.bit_positions),
                stuck_values=tuple(fault.stuck_values),
                visible=visible,
            ))
        return tuple(sites)

    def _propagation(
        self,
        ro_divergent: dict[str, list[int]],
        writable_masks: dict[str, dict[int, tuple[int, int]]],
    ) -> tuple[int | None, int, dict[str, int]]:
        """Exposure over the golden read stream: which positional
        reads consume corrupted bytes, per consuming object."""
        consumers: dict[str, int] = {}
        first: int | None = None
        total = 0
        for name in sorted(set(ro_divergent) | set(writable_masks)):
            positions = self.read_positions.get(name, [])
            if not positions:
                continue
            if name in ro_divergent:
                # Read-only divergence persists: every read consumes it.
                corrupted = positions
            else:
                snapshots = self.timeline.read_values.get(name) or []
                byte_masks = writable_masks[name]
                corrupted = []
                if len(snapshots) == len(positions):
                    for pos, snap in zip(positions, snapshots):
                        for offset, (or_mask, and_mask) in \
                                byte_masks.items():
                            raw = snap[offset]
                            if overlay_read_value(
                                    raw, or_mask, and_mask) != raw:
                                corrupted.append(pos)
                                break
            if corrupted:
                consumers[name] = len(corrupted)
                total += len(corrupted)
                if first is None or corrupted[0] < first:
                    first = corrupted[0]
        return first, total, consumers

    def _cause(
        self,
        outcome: Outcome,
        sited: dict[str, DataObject],
        inbounds: set[str],
        ro_divergent: dict[str, list[int]],
        writable_masks: dict[str, dict[int, tuple[int, int]]],
    ) -> str:
        if outcome is Outcome.SDC:
            return "output-corrupted"
        if outcome is Outcome.CRASH:
            return "crash"
        if outcome is Outcome.DETECTED:
            return "replica-detected"
        if outcome is Outcome.CORRECTED:
            return "replica-voted"
        # MASKED: per sited object, how the fault was absorbed.
        tags = []
        for name, obj in sited.items():
            if name not in inbounds:
                tags.append("dead-word")  # block padding only
            elif obj.read_only:
                if name not in ro_divergent:
                    tags.append("value-agrees")
                elif name not in self.timeline.ever_read:
                    tags.append("dead-word")
                else:
                    # Divergence was consumed (positionally or by
                    # scheme internals) yet the output held.
                    tags.append("tolerated")
            else:
                verdict = self.writable_verdict(
                    name, writable_masks[name]
                )
                if verdict == "dead":
                    tags.append("dead-word")
                elif verdict == "agrees":
                    base_agrees = all(
                        overlay_read_value(
                            self.base_byte(obj.base_addr + offset),
                            or_mask, and_mask,
                        ) == self.base_byte(obj.base_addr + offset)
                        for offset, (or_mask, and_mask)
                        in writable_masks[name].items()
                    )
                    tags.append(
                        "value-agrees" if base_agrees
                        else "overwritten-before-read"
                    )
                else:
                    tags.append("tolerated")
        for tag in ("tolerated", "overwritten-before-read",
                    "dead-word", "value-agrees"):
            if tag in tags:
                return tag
        return "dead-word"

    def _detection(
        self, outcome: Outcome, ro_divergent: dict[str, list[int]]
    ) -> tuple[str, int] | None:
        """Where the detection scheme fires, when the golden evidence
        can tell (read-only divergence under the detection scheme with
        no earlier unchecked escape); ``None`` otherwise."""
        if outcome is not Outcome.DETECTED:
            return None
        prot_names = [
            name for name in ro_divergent
            if name in self.detection_names
            and name in self.first_prot_read
        ]
        if not prot_names:
            return None
        unchecked = [
            self.first_unchecked[name] for name in ro_divergent
            if name in self.first_unchecked
        ]
        i_star, det_name = min(
            (self.first_prot_read[name], name) for name in prot_names
        )
        if any(pos < i_star for pos in unchecked):
            return None
        return det_name, i_star

    def _provenance_secded(
        self,
        run_index: int,
        seed: int,
        faults: list[FaultSpec],
        result: RunResult,
        verdicts: list,
    ) -> ProvenanceRecord:
        """SECDED campaigns: causes come from the ECC verdicts; the
        propagation story is nulled (what the application observes is
        the post-decode delivery, not the injected overlay, so the
        golden-stream exposure measure does not apply)."""
        from repro.faults.secded_filter import EccVerdict

        c = self.campaign
        delivered = (EccVerdict.MISCORRECTED, EccVerdict.ESCAPED)
        sites = []
        for fault, verdict in zip(faults, verdicts):
            obj = self.campaign._object_for_block(fault.block_addr)
            sites.append(ProvenanceSite(
                object=obj.name,
                region="hot" if obj.name in self.hot_names else "rest",
                liveness=self.liveness_class(obj.name),
                block_addr=fault.block_addr,
                word_index=fault.word_index,
                byte_offset=fault.word_addr - obj.base_addr,
                bit_positions=tuple(fault.bit_positions),
                stuck_values=tuple(fault.stuck_values),
                visible=verdict in delivered,
            ))
        outcome = result.outcome
        if outcome is Outcome.SDC:
            cause = "output-corrupted"
        elif outcome is Outcome.CRASH:
            cause = "crash"
        elif outcome is Outcome.DETECTED:
            cause = (
                "secded-due"
                if any(v is EccVerdict.DUE for v in verdicts)
                else "replica-detected"
            )
        elif outcome is Outcome.CORRECTED:
            cause = "replica-voted"
        elif any(v in delivered for v in verdicts):
            cause = "tolerated"
        elif any(v is EccVerdict.CORRECTED for v in verdicts):
            cause = "secded-corrected"
        else:
            cause = "value-agrees"
        return ProvenanceRecord(
            run_index=run_index,
            seed=seed,
            app=c.app.name,
            scheme=c.scheme_name,
            selection=c.selection.name,
            n_blocks=c.config.n_blocks,
            n_bits=c.config.n_bits,
            outcome=outcome.value,
            evidence="executed",
            cause=cause,
            sites=tuple(sites),
            first_corrupted_read=None,
            corrupted_reads=0,
            consumers=(),
            detection=None,
        )


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

    @property
    def due_count(self) -> int:
        """Loud terminations attributed to this object."""
        return (self.outcome_counts[Outcome.DETECTED.value]
                + self.outcome_counts[Outcome.CRASH.value])

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
