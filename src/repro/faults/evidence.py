"""The fault-free evidence base: golden timeline, analytic classifier
and provenance derivation.

Captured once per campaign (per process) from the fault-free reference
execution, :class:`GoldenEvidence` is what two consumers reason from:

* the batched engine's **analytic classifier**
  (:meth:`GoldenEvidence.classify_analytic`), which resolves a lane
  MASKED, DETECTED or CORRECTED from the clean read trace alone, and
  prunes writable-object faults the golden timeline proves invisible;
* the **provenance derivation** (:meth:`GoldenEvidence.provenance`),
  which turns a classified lane into its
  :class:`~repro.obs.provenance.ProvenanceRecord`: the fault sites in
  data-centric terms, the propagation story over the golden read
  stream and a masking or detection cause.

Every verdict and record derives from the campaign's deterministic
inputs — this evidence plus the run's ``(seed, run_index)``-derived
faults and its :class:`~repro.faults.outcomes.RunResult` — never from
how the run happened to execute, so the batched engine at any batch
size, a single :meth:`~repro.faults.campaign.Campaign.run_one` and the
deep-copy reference emit byte-identical streams.  A lane is labeled
``evidence: "analytic"`` exactly when the classifier *can* decide it,
a property of the faults and the golden evidence, not of the
execution strategy.  Each lane's overlay analysis is made once
and kept on the lane, so the classifier and the provenance derivation
share it.

"Read position" means the index into the golden run's positional read
stream (:meth:`GoldenTimeline.reads`): the propagation story is an
*exposure* measure over the fault-free timeline, which is what keeps
it strategy-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.arch.address_space import BLOCK_BYTES, DataObject
from repro.core.schemes import make_protection
from repro.errors import FaultDetected
from repro.faults.injector import merge_fault_masks, overlay_read_value
from repro.faults.outcomes import Outcome, RunResult
from repro.faults.secded_filter import EccVerdict
from repro.obs.provenance import ProvenanceRecord, ProvenanceSite

if TYPE_CHECKING:  # pragma: no cover
    from repro.arch.address_space import DeviceMemory
    from repro.faults.batch import _Lane
    from repro.faults.campaign import Campaign

#: Causes of the outcomes a fault cannot be absorbed into.
_LOUD_CAUSES = {
    Outcome.SDC: "output-corrupted",
    Outcome.CRASH: "crash",
    Outcome.DETECTED: "replica-detected",
    Outcome.CORRECTED: "replica-voted",
}

#: ECC verdicts that hand the application wrong data.
_DELIVERED = (EccVerdict.MISCORRECTED, EccVerdict.ESCAPED)


@dataclass(frozen=True)
class ObjectLiveness:
    """Read/write liveness of one data object over the golden run.

    Positions are indices into the :class:`GoldenTimeline` event
    stream, so "written after its last read" style questions are
    simple integer comparisons.
    """

    name: str
    reads: int
    writes: int
    first_read: int | None
    last_read: int | None
    first_write: int | None
    last_write: int | None

    @property
    def window(self) -> str:
        """Coarse liveness class: ``dead`` (never read), ``input``
        (read but never written during execution) or ``working``
        (both read and written)."""
        if self.reads == 0:
            return "dead"
        if self.writes == 0:
            return "input"
        return "working"


class GoldenTimeline:
    """The golden run's complete read/write timeline, with read-time
    content snapshots of every writable object.

    The evidence base for outcome-equivalence pruning: a stuck-at
    fault is provably MASKED without simulating when its bits agree
    with the object's content at *every* moment the object is consumed
    — which covers sites that are dead (never read at all) and sites
    overwritten before their next read with bits the fault agrees
    with.  The soundness induction lives in docs/MODELING.md: writes
    store raw values and overlays re-apply on read, so agreement at
    every clean-run read point implies the faulted execution is
    bitwise identical to the clean one.

    * :attr:`events` — ``(name, kind)`` per consumption/production
      point, ``kind`` in ``{"prot", "unprot", "raw", "write"}`` —
      scheme-checked reads of protected objects, scheme reads of
      unprotected objects, direct ``read_object`` consumption that
      bypasses the scheme, and ``write_object`` stores.
    * :attr:`read_values` — for each *writable* object, its raw byte
      content at every read (any path, scheme internals included).
    * :attr:`ever_read` — every object name seen on any read path,
      scheme-internal ``read_object`` calls included; absence here is
      proof the object's content can never influence execution.
    """

    def __init__(self) -> None:
        self.events: list[tuple[str, str]] = []
        self.read_values: dict[str, list[bytes]] = {}
        self.ever_read: set[str] = set()

    def reads(self) -> list[tuple[str, str]]:
        """The read-only view of the event stream (no writes), in the
        ``(name, kind)`` shape the classifier consumes."""
        return [(n, k) for n, k in self.events if k != "write"]

    def liveness(self) -> dict[str, ObjectLiveness]:
        """Per-object liveness digests over the whole timeline."""
        agg: dict[str, dict[str, Any]] = {}
        for pos, (name, kind) in enumerate(self.events):
            entry = agg.setdefault(name, {
                "reads": 0, "writes": 0,
                "first_read": None, "last_read": None,
                "first_write": None, "last_write": None,
            })
            slot = "write" if kind == "write" else "read"
            entry[f"{slot}s"] += 1
            if entry[f"first_{slot}"] is None:
                entry[f"first_{slot}"] = pos
            entry[f"last_{slot}"] = pos
        return {
            name: ObjectLiveness(name=name, **entry)
            for name, entry in sorted(agg.items())
        }

    @classmethod
    def capture(cls, app, memory: "DeviceMemory", scheme):
        """Execute ``app`` fault-free on ``memory`` under ``scheme``,
        recording the full timeline; returns ``(timeline, output)``.

        Hooks the three consumption/production surfaces (the kernel
        contract allows no others): ``scheme.read`` for checked input
        reads, ``memory.read_object`` for direct reads (scheme
        internals flagged so they don't double-count as "raw"), and
        ``memory.write_object`` for stores.  Writable-object content
        is snapshotted at every read so fault agreement can later be
        checked against the exact bytes that were live at each
        consumption point.
        """
        timeline = cls()
        events = timeline.events
        inner_read = scheme.read
        inner_read_object = memory.read_object
        inner_write_object = memory.write_object
        in_scheme = [False]

        def snapshot(obj) -> None:
            if not obj.read_only:
                timeline.read_values.setdefault(obj.name, []).append(
                    inner_read_object(obj).tobytes()
                )

        def recording_read(obj):
            kind = "prot" if obj.name in scheme.protected_names \
                else "unprot"
            events.append((obj.name, kind))
            timeline.ever_read.add(obj.name)
            snapshot(obj)
            in_scheme[0] = True
            try:
                return inner_read(obj)
            finally:
                in_scheme[0] = False

        def recording_read_object(obj):
            timeline.ever_read.add(obj.name)
            if not in_scheme[0]:
                events.append((obj.name, "raw"))
                snapshot(obj)
            return inner_read_object(obj)

        def recording_write_object(obj, values):
            events.append((obj.name, "write"))
            return inner_write_object(obj, values)

        scheme.read = recording_read
        memory.read_object = recording_read_object
        memory.write_object = recording_write_object
        try:
            with np.errstate(all="ignore"):
                output = app.execute(memory, scheme)
        finally:
            del scheme.read  # drop the shadowing instance attributes
            del memory.read_object
            del memory.write_object
        return timeline, output


class GoldenEvidence:
    """The fault-free evidence base of one campaign.

    Holds the golden read/write timeline with writable-object
    snapshots, the scheme's clean counters, prefix read counts and
    first-read positions, plus the layout caches.  The batched engine,
    :meth:`~repro.faults.campaign.Campaign.run_one` and the deep-copy
    reference derive their analytic verdicts and provenance records
    from this one object.
    """

    def __init__(self, campaign: "Campaign"):
        c = self.campaign = campaign
        #: Byte address -> fault-free byte value in the base image.
        self._base_bytes: dict[int, int] = {}
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
        # reference behaves exactly like the golden run, and only for
        # faults the kernel consumes as injected; anything else (a
        # nondeterministic app, a scheme that corrects spuriously,
        # SECDED's post-decode delivery) routes every lane through
        # real execution instead.
        metric = None
        clean_ok = (
            not c.config.secded
            and isinstance(output, np.ndarray)
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

    def _diverges(self, byte_addr: int, or_mask: int, and_mask: int) -> bool:
        """Whether the overlay changes the fault-free byte it covers."""
        raw = self.base_byte(byte_addr)
        return overlay_read_value(raw, or_mask, and_mask) != raw

    def liveness_class(self, name: str) -> str:
        """The object's exposure class for provenance sites."""
        entry = self.liveness.get(name)
        if entry is not None:
            return entry.window
        if name in self.timeline.ever_read:
            return "internal"
        return "dead"

    # ------------------------------------------------------------------
    # Divergence analysis
    # ------------------------------------------------------------------
    def _overlay(self, lane: "_Lane") -> tuple[
            dict[str, DataObject], set[str],
            dict[str, list[int]], dict[str, dict]]:
        """One pass over the merged overlays of the lane's faults,
        made on first use and kept on the lane.

        Returns ``(sited, inbounds, ro_divergent, writable_masks)``:
        every faulted object (padding-only hits included), the subset
        with in-bounds bytes, per read-only object the sorted offsets
        whose faulted read differs from the clean byte, and per
        writable object its in-bounds byte masks.
        """
        if lane.overlay is not None:
            return lane.overlay
        masks = merge_fault_masks(lane.faults)
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
            elif self._diverges(byte_addr, or_mask, and_mask):
                ro_divergent.setdefault(obj.name, []).append(offset)
        lane.overlay = (sited, inbounds, ro_divergent, writable_masks)
        return lane.overlay

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

    def _detection_point(
        self, ro_divergent: dict[str, list[int]]
    ) -> tuple[str, int] | None:
        """``(object, read position)`` where the detection scheme fires:
        the first protected read of a divergent detection-protected
        object, unless divergent data escapes the scheme (an
        unprotected or raw read) before it; ``None`` otherwise."""
        det_names = [
            name for name in ro_divergent
            if name in self.detection_names
            and name in self.first_prot_read
        ]
        if not det_names:
            return None
        i_star, det_name = min(
            (self.first_prot_read[name], name) for name in det_names
        )
        if any(self.first_unchecked.get(name, i_star) < i_star
               for name in ro_divergent):
            return None
        return det_name, i_star

    def classify_analytic(self, lane: "_Lane"):
        """Classify without executing; ``None`` if the lane must run.

        Returns ``(RunResult, counters_dict, prune_tags)`` for lanes
        whose outcome is fully determined by the clean read trace and
        the golden timeline.  The prune tags are the equivalence
        classes earned by faults proven invisible: ``dead`` and
        ``agrees`` for writable objects (see :meth:`writable_verdict`),
        ``unread`` for read-only objects on no read path.
        """
        if not self.analytic:
            return None
        run_index = lane.run_index
        _sited, _inbounds, divergent, writable = self._overlay(lane)
        prunes: list[str] = []
        for name, byte_masks in writable.items():
            tag = self.writable_verdict(name, byte_masks)
            if tag is None:
                # A writable-object fault that disagrees with some
                # read-time snapshot bites data written *during* the
                # run; only real execution can tell its visibility.
                return None
            prunes.append(tag)
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
        prot_read = {
            name: offsets for name, offsets in visible.items()
            if name in self.protected and name in self.first_prot_read
        }
        point = self._detection_point(visible)
        if point is not None:
            if not prot_read.keys() <= self.detection_names:
                # Divergence reaches detection- and correction-protected
                # objects alike; execution decides which acts first.
                return None
            det_name, i_star = point
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
        # Without a detection point, divergence reaching a detection-
        # protected object always escapes the scheme first, so a lane
        # past this check diverges only in correction-protected data.
        if any(name in self.first_unchecked for name in visible):
            return None
        if prot_read:
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
        lane: "_Lane",
        result: RunResult,
        evidence: str,
        verdicts: list | None = None,
    ) -> ProvenanceRecord:
        """Derive the classified lane's :class:`ProvenanceRecord`.

        ``evidence`` is the lane's label (``analytic`` when the
        classifier decided it); ``verdicts`` are a SECDED lane's
        per-fault :class:`~repro.faults.secded_filter.EccVerdict` s.
        Under SECDED what the application observes is the post-decode
        delivery, not the injected overlay, so causes come from the
        verdicts and the golden-stream exposure measure is nulled.
        """
        c = self.campaign
        outcome = result.outcome
        first, total, consumers, detection = None, 0, {}, None
        if c.config.secded:
            cause = self._secded_cause(outcome, verdicts)
        else:
            sited, inbounds, ro_divergent, writable = self._overlay(lane)
            first, total, consumers = self._propagation(
                ro_divergent, writable
            )
            cause = self._cause(
                outcome, sited, inbounds, ro_divergent, writable
            )
            if outcome is Outcome.DETECTED:
                detection = self._detection_point(ro_divergent)
        return ProvenanceRecord(
            run_index=lane.run_index,
            seed=lane.seed,
            app=c.app.name,
            scheme=c.scheme_name,
            selection=c.selection.name,
            n_blocks=c.config.n_blocks,
            n_bits=c.config.n_bits,
            outcome=outcome.value,
            evidence=evidence,
            cause=cause,
            sites=self._sites(lane.faults, verdicts),
            first_corrupted_read=first,
            corrupted_reads=total,
            consumers=tuple(sorted(consumers.items())),
            detection=detection,
        )

    def _sites(
        self, faults: list, verdicts: list | None
    ) -> tuple[ProvenanceSite, ...]:
        """One site per fault cluster, with injection-time visibility.

        Visibility is judged against the fault's *own* masks (not the
        cross-fault merge), so a site's record is independent of what
        other clusters hit the same run; under SECDED a site is
        visible when the decode delivers wrong data.
        """
        sites = []
        for i, fault in enumerate(faults):
            obj = self.campaign._object_for_block(fault.block_addr)
            if verdicts is not None:
                visible = verdicts[i] in _DELIVERED
            else:
                visible = any(
                    self._diverges(byte_addr, or_mask, and_mask)
                    for byte_addr, (or_mask, and_mask)
                    in fault.byte_masks().items()
                    if byte_addr - obj.base_addr < obj.nbytes
                )
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
        if outcome is not Outcome.MASKED:
            return _LOUD_CAUSES[outcome]
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
                    base_agrees = not any(
                        self._diverges(obj.base_addr + offset,
                                       or_mask, and_mask)
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

    @staticmethod
    def _secded_cause(outcome: Outcome, verdicts: list) -> str:
        """A SECDED lane's cause, attributed from its ECC verdicts."""
        if outcome is Outcome.DETECTED and EccVerdict.DUE in verdicts:
            return "secded-due"
        if outcome is not Outcome.MASKED:
            return _LOUD_CAUSES[outcome]
        if any(v in _DELIVERED for v in verdicts):
            return "tolerated"
        if EccVerdict.CORRECTED in verdicts:
            return "secded-corrected"
        return "value-agrees"
