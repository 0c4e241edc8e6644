"""Batched fault propagation: plan and classify N runs in one pass.

The batched engine is the one campaign loop: ``Campaign.run_span``
sweeps every span through :class:`BatchEngine` in slices of
``Campaign.batch`` lanes (default :data:`DEFAULT_BATCH`; ``batch=1``
means one-lane sweeps).  Most injected fault clusters are either
invisible (the stuck bits agree with the data underneath) or fully
absorbed by the replication scheme before they reach the kernel, so
instead of paying the full pipeline per run — seed derivation, memory
clone, scheme construction, functional execution, output comparison —
the engine splits the lanes analytically.  It shares one lane
pipeline with :meth:`~repro.faults.campaign.Campaign.run_one`: the
reference planner (``Campaign._plan``), fault injection with the
scheme built by :func:`~repro.core.schemes.make_protection`
(``Campaign._inject``), outcome classification (``Campaign._outcome``)
and record emission (``Campaign._emit``), so every protection spec —
uniform, mixed per-object, SECDED — runs here.

* **Planning** is vectorized: per-lane seeds come from
  :func:`repro.utils.fastseed.derive_seeds` (SeedSequence as uint32
  array sweeps) and the per-lane generators are re-seeded in place via
  PCG64 state injection instead of being constructed.  The draws
  themselves replicate the reference planner call-for-call, so the
  sampled faults are bit-identical; a cross-check against the reference
  planner runs on the first lane of every batch and the whole plan
  falls back to it if it (or the module's one-time self check) ever
  disagrees.

* **Classification** exploits the stuck-at overlay algebra: a lane
  whose merged overlays are a no-op against the underlying bytes
  executes bitwise-identically to the fault-free run (MASKED); a lane
  whose visible divergence lies entirely in protected objects resolves
  from the fault-free read trace alone (DETECTED at the first
  detection-protected divergent read, or CORRECTED with the per-read
  vote counts), each object judged by its own scheme.  These *analytic*
  lanes produce the same :class:`RunResult` and
  :class:`~repro.obs.records.RunRecord` payloads as execution would,
  without touching the kernel.  The soundness argument is strictly
  data-driven — every analytic lane's kernel-visible data is bitwise
  equal to the clean run's up to the classification point, so control
  flow (and hence the read trace) cannot diverge either; see
  docs/MODELING.md.

* **Equivalence-class pruning** consumes the golden read/write
  timeline (:class:`repro.faults.evidence.GoldenTimeline`): faults in
  objects that are provably dead (on no read path at all) and faults
  in writable objects whose stuck bits agree with the object's
  content at every golden-run read — overwritten-before-next-read
  windows included — are tallied analytically as MASKED without
  simulating.  Prune tallies surface as
  ``campaign.batch.pruned.{dead,agrees,unread}`` counters.

* Remaining **exec lanes** — visible divergence in an unprotected
  object, a writable-object fault the snapshots cannot clear, or
  divergence reaching both a detection- and a correction-protected
  object — run one at a time through the campaign's own lane pipeline
  (``Campaign._run_lane``: inject, ``execute``, outcome, emit) as soon
  as the classifier declines them, so a batch holds at most one
  executing lane's memory.

* **SECDED** lanes skip the analytic classifier: the kernel consumes
  post-decode data, not the injected overlays.  Each lane's faults are
  filtered through the (72,64) decode; a lane with a
  detected-uncorrectable error resolves to DETECTED without executing,
  the rest execute like any other exec lane, and the per-fault ECC
  verdicts feed the provenance derivation.

The fault-free evidence base (golden timeline, prefix read counts,
clean counters, layout caches), the analytic classifier and the
provenance derivation live in
:class:`repro.faults.evidence.GoldenEvidence`.  The classifier's
overlay analysis of a lane is kept on the lane and reused by its
provenance record; both strategies reason from the same captured
state, which is what makes telemetry *and* provenance streams
byte-identical across ``--batch`` settings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.faults.model import FaultSpec, sample_word_fault
from repro.faults.outcomes import RunResult
from repro.utils import fastseed
from repro.utils.rng import RngStream

#: Lanes per sweep when no ``batch`` is named (``Campaign``,
#: ``EvaluationRequest``, ``evaluate``, ``optimize``, ``--batch``).
DEFAULT_BATCH = 64


@dataclass
class _Lane:
    """One planned run: its seed and sampled faults, plus the overlay
    analysis :class:`~repro.faults.evidence.GoldenEvidence` makes of
    them on first use."""

    run_index: int
    seed: int
    faults: list[FaultSpec]
    overlay: tuple | None = None


class _FastStream(RngStream):
    """An :class:`RngStream` facade over one reused, re-seeded PCG64.

    ``attach`` injects the generator state for the next lane instead of
    constructing a fresh ``Generator`` (which costs more than the draws
    it serves); lanes draw strictly sequentially, never concurrently.
    The weighted without-replacement draw goes through the
    :func:`~repro.utils.fastseed.weighted_choice` emulation — every
    other draw runs the real numpy ``Generator`` methods unchanged.
    """

    def __init__(self):
        self.seed = 0
        self._rng = np.random.Generator(np.random.PCG64(0))
        self._child_pool: list[RngStream] = []

    def attach(self, seed: int, words) -> None:
        self.seed = seed
        fastseed.reseed(self._rng.bit_generator, *words)

    def prepared_weighted_indices(self, p: np.ndarray, k: int) -> list[int]:
        return fastseed.weighted_choice(self._rng, p, k)


class BatchEngine:
    """Per-campaign batched planner + classifier."""

    def __init__(self, campaign):
        self.campaign = campaign
        #: Whether the vectorized seed/generator emulation is trusted
        #: in this process (one-time self check + per-batch cross-check).
        self._fast = fastseed.self_check()
        self._parent = _FastStream()
        self._child = _FastStream()

    # ------------------------------------------------------------------
    # Lane planning (vectorized seeds, reused generators)
    # ------------------------------------------------------------------
    def _plan_fast(self, start: int, stop: int) -> list[_Lane]:
        c = self.campaign
        indices = np.arange(start, stop, dtype=np.uint64)
        seeds = fastseed.derive_seeds(c.config.seed, indices)
        parent_words = fastseed.generator_state_words(seeds)
        picks: list[list[int]] = []
        for i in range(indices.shape[0]):
            self._parent.attach(
                int(seeds[i]), [int(w[i]) for w in parent_words]
            )
            picks.append(c.selection.pick(self._parent, c.config.n_blocks))
        n_children = len(picks[0])
        child_words = [
            fastseed.generator_state_words(
                fastseed.derive_child_seeds(seeds, j)
            )
            for j in range(n_children)
        ]
        lanes = []
        for i in range(indices.shape[0]):
            faults = []
            for j, addr in enumerate(picks[i]):
                self._child.attach(0, [int(w[i]) for w in child_words[j]])
                faults.append(sample_word_fault(
                    self._child, addr, c.config.n_bits,
                    word_candidates=c._live_words_for(addr),
                ))
            lanes.append(_Lane(int(indices[i]), int(seeds[i]), faults))
        return lanes

    def _plan(self, start: int, stop: int) -> list[_Lane]:
        c = self.campaign
        # A one-lane batch would be all cross-check: plan it with the
        # reference planner alone.
        if self._fast and stop - start > 1:
            lanes = self._plan_fast(start, stop)
            # Cross-check the first lane of every batch against the
            # reference planner; any disagreement (a numpy internals
            # change the self check somehow missed) permanently demotes
            # this engine to reference planning.
            reference = c._plan(start)
            if (lanes[0].seed, lanes[0].faults) == \
                    (reference.seed, reference.faults):
                return lanes
            self._fast = False
        return [c._plan(i) for i in range(start, stop)]

    # ------------------------------------------------------------------
    # Batch entry point
    # ------------------------------------------------------------------
    def run_batch(
        self, start: int, stop: int, metrics=None, record_sink=None,
        provenance_sink=None,
    ) -> list[RunResult]:
        """Execute runs ``start..stop`` as one batch.

        Emits the same per-run metrics and (with ``record_sink`` /
        ``provenance_sink``) the same :class:`RunRecord` and
        :class:`~repro.obs.provenance.ProvenanceRecord` payloads as
        :meth:`~repro.faults.campaign.Campaign.run_one` per index, in
        run-index order.  Each lane's ``campaign.run_ms.<outcome>``
        latency is timed from its classification to its emission.
        """
        c = self.campaign
        # Under SECDED the kernel consumes post-decode data, not the
        # injected overlays the analytic classifier reasons about, so
        # no lane is classified and the golden run is left to the
        # provenance derivation, if any.
        ev = None if c.config.secded else c._golden_evidence()
        results = []
        n_analytic = 0
        pruned: dict[str, int] = {}
        for lane in self._plan(start, stop):
            begin = time.perf_counter()
            verdict = None if ev is None else ev.classify_analytic(lane)
            if verdict is None:
                run = c._run_lane(lane, c._run_memory(), metrics,
                                  record_sink, provenance_sink,
                                  evidence="executed")
            else:
                run, counters, prunes = verdict
                n_analytic += 1
                for tag in prunes:
                    pruned[tag] = pruned.get(tag, 0) + 1
                c._emit(lane, run, counters, metrics, record_sink,
                        provenance_sink, evidence="analytic")
            # Drop the emitted lane's overlay analysis: kept while the
            # next lanes execute, each one pins an allocator arena their
            # temporaries filled (+20 MB peak RSS on a default-scale
            # P-BICG baseline campaign of 64-lane batches).
            lane.overlay = None
            if metrics is not None:
                metrics.observe(f"campaign.run_ms.{run.outcome.value}",
                                (time.perf_counter() - begin) * 1e3)
            results.append(run)
        if metrics is not None:
            metrics.inc("campaign.batch.analytic_lanes", n_analytic)
            metrics.inc("campaign.batch.exec_lanes",
                        len(results) - n_analytic)
            for tag in sorted(pruned):
                metrics.inc(f"campaign.batch.pruned.{tag}", pruned[tag])
        return results
