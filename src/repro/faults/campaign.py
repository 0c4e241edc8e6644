"""Fault-injection campaign runner.

A campaign executes many independent fault-injected runs of one
application under one resilience configuration and tallies outcomes.
Each run is fully reproducible from (campaign seed, run index):

1. clone the pristine device memory (inputs are set up once),
2. instantiate the scheme (allocating and populating replicas),
3. select the target blocks per the campaign's policy,
4. inject the stuck-at multi-bit faults,
5. execute the application functionally through the scheme reader,
6. classify the outcome against the fault-free golden output.

Replication happens before injection, matching the paper's flow where
copies are stored in DRAM at application load time and faults arrive
in the *primary* application address space (see DESIGN.md; the
replica-fault ablation bench exercises the other case).
"""

from __future__ import annotations

import copy
import heapq
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.arch.address_space import DataObject, DeviceMemory
from repro.core.protection import ProtectionSpec
from repro.core.replication import protected_object
from repro.core.schemes import SCHEME_NAMES, make_protection
from repro.errors import (
    ConfigError,
    FaultDetected,
    KernelCrash,
    SpecError,
    UnknownSchemeError,
)
from repro.faults.batch import DEFAULT_BATCH, BatchEngine, _Lane
from repro.faults.evidence import GoldenEvidence
from repro.faults.injector import apply_faults_merged, merge_fault_masks
from repro.faults.secded_filter import apply_filtered_faults
from repro.faults.model import live_words, sample_word_fault
from repro.faults.outcomes import Outcome, RunResult
from repro.faults.selection import BlockSelection
from repro.kernels.base import GpuApplication
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceRecord
from repro.obs.records import RunRecord
from repro.utils.canonical import canonical_digest
from repro.utils.rng import RngStream, derive_seed
from repro.utils.stats import (
    ConfidenceInterval,
    confidence_interval,
    zero_run_interval,
)

#: Bumped whenever the serialized campaign-result shape changes
#: incompatibly (checkpoint chunks embed it).  v2 added the
#: ``provenance`` record list.
RESULT_VERSION = 2


def merge_sorted_runs(parts: Iterable[list]) -> list:
    """Merge per-chunk run lists into one list ordered by run index.

    Each part must already be internally ordered (chunks execute their
    spans in index order); the merge is then linear and stable.  Works
    on anything carrying a ``run_index`` — both
    :class:`~repro.faults.outcomes.RunResult` and
    :class:`~repro.obs.records.RunRecord` streams go through here.
    """
    merged = list(heapq.merge(*parts, key=lambda run: run.run_index))
    for before, after in zip(merged, merged[1:]):
        if after.run_index <= before.run_index:
            raise ConfigError(
                f"duplicate run index {after.run_index} while merging "
                "campaign chunks"
            )
    return merged


@dataclass(frozen=True)
class CampaignConfig:
    """Fault-injection parameters of one campaign.

    The paper's grid is ``n_blocks`` in {1, 5} x ``n_bits`` in
    {2, 3, 4} with ``runs = 1000``.
    """

    runs: int = 1000
    n_blocks: int = 1
    n_bits: int = 2
    seed: int = 20210621  # DSN 2021 opening day
    #: Model the SECDED baseline explicitly: every fault cluster is
    #: filtered through a real (72,64) decode before it reaches the
    #: application (single-bit faults vanish, uncorrectable patterns
    #: end the run loudly, aliasing patterns deliver miscorrected
    #: data).  Off by default — the paper's multi-bit experiments
    #: assume the injected faults already escaped SECDED.
    secded: bool = False

    def __post_init__(self) -> None:
        if self.runs <= 0:
            raise ConfigError("runs must be positive")
        if self.n_blocks <= 0:
            raise ConfigError("n_blocks must be positive")
        if not 1 <= self.n_bits <= 32:
            raise ConfigError("n_bits must be in [1, 32]")

    def to_dict(self) -> dict:
        """JSON-ready image (canonical field order comes from the
        encoder's key sorting, not from this dict)."""
        return {
            "runs": self.runs,
            "n_blocks": self.n_blocks,
            "n_bits": self.n_bits,
            "seed": self.seed,
            "secded": self.secded,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        """Rebuild a config from a :meth:`to_dict` image."""
        if not isinstance(data, dict):
            raise SpecError(f"campaign config must be an object, "
                            f"got {type(data).__name__}")
        extra = set(data) - {"runs", "n_blocks", "n_bits", "seed", "secded"}
        if extra:
            raise SpecError(f"campaign config has unknown keys {sorted(extra)}")
        try:
            return cls(
                runs=int(data["runs"]),
                n_blocks=int(data["n_blocks"]),
                n_bits=int(data["n_bits"]),
                seed=int(data["seed"]),
                secded=bool(data["secded"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad campaign config: {exc}") from None


@dataclass
class CampaignResult:
    """Aggregated outcomes of a campaign.

    Invariant: ``runs`` (populated when ``keep_runs=True``) is ordered
    by strictly increasing ``run_index`` — chunked parallel execution
    reassembles it through :func:`merge_sorted_runs`, so the output is
    order-stable no matter how workers interleave.
    """

    app_name: str
    scheme_name: str
    selection_name: str
    config: CampaignConfig
    counts: dict[Outcome, int] = field(
        default_factory=lambda: {o: 0 for o in Outcome}
    )
    runs: list[RunResult] = field(default_factory=list)
    #: Per-run telemetry (populated with ``collect_records=True``),
    #: ordered by strictly increasing run index like ``runs``.
    records: list[RunRecord] = field(default_factory=list)
    #: Per-run fault provenance (populated with
    #: ``collect_provenance=True``), same ordering contract.
    provenance: list[ProvenanceRecord] = field(default_factory=list)
    #: Picklable :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` of
    #: the metrics gathered while producing this (chunk) result.  Not
    #: part of result equality — wall-clock data is observability only.
    metrics_snapshot: dict | None = field(default=None, compare=False)

    @property
    def n_runs(self) -> int:
        return sum(self.counts.values())

    def validate(self) -> None:
        """Check the result's internal invariants.

        ``runs`` and ``records`` must be strictly ordered by run index
        and, when kept, must agree in size with the outcome tallies.
        """
        for kind, items in (("runs", self.runs), ("records", self.records),
                            ("provenance", self.provenance)):
            for before, after in zip(items, items[1:]):
                if after.run_index <= before.run_index:
                    raise ConfigError(
                        f"{self.app_name}: {kind} out of order "
                        f"({before.run_index} then {after.run_index})"
                    )
            if items and len(items) != self.n_runs:
                raise ConfigError(
                    f"{self.app_name}: {len(items)} kept {kind} but "
                    f"{self.n_runs} counted outcomes"
                )

    def _identity(self) -> tuple:
        return (self.app_name, self.scheme_name, self.selection_name,
                self.config)

    @classmethod
    def merge(cls, parts: Iterable["CampaignResult"]) -> "CampaignResult":
        """Combine chunk results into one campaign result.

        Counts add up; kept runs and telemetry records are merged back
        into run-index order; metrics snapshots fold together
        additively.  All parts must come from the same campaign
        configuration.
        """
        parts = list(parts)
        if not parts:
            raise ConfigError("cannot merge zero campaign results")
        identity = parts[0]._identity()
        for part in parts[1:]:
            if part._identity() != identity:
                raise ConfigError(
                    "cannot merge results from different campaigns: "
                    f"{identity} vs {part._identity()}"
                )
        merged = cls(
            app_name=parts[0].app_name,
            scheme_name=parts[0].scheme_name,
            selection_name=parts[0].selection_name,
            config=parts[0].config,
        )
        for outcome in Outcome:
            merged.counts[outcome] = sum(
                part.counts[outcome] for part in parts
            )
        merged.runs = merge_sorted_runs(part.runs for part in parts)
        merged.records = merge_sorted_runs(
            part.records for part in parts
        )
        merged.provenance = merge_sorted_runs(
            part.provenance for part in parts
        )
        if any(part.metrics_snapshot for part in parts):
            registry = MetricsRegistry()
            for part in parts:
                registry.merge_snapshot(part.metrics_snapshot)
            merged.metrics_snapshot = registry.snapshot()
        merged.validate()
        return merged

    def to_dict(self) -> dict:
        """JSON-ready image of this (chunk or merged) result.

        Everything deterministic goes in — counts, kept runs, telemetry
        records — and nothing wall-clock does: ``metrics_snapshot`` is
        observability only, so two results of the same campaign encode
        to byte-identical canonical JSON no matter where or how fast
        they ran.  Floats are cast to Python ``float`` so the encoding
        round-trips exactly.
        """
        return {
            "version": RESULT_VERSION,
            "app": self.app_name,
            "scheme": self.scheme_name,
            "selection": self.selection_name,
            "config": self.config.to_dict(),
            "counts": {o.value: self.counts[o] for o in Outcome},
            "runs": [
                {
                    "run_index": r.run_index,
                    "outcome": r.outcome.value,
                    "error": float(r.error),
                    "detail": r.detail,
                }
                for r in self.runs
            ],
            "records": [record.to_dict() for record in self.records],
            "provenance": [
                record.to_dict() for record in self.provenance
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignResult":
        """Rebuild a result from a :meth:`to_dict` image, validating.

        Raises :class:`~repro.errors.SpecError` (or
        :class:`~repro.errors.TelemetryError` for a bad embedded run
        record) on any malformed payload; the checkpoint store wraps
        either into :class:`~repro.errors.CheckpointError`.
        """
        if not isinstance(data, dict):
            raise SpecError("campaign result must be an object")
        if data.get("version") != RESULT_VERSION:
            raise SpecError(
                f"unsupported campaign result version "
                f"{data.get('version')!r} (expected {RESULT_VERSION})"
            )
        for key, typ in (("app", str), ("scheme", str), ("selection", str),
                         ("counts", dict), ("runs", list),
                         ("records", list), ("provenance", list)):
            if not isinstance(data.get(key), typ):
                raise SpecError(f"campaign result key {key!r} bad/missing")
        if set(data["counts"]) != {o.value for o in Outcome}:
            raise SpecError(
                f"campaign result counts keys {sorted(data['counts'])} "
                "do not match the outcome taxonomy"
            )
        result = cls(
            app_name=data["app"],
            scheme_name=data["scheme"],
            selection_name=data["selection"],
            config=CampaignConfig.from_dict(data.get("config")),
        )
        for outcome in Outcome:
            n = data["counts"][outcome.value]
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise SpecError(f"bad count for outcome {outcome.value!r}")
            result.counts[outcome] = n
        try:
            result.runs = [
                RunResult(
                    run_index=int(r["run_index"]),
                    outcome=Outcome(r["outcome"]),
                    error=float(r["error"]),
                    detail=str(r["detail"]),
                )
                for r in data["runs"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad kept run in campaign result: {exc}") \
                from None
        result.records = [
            RunRecord.from_dict(record) for record in data["records"]
        ]
        result.provenance = [
            ProvenanceRecord.from_dict(record)
            for record in data["provenance"]
        ]
        result.validate()
        return result

    @property
    def sdc_count(self) -> int:
        return self.counts[Outcome.SDC]

    @property
    def sdc_rate(self) -> float:
        return self.sdc_count / self.n_runs if self.n_runs else 0.0

    def sdc_interval(self, level: float = 0.95) -> ConfidenceInterval:
        """Confidence interval on the SDC rate.

        An empty result (zero runs — e.g. rebuilt from a truncated
        telemetry stream) yields the vacuous [0, 1] interval rather
        than raising.
        """
        if self.n_runs == 0:
            return zero_run_interval(level)
        return confidence_interval(self.sdc_count, self.n_runs, level)

    def count(self, outcome: Outcome) -> int:
        """Number of runs ending with the given outcome."""
        return self.counts[outcome]

    def summary(self) -> str:
        """Human-readable multi-line result summary."""
        parts = [
            f"{self.app_name} [{self.scheme_name}, {self.selection_name}, "
            f"{self.config.n_blocks} block(s) x {self.config.n_bits}-bit, "
            f"{self.n_runs} runs]"
        ]
        for outcome in Outcome:
            n = self.counts[outcome]
            if n:
                parts.append(f"  {outcome.value}: {n}")
        parts.append(f"  SDC rate: {self.sdc_interval()}")
        return "\n".join(parts)


class Campaign:
    """Runs fault-injection experiments for one configuration.

    The configuration is ``scheme``/``protect`` (or a typed
    ``protection``), read back as :attr:`scheme_name` and
    :attr:`protected_names`; :meth:`run` and :meth:`run_adaptive` are
    the one way to execute it.

    ``jobs`` fans the runs out over that many worker processes (see
    :mod:`repro.runtime.executor`); the outcome is
    bit-identical to a serial execution because each run derives
    entirely from ``(seed, run_index)``.  Every run clones a
    once-prepared, replica-populated image copy-on-write, so it
    materializes private copies only of the objects it actually
    writes; :meth:`_run_reference` keeps the original deep-copy flow
    as the oracle that path is tested against.  Every span runs through
    the batched engine (:mod:`repro.faults.batch`), ``batch`` runs per
    sweep.

    ``collect_records=True`` makes every run emit a deterministic
    :class:`~repro.obs.records.RunRecord` into the result; ``metrics``
    names the :class:`~repro.obs.metrics.MetricsRegistry` that
    wall-clock observability (per-outcome run latency, fault
    placement, executor utilization) accumulates into — one is created
    if not supplied.
    """

    def __init__(
        self,
        app: GpuApplication,
        selection: BlockSelection,
        scheme: str | None = None,
        protect: tuple[str, ...] | None = None,
        config: CampaignConfig | None = None,
        keep_runs: bool = False,
        jobs: int = 1,
        collect_records: bool = False,
        collect_provenance: bool = False,
        metrics: MetricsRegistry | None = None,
        batch: int = DEFAULT_BATCH,
        target_margin: float | None = None,
        adaptive=None,
        progress=None,
        protection: ProtectionSpec | None = None,
    ):
        if protection is not None:
            # The typed spelling: a ProtectionSpec carries both the
            # scheme and the object list (mixed per-object schemes
            # included), so the string kwargs must stay unset.
            if scheme is not None or protect is not None:
                raise ConfigError(
                    "pass either protection= or scheme=/protect=, "
                    "not both"
                )
            scheme = protection.scheme_label
            protect = protection.objects
        if scheme is None:
            scheme = "baseline"
        if protect is None:
            protect = ()
        if protection is None:
            if scheme not in SCHEME_NAMES:
                raise UnknownSchemeError(scheme, SCHEME_NAMES)
            protection = ProtectionSpec.uniform(scheme, protect)
        if jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if batch < 1:
            raise ConfigError("batch must be >= 1")
        self.app = app
        self.selection = selection
        self.scheme_name = scheme
        self.protected_names = tuple(protect)
        #: Typed image of the configuration (always set; uniform
        #: string spellings are wrapped on construction).
        self.protection = protection
        self.config = config or CampaignConfig()
        self.keep_runs = keep_runs
        self.jobs = jobs
        self.collect_records = collect_records
        #: Emit one :class:`~repro.obs.provenance.ProvenanceRecord` per
        #: run into the result.  Off by default: the derivation walks
        #: the golden read timeline per run, a cost the plain
        #: telemetry path must not pay.
        self.collect_provenance = collect_provenance
        #: Runs planned and classified per batched sweep (1 = one-lane
        #: sweeps); the lanes the classifier declines execute one at a
        #: time.  Like ``jobs`` this is an execution knob, provably
        #: result-invariant, and stays out of :meth:`spec_identity`.
        self.batch = batch
        #: Early-stopping rule (an
        #: :class:`~repro.faults.adaptive.AdaptiveConfig`), built from
        #: the ``target_margin`` shorthand when only that is given.
        #: Unlike ``jobs``/``batch`` this *does* change the committed
        #: result (how many runs it holds), so it joins
        #: :meth:`spec_identity` — but only when enabled, keeping
        #: every exhaustive campaign's digest unchanged.
        if target_margin is not None and adaptive is not None:
            raise ConfigError(
                "pass either target_margin or adaptive, not both"
            )
        if target_margin is not None:
            from repro.faults.adaptive import AdaptiveConfig

            adaptive = AdaptiveConfig(target_margin=float(target_margin))
        self.adaptive = adaptive
        #: Live-progress sink: a callable taking one
        #: :class:`~repro.obs.progress.ProgressEvent`, invoked at chunk
        #: granularity by the execution core.  Observational only —
        #: never part of :meth:`spec_identity`, never shipped to
        #: workers, and when ``None`` (the default) a serial exhaustive
        #: campaign runs as one unchunked span.
        self.progress = progress
        #: The full AdaptiveResult of the last adaptive run (decision
        #: trail, convergence flag); None until one completes.
        self.adaptive_result = None
        self._batch_engine: BatchEngine | None = None
        #: Lazily captured fault-free evidence base shared by the
        #: batch classifier and the provenance derivation.
        self._evidence: GoldenEvidence | None = None
        #: Observability sink for this campaign (and, when run through
        #: the executor, for the executor's own chunk/utilization
        #: metrics).  Never feeds back into results.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        from repro.runtime.cache import app_context

        context = app_context(app)
        self._pristine = context.pristine
        # Refuse an unknown or writable protected object here rather
        # than in the first chunk's replica build, which would retry it.
        for name in self.protection.objects:
            protected_object(self._pristine, name)
        self._golden = context.golden
        #: Prepared per-campaign image: pristine memory plus the
        #: scheme's replicas, built once and COW-cloned per run.
        self._base_memory: DeviceMemory | None = None
        #: Owning object and live-word candidates per block address; the
        #: object layout is identical in every clone, so repeats across
        #: runs reuse them.
        self._block_objects: dict[int, DataObject] = {}
        self._live_words: dict[int, list[int]] = {}

    def spec_identity(self) -> dict:
        """Canonical structural identity of this campaign.

        Everything that determines the deterministic payload of the
        campaign's results: the application's structural cache key,
        the selection policy, scheme, protected objects, fault config
        and the result-shape flags.  Execution knobs that provably do
        not change results (``jobs``, ``batch``) stay out, so a
        checkpoint taken at one parallelism resumes at any other.
        """
        from repro.runtime.cache import app_cache_key

        module, qualname, scalars = app_cache_key(self.app)
        identity = {
            "app": {
                "class": f"{module}.{qualname}",
                "params": [[name, value] for name, value in scalars],
            },
            "selection": self.selection.name,
            "scheme": self.scheme_name,
            "protect": list(self.protected_names),
            "config": self.config.to_dict(),
            "keep_runs": self.keep_runs,
            "collect_records": self.collect_records,
        }
        if self.collect_provenance:
            # Conditional like "adaptive" below, so every digest taken
            # before provenance existed stays valid.
            identity["collect_provenance"] = True
        if self.adaptive is not None:
            identity["adaptive"] = self.adaptive.to_dict()
        if self.protection.is_mixed:
            # Mixed configurations carry the full per-object scheme
            # map; uniform ones are fully described by scheme/protect
            # above, so their digests predate this key and must not
            # change.
            identity["protection"] = self.protection.to_dict()
        return identity

    def identity_digest(self) -> str:
        """Content address of :meth:`spec_identity` (checkpoint key)."""
        return canonical_digest(self.spec_identity())

    def run(self, jobs: int | None = None) -> CampaignResult:
        """Execute every run and aggregate the outcomes.

        ``jobs`` overrides the campaign's parallelism for this call.
        With an ``adaptive`` config (or ``target_margin``) set, runs
        commit in chunks and the campaign stops at the first chunk
        boundary whose Wilson CI meets the target margin; the full
        decision trail lands in :attr:`adaptive_result`.
        """
        from repro.runtime.executor import _run_campaigns

        jobs = self.jobs if jobs is None else int(jobs)
        if jobs < 1:
            raise ConfigError("jobs must be >= 1")
        [result], _ = _run_campaigns([self], jobs, metrics=self.metrics,
                                     progress=self.progress)
        return result

    def run_adaptive(self, jobs: int | None = None, config=None):
        """Execute under the CI-driven early-stopping rule.

        Returns the :class:`~repro.faults.adaptive.AdaptiveResult`
        (committed result + stop-decision trail), also stored in
        :attr:`adaptive_result`.  ``config`` overrides the campaign's
        own ``adaptive`` config for this call; a copy of the campaign
        runs under it, so this one keeps its own rule.
        """
        cfg = config if config is not None else self.adaptive
        if cfg is None:
            raise ConfigError(
                "run_adaptive needs an AdaptiveConfig — construct the "
                "campaign with target_margin/adaptive or pass config="
            )
        campaign = copy.copy(self)
        campaign.adaptive = cfg
        campaign.run(jobs)
        self.adaptive_result = campaign.adaptive_result
        return self.adaptive_result

    def run_span(self, start: int, stop: int) -> CampaignResult:
        """Execute runs ``start..stop`` serially (one parallel chunk)
        as :meth:`run_batch` sweeps of ``batch`` runs.

        Metrics accumulate into a span-local registry whose snapshot is
        attached to the chunk result — worker processes ship it home
        that way, and serial callers fold it into ``self.metrics``.
        """
        result = CampaignResult(
            app_name=self.app.name,
            scheme_name=self.scheme_name,
            selection_name=self.selection.name,
            config=self.config,
        )
        span_metrics = MetricsRegistry()
        record_sink = result.records if self.collect_records else None
        provenance_sink = (
            result.provenance if self.collect_provenance else None
        )
        span_begin = time.perf_counter()
        for index in range(start, stop, self.batch):
            batch_begin = time.perf_counter()
            batch_runs = self.run_batch(
                index, min(index + self.batch, stop),
                metrics=span_metrics, record_sink=record_sink,
                provenance_sink=provenance_sink,
            )
            span_metrics.observe(
                "campaign.batch_ms",
                (time.perf_counter() - batch_begin) * 1e3,
            )
            for run_result in batch_runs:
                result.counts[run_result.outcome] += 1
                if self.keep_runs:
                    result.runs.append(run_result)
        span_metrics.observe(
            "campaign.span_ms", (time.perf_counter() - span_begin) * 1e3
        )
        result.metrics_snapshot = span_metrics.snapshot()
        return result

    def run_batch(
        self,
        start: int,
        stop: int,
        metrics: MetricsRegistry | None = None,
        record_sink: list[RunRecord] | None = None,
        provenance_sink: list[ProvenanceRecord] | None = None,
    ) -> list[RunResult]:
        """Execute runs ``start..stop`` as one batched sweep.

        Results, metrics and (with ``record_sink`` /
        ``provenance_sink``) RunRecords and ProvenanceRecords are
        identical to calling :meth:`run_one` per index — the batched
        engine (see :mod:`repro.faults.batch`) is an execution
        strategy, not a semantic variant, for every protection spec
        (uniform, mixed, SECDED).  ``metrics`` also receives each
        lane's ``campaign.run_ms.<outcome>`` latency.
        """
        if self._batch_engine is None:
            self._batch_engine = BatchEngine(self)
        return self._batch_engine.run_batch(
            start, stop, metrics=metrics, record_sink=record_sink,
            provenance_sink=provenance_sink,
        )

    def _golden_evidence(self) -> GoldenEvidence:
        """The campaign's :class:`~repro.faults.evidence.GoldenEvidence`.

        Captured on first use (one golden execution per process) and
        shared by the analytic classifier and the provenance
        derivation of every lane, swept or run alone — a single source
        of truth is what keeps their record streams byte-identical.
        """
        if self._evidence is None:
            self._evidence = GoldenEvidence(self)
        return self._evidence

    def _run_memory(self) -> DeviceMemory:
        """Per-run device memory: a COW clone of the prepared image."""
        if self._base_memory is None:
            if self.protection.is_baseline:
                # No replicas to prepare: COW straight off the shared
                # pristine image.
                self._base_memory = self._pristine
            else:
                base = self._pristine.clone()
                make_protection(base, self.protection)
                self._base_memory = base
        return self._base_memory.cow_clone()

    def _object_for_block(self, addr: int) -> DataObject:
        """The data object owning block address ``addr`` (memoized)."""
        obj = self._block_objects.get(addr)
        if obj is None:
            obj = self._pristine.object_at(addr)
            self._block_objects[addr] = obj
        return obj

    def _live_words_for(self, addr: int) -> list[int]:
        candidates = self._live_words.get(addr)
        if candidates is None:
            candidates = live_words(self._object_for_block(addr), addr)
            self._live_words[addr] = candidates
        return candidates

    def _plan(self, run_index: int) -> _Lane:
        """The reference plan of one run: its seed and sampled faults.

        The batch engine's vectorized planner reproduces these draws
        call for call and cross-checks every batch against this one.
        """
        seed = derive_seed(self.config.seed, run_index)
        rng = RngStream(seed)
        block_addrs = self.selection.pick(rng, self.config.n_blocks)
        children = rng.child_pool(len(block_addrs))
        faults = [
            sample_word_fault(
                children[i],
                addr,
                self.config.n_bits,
                word_candidates=self._live_words_for(addr),
            )
            for i, addr in enumerate(block_addrs)
        ]
        return _Lane(run_index, seed, faults)

    def run_one(
        self,
        run_index: int,
        metrics: MetricsRegistry | None = None,
        record_sink: list[RunRecord] | None = None,
        provenance_sink: list[ProvenanceRecord] | None = None,
    ) -> RunResult:
        """Execute one reproducible fault-injected run.

        ``metrics`` receives observability counters (fault placement by
        object, outcome tallies); ``record_sink`` receives the run's
        deterministic :class:`~repro.obs.records.RunRecord`;
        ``provenance_sink`` receives its
        :class:`~repro.obs.provenance.ProvenanceRecord`.  All are
        optional so ad-hoc single-run calls stay cheap.
        """
        return self._run_lane(
            self._plan(run_index), self._run_memory(), metrics,
            record_sink, provenance_sink,
        )

    def _run_reference(
        self, run_index: int, record_sink: list[RunRecord] | None = None,
        provenance_sink: list[ProvenanceRecord] | None = None,
    ) -> RunResult:
        """Execute one run on the original deep-copy flow.

        Deep-copies the pristine memory and rebuilds the replicas
        inside the run instead of COW-cloning the prepared image: the
        slow reference the copy-on-write and batched paths are tested
        against bit for bit.
        """
        return self._run_lane(
            self._plan(run_index), self._pristine.clone(),
            record_sink=record_sink, provenance_sink=provenance_sink,
        )

    def _run_lane(
        self,
        lane: _Lane,
        memory: DeviceMemory,
        metrics: MetricsRegistry | None = None,
        record_sink: list[RunRecord] | None = None,
        provenance_sink: list[ProvenanceRecord] | None = None,
        evidence: str | None = None,
    ) -> RunResult:
        """Inject one planned lane into ``memory``, execute, classify
        and emit it (``evidence`` as in :meth:`_emit`)."""
        scheme, verdicts, result = self._inject(lane, memory)
        if result is None:
            try:
                with np.errstate(all="ignore"):
                    output = self.app.execute(memory, scheme)
            except (FaultDetected, KernelCrash) as exc:
                output = exc
            result = self._outcome(lane.run_index, output, scheme)
        self._emit(lane, result, vars(scheme.stats), metrics,
                   record_sink, provenance_sink, evidence=evidence,
                   verdicts=verdicts)
        return result

    def _inject(self, lane: _Lane, memory: DeviceMemory):
        """Build the protection on ``memory``, then install the lane's
        faults.

        Returns ``(scheme, verdicts, result)``.  Under SECDED every
        fault cluster is first filtered through a real (72,64) decode:
        ``verdicts`` are its per-fault
        :class:`~repro.faults.secded_filter.EccVerdict` s, which the
        provenance derivation attributes causes from, and ``result``
        is the DETECTED outcome of a detected-uncorrectable error (the
        run ends before the application consumes anything).  Without
        SECDED both are ``None``.
        """
        scheme = make_protection(memory, self.protection)
        if not self.config.secded:
            apply_faults_merged(memory, merge_fault_masks(lane.faults))
            return scheme, None, None
        verdicts, due = apply_filtered_faults(memory, lane.faults)
        result = None
        if due:
            result = RunResult(
                lane.run_index, Outcome.DETECTED, 0.0,
                "SECDED detected-uncorrectable error (DUE)",
            )
        return scheme, verdicts, result

    def _outcome(self, run_index: int, output, scheme) -> RunResult:
        """Classify an executed lane against the golden output.

        ``output`` is the application's output array, or the
        :class:`~repro.errors.FaultDetected` /
        :class:`~repro.errors.KernelCrash` its execution raised.
        """
        if isinstance(output, FaultDetected):
            return RunResult(run_index, Outcome.DETECTED, 0.0, str(output))
        if isinstance(output, KernelCrash):
            return RunResult(run_index, Outcome.CRASH, 0.0, str(output))
        metric = self.app.error_metric.compare(self._golden, output)
        if metric.is_sdc:
            return RunResult(
                run_index, Outcome.SDC, metric.error,
                f"error {metric.error:.6g} > {metric.threshold:g}",
            )
        if scheme.stats.corrected_reads:
            return RunResult(
                run_index, Outcome.CORRECTED, metric.error,
                f"{scheme.stats.corrected_bytes} byte(s) voted out",
            )
        return RunResult(run_index, Outcome.MASKED, metric.error)

    def _emit(
        self,
        lane: _Lane,
        result: RunResult,
        counters: dict[str, int],
        metrics: MetricsRegistry | None = None,
        record_sink: list[RunRecord] | None = None,
        provenance_sink: list[ProvenanceRecord] | None = None,
        evidence: str | None = None,
        verdicts: list | None = None,
    ) -> None:
        """Emit one classified lane's per-run metrics and records.

        ``counters`` are the scheme's post-run stats; ``evidence``
        labels a lane the batched engine classified (``None`` for a
        lane nobody classified); ``verdicts`` are a SECDED lane's ECC
        verdicts.  Provenance comes from
        :meth:`repro.faults.evidence.GoldenEvidence.provenance`.
        """
        if provenance_sink is not None:
            golden = self._golden_evidence()
            if evidence is None:
                # Label an unclassified (run_one or reference) lane as
                # the batched engine would: analytic when the
                # classifier can decide it.
                analytic = golden.classify_analytic(lane) is not None
                evidence = "analytic" if analytic else "executed"
            provenance_sink.append(
                golden.provenance(lane, result, evidence, verdicts))
        if metrics is not None:
            for fault in lane.faults:
                obj = self._object_for_block(fault.block_addr)
                metrics.inc(f"campaign.faults.object.{obj.name}")
            metrics.inc(f"campaign.outcome.{result.outcome.value}")
        if record_sink is not None:
            record_sink.append(RunRecord(
                run_index=lane.run_index,
                seed=lane.seed,
                app=self.app.name,
                scheme=self.scheme_name,
                selection=self.selection.name,
                n_blocks=self.config.n_blocks,
                n_bits=self.config.n_bits,
                outcome=result.outcome.value,
                error=float(result.error),
                detail=result.detail,
                faults=tuple(lane.faults),
                counters=tuple(sorted(
                    (name, int(value)) for name, value in counters.items()
                )),
            ))
