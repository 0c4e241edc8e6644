"""End-to-end reliability management API.

:class:`ReliabilityManager` wires the whole pipeline together for one
application: trace generation, access profiling, hot-block/hot-object
identification, fault-injection campaigns (reliability, Figs 6/9) and
timing simulation (performance, Fig 7).

All profiling artifacts are computed lazily and cached — the paper's
"one-time offline analysis"; the memory and trace they derive from
live in the process's :class:`~repro.runtime.cache.AppContext`.
"""

from __future__ import annotations

from functools import cached_property

from repro.arch.address_space import DeviceMemory
from repro.arch.config import GpuConfig, PAPER_CONFIG
from repro.core.hardware import HardwareBudget
from repro.core.protection import ProtectionSpec
from repro.core.request import EvaluationRequest
from repro.errors import ConfigError, SpecError
from repro.faults.adaptive import AdaptiveConfig
from repro.faults.batch import DEFAULT_BATCH
from repro.faults.campaign import Campaign, CampaignConfig, CampaignResult
from repro.faults.selection import (
    BlockSelection,
    access_weighted_selection,
    hot_selection,
    miss_weighted_selection,
    rest_selection,
    uniform_selection,
)
from repro.kernels.base import GpuApplication
from repro.kernels.registry import ALL_APPLICATIONS, create_app
from repro.kernels.trace import AppTrace
from repro.profiling.access_profile import AccessProfile, profile_trace
from repro.profiling.hot_blocks import (
    HotBlockClassification,
    classify_hot_blocks,
)
from repro.profiling.hot_objects import Table3Row, table3_row
from repro.profiling.instrument import DiscoveryResult, discover
from repro.profiling.miss_profile import l1_miss_profile
from repro.runtime.cache import app_cache_key, app_context


class ReliabilityManager:
    """Profile an application and run the paper's experiments on it."""

    def __init__(
        self,
        app: GpuApplication,
        config: GpuConfig = PAPER_CONFIG,
        hot_factor: float = 8.0,
        jobs: int = 1,
    ):
        if jobs < 1:
            raise ConfigError("jobs must be >= 1")
        app.validate_declarations()
        self.app = app
        self.config = config
        self.hot_factor = hot_factor
        self.jobs = jobs
        self.budget = HardwareBudget.from_config(config)

    # ------------------------------------------------------------------
    # Cached offline analyses
    # ------------------------------------------------------------------
    @property
    def memory(self) -> DeviceMemory:
        """Pristine device memory with the app's allocations: the app
        context's, the very object its campaigns inject into."""
        return app_context(self.app).pristine

    @property
    def trace(self) -> AppTrace:
        """The app context's validated warp-level memory trace."""
        return app_context(self.app).trace

    @cached_property
    def profile(self) -> AccessProfile:
        return profile_trace(self.trace, self.memory)

    @cached_property
    def hot_blocks(self) -> HotBlockClassification:
        return classify_hot_blocks(self.profile, hot_factor=self.hot_factor)

    @cached_property
    def miss_counts(self) -> dict[int, int]:
        return l1_miss_profile(self.trace, self.config)

    def table3(self) -> Table3Row:
        """This app's Table III statistics."""
        return table3_row(self.app, self.profile, self.memory)

    def discover_hot_objects(self) -> DiscoveryResult:
        """Instrumentation-style discovery (ignores declared answers)."""
        return discover(self.app, self.memory, hot_factor=self.hot_factor)

    # ------------------------------------------------------------------
    # Protection levels
    # ------------------------------------------------------------------
    def protected_names(self, protect: int | str) -> tuple[str, ...]:
        """Resolve a protection level to object names.

        ``protect`` is an integer (cumulatively protect the first N
        objects of the importance order — the x-axis of Figs 7/9) or
        one of ``"none"``, ``"hot"``, ``"all"``.
        """
        order = self.app.object_importance
        if protect == "none":
            return ()
        if protect == "hot":
            return tuple(
                n for n in order if n in self.app.hot_object_names
            )
        if protect == "all":
            return tuple(order)
        if isinstance(protect, int):
            if not 0 <= protect <= len(order):
                raise SpecError(
                    f"protect={protect} outside [0, {len(order)}]"
                )
            return tuple(order[:protect])
        if isinstance(protect, ProtectionSpec):
            return protect.objects
        raise SpecError(f"bad protection level {protect!r}")

    def protection_spec(
        self, scheme: str, protect
    ) -> ProtectionSpec:
        """Resolve any protection spelling to a typed spec.

        ``protect`` may already be a
        :class:`~repro.core.protection.ProtectionSpec`, an explicit
        assignment string (``"obj=detection,obj2=correction"``), or
        the contextual shorthands :meth:`protected_names` resolves
        (``"none"``/``"hot"``/``"all"``/count) — the latter protected
        uniformly with ``scheme``.
        """
        if isinstance(protect, ProtectionSpec):
            return protect
        if isinstance(protect, str) and "=" in protect:
            return ProtectionSpec.parse(protect)
        return ProtectionSpec.uniform(
            scheme, self.protected_names(protect)
        )

    # ------------------------------------------------------------------
    # Block selections
    # ------------------------------------------------------------------
    def selection(self, kind: str) -> BlockSelection:
        """Build a block-selection policy.

        ``"hot"``/``"rest"`` — uniform over the (non-)hot blocks, the
        Fig 5/6 motivation experiment.  ``"access-weighted"`` — the
        Fig 8/9 evaluation policy at this repo's scale (see
        selection.py).  ``"miss-weighted"`` — the literal Fig 8 policy
        using the simulated L1.  ``"uniform"`` — uniform over every
        accessed block.
        """
        if kind in ("hot", "rest"):
            # Fig 5/6 splits at the object granularity the schemes
            # protect: the hot arm is the blocks of the hot data
            # objects (which the access profile ranks on top and which
            # are also warp-shared, Observation II); everything else
            # accessed is the rest arm.
            hot_addrs = {
                addr
                for obj in self.app.hot_objects(self.memory)
                for addr in obj.block_addrs()
            }
            if kind == "hot":
                if not hot_addrs:
                    raise ConfigError(
                        f"{self.app.name} has no hot objects to select from"
                    )
                return hot_selection(sorted(hot_addrs))
            rest = set(self.profile.block_reads) - hot_addrs
            return rest_selection(sorted(rest))
        if kind == "miss-weighted":
            return miss_weighted_selection(self.miss_counts)
        if kind == "access-weighted":
            return access_weighted_selection(self.profile.block_reads)
        if kind == "uniform":
            return uniform_selection(sorted(self.profile.block_reads))
        if kind == "stratified":
            from repro.faults.selection import stratify_by_object

            return stratify_by_object(
                self.profile.block_reads, self.memory.objects
            )
        raise SpecError(f"unknown selection kind {kind!r}")

    # ------------------------------------------------------------------
    # Experiments
    # ------------------------------------------------------------------
    def evaluate(
        self,
        scheme: str = "correction",
        protect: int | str = "hot",
        runs: int = 1000,
        n_blocks: int = 1,
        n_bits: int = 2,
        selection: str = "access-weighted",
        seed: int = 20210621,
        keep_runs: bool = False,
        jobs: int | None = None,
        collect_records: bool = False,
        collect_provenance: bool = False,
        metrics=None,
        batch: int = DEFAULT_BATCH,
        target_margin: float | None = None,
        progress=None,
        request: EvaluationRequest | None = None,
    ) -> CampaignResult:
        """The reliability evaluation (one Fig 9 configuration).

        ``jobs`` (worker processes for the campaign) defaults to the
        manager's own ``jobs`` setting.  ``collect_records=True`` fills
        the result's per-run telemetry records;
        ``collect_provenance=True`` its per-run
        :class:`~repro.obs.provenance.ProvenanceRecord` stream;
        ``metrics`` names the
        :class:`~repro.obs.metrics.MetricsRegistry` observability
        accumulates into.  ``batch`` plans and classifies that many
        runs per sweep of the batched engine (default
        :data:`~repro.faults.batch.DEFAULT_BATCH`; results are
        identical at every batch size).
        ``target_margin`` turns on CI-driven early stopping with
        ``runs`` as the budget (see :meth:`evaluate_adaptive` for the
        full decision trail).  ``progress`` names a live-progress sink
        (one :class:`~repro.obs.progress.ProgressEvent` per chunk);
        campaign results are identical with or without it.

        Alternatively pass the whole experiment as one
        :class:`~repro.core.request.EvaluationRequest` via
        ``request=`` — the unified surface shared with
        :class:`~repro.runtime.session.Session` and
        :func:`~repro.search.engine.optimize` — in which case the
        request supplies every field above.  Its ``app`` must name
        this manager's application and, for a registered application,
        ``scale``/``app_seed`` must build this very instance; any
        other request raises :class:`~repro.errors.SpecError`.  A
        manager on custom sizes (``create_app(name, nx=...)``) is
        reached by no ``(scale, app_seed)``, so it takes the keyword
        surface; a user application subclass is checked by name only.
        """
        return self._request_campaign(
            request, metrics, progress, scheme=scheme, protect=protect,
            runs=runs, n_blocks=n_blocks, n_bits=n_bits,
            selection=selection, seed=seed, keep_runs=keep_runs, jobs=jobs,
            collect_records=collect_records,
            collect_provenance=collect_provenance, batch=batch,
            target_margin=target_margin,
        ).run()

    def evaluate_adaptive(
        self,
        target_margin: float = 0.03,
        scheme: str = "correction",
        protect: int | str = "hot",
        runs: int = 1000,
        n_blocks: int = 1,
        n_bits: int = 2,
        selection: str = "access-weighted",
        seed: int = 20210621,
        keep_runs: bool = False,
        jobs: int | None = None,
        collect_records: bool = False,
        collect_provenance: bool = False,
        metrics=None,
        batch: int = DEFAULT_BATCH,
        progress=None,
        request: EvaluationRequest | None = None,
    ):
        """Adaptive reliability evaluation: stop at the target margin.

        Same experiment as :meth:`evaluate` but returns the
        :class:`~repro.faults.adaptive.AdaptiveResult` — committed
        result plus the chunk-boundary stop-decision trail — instead
        of only the merged :class:`CampaignResult`.  ``request=``
        supplies every field as in :meth:`evaluate`; it must carry a
        ``target_margin``.
        """
        if request is not None and request.target_margin is None:
            raise SpecError(
                "evaluate_adaptive needs a request with a target_margin"
            )
        return self._request_campaign(
            request, metrics, progress, scheme=scheme, protect=protect,
            runs=runs, n_blocks=n_blocks, n_bits=n_bits,
            selection=selection, seed=seed, keep_runs=keep_runs, jobs=jobs,
            collect_records=collect_records,
            collect_provenance=collect_provenance, batch=batch,
            target_margin=target_margin,
        ).run_adaptive()

    def _request_campaign(
        self, request: EvaluationRequest | None = None, metrics=None,
        progress=None, **fields,
    ) -> Campaign:
        """The one campaign builder: ``request``, or without one the
        keyword ``fields`` of :meth:`evaluate` (``jobs`` defaults to
        the manager's own), as a campaign.  Explicitly passed sinks win
        over the request's own, and its ``chunk_runs`` is the stop
        rule's ``check_every``, the boundaries a
        :class:`~repro.runtime.session.Session` decides at."""
        if request is None:
            jobs = fields.pop("jobs", None)
            request = EvaluationRequest(
                app=self.app.name, **fields,
                jobs=self.jobs if jobs is None else jobs)
        elif request.app != self.app.name:
            raise SpecError(
                f"request is for {request.app!r}, this manager "
                f"drives {self.app.name!r}"
            )
        elif request.app in ALL_APPLICATIONS and app_cache_key(create_app(
                request.app, scale=request.scale,
                seed=request.app_seed)) != app_cache_key(self.app):
            raise SpecError(
                f"request is for {request.app!r} at scale "
                f"{request.scale!r}, app seed {request.app_seed}; this "
                f"manager drives a different {self.app.name!r} instance"
            )
        # Typed (or explicit per-object) protection fully determines
        # scheme and objects; ``scheme`` is then unused.
        protection = request.protection
        how = {"protection": protection} if protection is not None else {
            "scheme": request.scheme,
            "protect": self.protected_names(request.protect)}
        margin = request.target_margin
        return Campaign(
            self.app, self.selection(request.selection), **how,
            config=CampaignConfig(
                runs=request.runs, n_blocks=request.n_blocks,
                n_bits=request.n_bits, seed=request.seed,
                secded=request.secded),
            keep_runs=request.keep_runs, jobs=request.jobs,
            collect_records=request.collect_records,
            collect_provenance=request.collect_provenance,
            metrics=metrics if metrics is not None else request.metrics,
            batch=request.batch,
            adaptive=None if margin is None else AdaptiveConfig(
                target_margin=float(margin),
                check_every=request.chunk_runs or AdaptiveConfig.check_every),
            progress=progress if progress is not None else request.progress,
        )

    def motivation(
        self,
        space: str,
        runs: int = 1000,
        n_blocks: int = 1,
        n_bits: int = 2,
        seed: int = 20210621,
        jobs: int | None = None,
    ) -> CampaignResult:
        """The Fig 6 motivation experiment: unprotected app, faults in
        ``space`` in {"hot", "rest"}."""
        if space not in ("hot", "rest"):
            raise ConfigError("motivation space must be 'hot' or 'rest'")
        return self.evaluate(
            scheme="baseline", protect="none", runs=runs,
            n_blocks=n_blocks, n_bits=n_bits, selection=space, seed=seed,
            jobs=jobs,
        )

    def simulate_performance(
        self, scheme: str = "baseline",
        protect: int | str | ProtectionSpec = "none",
        metrics=None, tracer=None,
    ):
        """One timing run (a Fig 7 bar): returns a SimReport.

        ``protect`` accepts every spelling
        :meth:`protection_spec` does — a typed
        :class:`~repro.core.protection.ProtectionSpec` (mixed
        per-object schemes included) or the string shorthands.

        Imported lazily to keep the functional pipeline import-light.
        ``metrics`` optionally receives the simulator's observability
        counters (see :func:`~repro.sim.simulator.simulate_trace`);
        ``tracer`` a :class:`~repro.obs.trace.TraceSession` recording
        the cycle-level event trace of this run.
        """
        from repro.sim.simulator import simulate_app

        return simulate_app(
            self.app,
            trace=self.trace,
            memory=self.memory,
            config=self.config,
            protection=self.protection_spec(scheme, protect),
            budget=self.budget,
            metrics=metrics,
            tracer=tracer,
        )
