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
from repro.core.request import EvaluationRequest, resolve_request
from repro.errors import ConfigError, SpecError
from repro.faults.adaptive import AdaptiveConfig
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
        self, request: EvaluationRequest | None = None, **fields,
    ) -> CampaignResult:
        """The reliability evaluation (one Fig 9 configuration).

        Pass the experiment as one
        :class:`~repro.core.request.EvaluationRequest` via
        ``request=``, or as its fields by keyword
        (``evaluate(scheme="detection", runs=500, secded=True)``);
        the request declares what each field means and its default.
        Passing both raises :class:`~repro.errors.SpecError`.

        The manager's application fixes ``app``, ``scale`` and
        ``app_seed``: as keywords they raise
        :class:`~repro.errors.SpecError`, and ``jobs=None`` (or no
        ``jobs``) means the manager's own ``jobs``.  A request's
        ``app`` must name this manager's application and, for a
        registered application, ``scale``/``app_seed`` must build this
        very instance; any other request raises
        :class:`~repro.errors.SpecError`.  A manager on custom sizes
        (``create_app(name, nx=...)``) is reached by no ``(scale,
        app_seed)``, so it takes the keywords; a user application
        subclass is checked by name only.
        """
        return self._campaign(self._resolve(request, fields)).run()

    def evaluate_adaptive(
        self, request: EvaluationRequest | None = None, **fields,
    ):
        """Adaptive reliability evaluation: stop at the target margin.

        Same experiment as :meth:`evaluate` (keywords default to
        ``target_margin=0.03``) but returns the
        :class:`~repro.faults.adaptive.AdaptiveResult` — committed
        result plus the chunk-boundary stop-decision trail — instead
        of only the merged :class:`CampaignResult`.  The request must
        carry a ``target_margin``.
        """
        request = self._resolve(request, fields, target_margin=0.03)
        if request.target_margin is None:
            raise SpecError(
                "evaluate_adaptive needs a request with a target_margin"
            )
        return self._campaign(request).run_adaptive()

    def _resolve(
        self, request: EvaluationRequest | None, fields: dict,
        fixed: tuple[str, ...] = (), **defaults,
    ) -> EvaluationRequest:
        """An entry point's request (see
        :func:`~repro.core.request.resolve_request`): a caller's
        ``request``, checked to build this very application instance,
        or one built from ``fields`` for this manager's application,
        ``jobs=None`` meaning the manager's own."""
        if request is None:
            if fields.get("jobs") is None:
                fields["jobs"] = self.jobs
            return resolve_request(
                None, fields, ("app", "scale", "app_seed", *fixed),
                app=self.app.name, **defaults)
        resolve_request(request, fields)
        if request.app != self.app.name:
            raise SpecError(
                f"request is for {request.app!r}, this manager "
                f"drives {self.app.name!r}"
            )
        if request.app in ALL_APPLICATIONS and app_cache_key(create_app(
                request.app, scale=request.scale,
                seed=request.app_seed)) != app_cache_key(self.app):
            raise SpecError(
                f"request is for {request.app!r} at scale "
                f"{request.scale!r}, app seed {request.app_seed}; this "
                f"manager drives a different {self.app.name!r} instance"
            )
        return request

    def _campaign(self, request: EvaluationRequest) -> Campaign:
        """The one campaign builder: ``request`` as a campaign on this
        manager's application.  Its ``chunk_runs`` is the stop rule's
        ``check_every``, the boundaries a
        :class:`~repro.runtime.session.Session` decides at."""
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
            metrics=request.metrics,
            batch=request.batch,
            adaptive=None if margin is None else AdaptiveConfig(
                target_margin=float(margin),
                check_every=request.chunk_runs or AdaptiveConfig.check_every),
            progress=request.progress,
        )

    def motivation(self, space: str, **fields) -> CampaignResult:
        """The Fig 6 motivation experiment: unprotected app, faults in
        ``space`` in {"hot", "rest"}.  ``fields`` are the
        :meth:`evaluate` keywords; the experiment fixes ``scheme``,
        ``protect`` and ``selection``."""
        if space not in ("hot", "rest"):
            raise ConfigError("motivation space must be 'hot' or 'rest'")
        return self._campaign(self._resolve(
            None, fields, ("scheme", "protect", "selection"),
            scheme="baseline", protect="none", selection=space)).run()

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
