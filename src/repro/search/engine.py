"""The design-space exploration engine (``repro optimize``).

:func:`optimize` drives a :class:`~repro.search.strategies` round
generator over a :class:`~repro.search.space.DesignSpace`, evaluating
each proposed protection configuration on three objectives:

* **SDC rate** — a fault-injection campaign per configuration, driven
  through the existing :class:`~repro.runtime.session.Session` sweep
  backend (one request per configuration, one session per round), so
  evaluations inherit the campaign machinery's guarantees wholesale:
  chunk-level checkpoints, byte-identical results at any
  ``jobs``/``batch``, and resumability;
* **performance overhead** — one timing simulation per configuration
  (slowdown minus one versus the unprotected baseline), run as a
  :class:`~repro.runtime.executor.SimUnit` of the same round's
  session, so at ``jobs > 1`` the simulations share the worker pool
  with the campaign chunks;
* **replica memory footprint** — pure address arithmetic
  (:meth:`~repro.core.protection.ProtectionSpec.replica_bytes`).

Durability: under ``store`` the engine keeps a ``SEARCH.json``
identity manifest, the vulnerability ranking under ``reports/``, and
one checkpoint directory per round (``round-0000``, ``round-0001``,
...) holding the round's campaign chunks and timing reports.  Because
strategies are deterministic, resuming re-proposes the same
candidates and each round replays instantly from its checkpoints — an
interrupted search (``SessionInterrupted``, exit code 75 in the CLI)
continues exactly where it stopped, simulating only the reports that
are missing, and the replayed search trail is byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.manager import ReliabilityManager
from repro.core.request import EvaluationRequest, resolve_request
from repro.errors import (
    CheckpointError,
    SessionInterrupted,
    SpecError,
)
from repro.kernels.registry import create_app
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.search import SearchTrailWriter
from repro.runtime.checkpoint import (
    CheckpointStore,
    atomic_write_json,
    read_json,
)
from repro.runtime.executor import SimUnit
from repro.runtime.session import Session, SessionConfig
from repro.search.pareto import Evaluation, budget_best, pareto_front
from repro.search.space import DesignPoint, DesignSpace
from repro.search.strategies import make_strategy
from repro.utils.canonical import canonical_digest

log = get_logger("search")

#: Manifest file stamping a search's durability root.
SEARCH_MANIFEST = "SEARCH.json"

#: Backstop on runaway strategies (a strategy that never returns an
#: empty proposal still terminates).
MAX_ROUNDS = 64


@dataclass
class OptimizeResult:
    """Outcome of one design-space exploration."""

    app: str
    strategy: str
    space: DesignSpace
    #: Every committed evaluation, in canonical (objectives, digest)
    #: order.
    evaluations: list[Evaluation] = field(default_factory=list)
    #: The non-dominated subset, canonically ordered.
    front: list[Evaluation] = field(default_factory=list)
    #: The budget solver's pick (``None`` when nothing fits or no
    #: budget was given).
    best: Evaluation | None = None
    #: The baseline (unprotected) evaluation, always present.
    baseline: Evaluation | None = None
    rounds: int = 0
    #: Engine bookkeeping: proposals, strategy cache hits, chunk
    #: execution/resume counts (the bench's cache-hit-rate source).
    stats: dict = field(default_factory=dict)

    def sdc_reduction(self, evaluation: Evaluation) -> float:
        """Percent of baseline SDCs the configuration removes."""
        if self.baseline is None or self.baseline.sdc_count == 0:
            return 0.0
        removed = self.baseline.sdc_count - evaluation.sdc_count
        return 100.0 * removed / self.baseline.sdc_count

    def to_dict(self) -> dict:
        """Deterministic JSON image of the search outcome."""
        return {
            "app": self.app,
            "strategy": self.strategy,
            "space": self.space.to_dict(),
            "rounds": self.rounds,
            "evaluations": [e.to_dict() for e in self.evaluations],
            "front": [e.digest for e in self.front],
            "best": None if self.best is None else self.best.digest,
            "stats": dict(sorted(self.stats.items())),
        }


def _candidate_objects(manager: ReliabilityManager, objects):
    """Resolve the ``objects`` knob to candidate object names."""
    order = tuple(manager.app.object_importance)
    if objects is None:
        return order
    if isinstance(objects, int):
        if not 1 <= objects <= len(order):
            raise SpecError(
                f"objects={objects} outside [1, {len(order)}]"
            )
        return order[:objects]
    names = tuple(objects)
    for name in names:
        if name not in order:
            raise SpecError(
                f"unknown candidate object {name!r} (choose from "
                f"{', '.join(order)})"
            )
    return names


def _vulnerability_ranking(
    manager: ReliabilityManager, candidates, request: EvaluationRequest,
) -> tuple[str, ...]:
    """Candidate objects ranked by baseline SDC attribution.

    One baseline campaign with provenance collection, run in the
    parent on the search ``request``'s fault grid at its
    ``jobs``/``batch``, seeds the greedy/evolutionary strategies (the
    paper's protect-what-matters argument).  Campaign results are a
    pure function of ``(seed, run_index)``, so the ranking — like the
    search trail built on it — is identical at any ``jobs``/``batch``;
    a durable search stores it and a resume loads it instead of
    re-running the campaign.  Objects without SDC attributions keep
    their importance order at the tail.
    """
    from repro.obs.provenance import (
        top_sdc_objects,
        vulnerability_profiles,
    )

    result = manager.evaluate(request=dataclasses.replace(
        request, scheme="baseline", protect="none",
        collect_provenance=True, collect_records=False))
    profiles = vulnerability_profiles(result.provenance)
    attributed = [
        p.object for p in top_sdc_objects(profiles)
        if p.sdc_count > 0 and p.object in candidates
    ]
    tail = [n for n in candidates if n not in attributed]
    return tuple(attributed + tail)


class _SearchStore:
    """The search's durability root: manifest, ranking, round dirs."""

    def __init__(self, root: str | None):
        self.root = root
        self.store = None if root is None else CheckpointStore(root)

    def initialize(self, identity: dict, resume: bool) -> None:
        """Stamp a fresh root or validate an existing one.

        Mirrors :meth:`~repro.runtime.checkpoint.CheckpointStore.
        initialize`: an existing manifest must digest-match the
        search identity and requires ``resume=True``; an unreadable
        one raises :class:`~repro.errors.CheckpointError`.
        """
        if self.root is None:
            return
        os.makedirs(self.root, exist_ok=True)
        path = Path(self.root) / SEARCH_MANIFEST
        digest = canonical_digest(identity)
        if path.is_file():
            manifest = read_json(path)
            if not isinstance(manifest, dict):
                raise CheckpointError(f"{path}: not a search manifest")
            if manifest.get("digest") != digest:
                raise CheckpointError(
                    f"search directory {self.root} belongs to a "
                    f"different search (manifest digest "
                    f"{str(manifest.get('digest'))[:12]}…, this "
                    f"search {digest[:12]}…); use a fresh directory"
                )
            if not resume:
                raise CheckpointError(
                    f"search directory {self.root} already holds "
                    "this search; pass resume=True (--resume) to "
                    "continue it"
                )
            return
        atomic_write_json(path, {"digest": digest, "search": identity})

    def ranking(self, key: str, compute) -> tuple[str, ...]:
        """The ranking stored under ``key``, else ``compute()``'s
        (stored when durability is on)."""
        if self.store is None:
            return compute()
        payload = self.store.load_report(key)
        if payload is None:
            ranking = compute()
            self.store.save_report(key, {"ranking": list(ranking)})
            return ranking
        ranking = payload.get("ranking")
        if not isinstance(ranking, list) or not all(
                isinstance(name, str) for name in ranking):
            raise CheckpointError(
                f"{self.store.report_path(key)}: not a ranking")
        return tuple(ranking)

    def round_dir(self, round_index: int) -> str | None:
        """Checkpoint directory of one round (``None`` when
        durability is off)."""
        if self.root is None:
            return None
        return os.path.join(self.root, f"round-{round_index:04d}")


def optimize(
    request: EvaluationRequest | None = None,
    *,
    strategy: str = "greedy",
    objects=None,
    search_seed: int = 1,
    population: int = 12,
    generations: int = 6,
    max_evals: int | None = None,
    store: str | None = None,
    resume: bool = False,
    stop_after_chunks: int | None = None,
    trail: str | None = None,
    max_overhead: float | None = None,
    max_replica_bytes: int | None = None,
    **fields,
) -> OptimizeResult:
    """Explore protection configurations; return the Pareto front.

    The experiment baseline (application, fault grid, seeds, scale,
    knobs and sinks) is ``request``, or its fields by keyword
    (``optimize(app="P-BICG", runs=500, ...)``); keywords default to
    ``runs=200``, and passing both raises
    :class:`~repro.errors.SpecError`.  The search assigns each
    configuration's protection and collects its records, so
    ``scheme``, ``protect``, ``keep_runs`` and the ``collect_*``
    fields cannot be keywords.  Every configuration runs its full
    ``runs`` budget without SECDED, so a ``target_margin`` or
    ``secded`` raises :class:`~repro.errors.SpecError` instead of
    being dropped.

    ``objects`` restricts the design space to the first N objects of
    the importance order (int), an explicit name list, or every
    object (``None``).  ``max_evals`` caps the number of evaluated
    configurations; ``max_overhead``/``max_replica_bytes`` feed the
    budget solver whose pick lands in
    :attr:`OptimizeResult.best`.  ``store`` makes the search durable
    and resumable; ``stop_after_chunks`` bounds one invocation's
    newly executed campaign chunks (the search stops checkpointed
    with :class:`~repro.errors.SessionInterrupted`, CLI exit 75).
    ``trail`` streams the per-round decision log
    (:mod:`repro.obs.search`), byte-identical at any
    ``jobs``/``batch`` and across interrupt/resume.
    """
    if max_evals is not None and max_evals < 1:
        raise SpecError("max_evals must be >= 1")
    if request is None and "app" not in fields:
        raise SpecError("optimize needs an application name")
    request = resolve_request(
        request, fields, ("scheme", "protect", "keep_runs",
                          "collect_records", "collect_provenance"),
        runs=200)
    for name in ("target_margin", "secded"):
        if getattr(request, name):
            raise SpecError(f"optimize does not support request {name}")
    app, progress = request.app, request.progress
    metrics = request.metrics if request.metrics is not None \
        else MetricsRegistry()
    # Every configuration is one cell of the round's session: the
    # request's fault grid, full records, its own protection.
    request = dataclasses.replace(
        request, keep_runs=False, collect_records=True,
        collect_provenance=False, metrics=None, progress=None)
    manager = ReliabilityManager(create_app(
        app, scale=request.scale, seed=request.app_seed))
    candidates = _candidate_objects(manager, objects)
    space = DesignSpace(app=app, objects=candidates)

    identity = {
        "space": space.to_dict(),
        "strategy": strategy,
        "search_seed": search_seed,
        "population": population,
        "generations": generations,
        "sweep": {
            "runs": request.runs, "n_blocks": request.n_blocks,
            "n_bits": request.n_bits, "seed": request.seed,
            "selection": request.selection, "scale": request.scale,
            "app_seed": request.app_seed,
            "chunk_runs": request.chunk_runs,
        },
    }
    if max_evals is not None:
        identity["max_evals"] = max_evals
    # Check the strategy's own settings before the manifest is written.
    make_strategy(strategy, space, seed=search_seed,
                  population=population, generations=generations)
    search_store = _SearchStore(store)
    search_store.initialize(identity, resume=resume)

    ranking: tuple[str, ...] | None = None
    if strategy in ("greedy", "evolutionary"):
        ranking_key = canonical_digest({
            "ranking": {
                "app": app, "scale": request.scale,
                "app_seed": request.app_seed,
                "candidates": list(candidates), "runs": request.runs,
                "n_blocks": request.n_blocks, "n_bits": request.n_bits,
                "selection": request.selection, "seed": request.seed,
            },
        })
        ranking = search_store.ranking(
            ranking_key, lambda: _vulnerability_ranking(
                manager, candidates, request))
        log.info(f"search: vulnerability ranking {ranking}")
    strategy_obj = make_strategy(
        strategy, space, seed=search_seed, population=population,
        generations=generations, ranking=ranking,
    )

    writer = SearchTrailWriter(trail) if trail is not None else None
    if writer is not None:
        writer.write_header({
            "app": app, "space": space.to_dict(),
            "strategy": strategy, "search_seed": search_seed,
        })

    def sim_unit(point: DesignPoint) -> SimUnit:
        return SimUnit(app=manager.app, config=manager.config,
                       budget=manager.budget, protection=point.spec)

    baseline_sim = sim_unit(space.baseline())
    baseline_report = None

    evaluated: dict[str, Evaluation] = {}
    chunk_budget = stop_after_chunks
    rounds = 0
    n_proposed = n_cached = 0
    try:
        for round_index in range(MAX_ROUNDS):
            proposals = strategy_obj.propose(round_index, evaluated)
            if round_index == 0:
                base = space.baseline()
                if all(p.digest != base.digest for p in proposals):
                    proposals = [base] + proposals
            if not proposals:
                break
            rounds += 1
            unique: list[DesignPoint] = []
            seen: set[str] = set()
            for point in proposals:
                if point.digest not in seen:
                    seen.add(point.digest)
                    unique.append(point)
            new_points = [
                p for p in unique if p.digest not in evaluated
            ]
            n_proposed += len(unique)
            n_cached += len(unique) - len(new_points)
            if max_evals is not None:
                room = max_evals - len(evaluated)
                new_points = new_points[:max(room, 0)]
            if new_points:
                if chunk_budget is not None and chunk_budget < 1:
                    # The per-invocation chunk budget ran out between
                    # rounds; every completed round is checkpointed.
                    raise SessionInterrupted(
                        0, len(new_points),
                        reason="stopped (chunk budget)")
                executed_before = metrics.counter(
                    "session.chunks.executed").value
                sims = {p.digest: sim_unit(p) for p in new_points}
                # The first round also times the baseline, which every
                # overhead is measured against (the session runs a
                # repeated unit once).
                extra = [baseline_sim] if baseline_report is None else []
                round_dir = search_store.round_dir(round_index)
                session = Session(
                    [dataclasses.replace(request, protect=p.spec)
                     for p in new_points],
                    store=round_dir, sims=[*extra, *sims.values()],
                    config=SessionConfig(
                        jobs=request.jobs,
                        stop_after_chunks=chunk_budget),
                    metrics=metrics, progress=progress)
                # Round directories are always safe to resume: the
                # manifest digest pins the round's exact cell set,
                # chunk and report payloads are content-verified on
                # load, and reports are keyed by the digest of every
                # simulation input.
                sweep = session.run(resume=round_dir is not None)
                if baseline_report is None:
                    baseline_report = sweep.reports[baseline_sim.digest]
                if chunk_budget is not None:
                    chunk_budget -= (
                        metrics.counter("session.chunks.executed")
                        .value - executed_before
                    )
                for point, entry in zip(new_points, sweep.entries):
                    result = entry.result
                    report = sweep.reports[sims[point.digest].digest]
                    overhead = report.slowdown_vs(baseline_report) - 1.0
                    evaluated[point.digest] = Evaluation(
                        point=point,
                        sdc_count=result.sdc_count,
                        runs=result.n_runs,
                        overhead=overhead,
                        replica_bytes=point.spec.replica_bytes(
                            manager.memory),
                    )
            front = pareto_front(evaluated.values())
            log.info(
                f"search: round {round_index}: {len(unique)} "
                f"proposed, {len(new_points)} new, front size "
                f"{len(front)}")
            if writer is not None:
                writer.write_round({
                    "round": round_index,
                    "proposed": len(unique),
                    "new": len(new_points),
                    "cached": len(unique) - len(new_points),
                    "evaluations": [
                        evaluated[p.digest].to_dict()
                        for p in sorted(new_points,
                                        key=lambda q: q.digest)
                    ],
                    "front": [e.digest for e in front],
                })
            if max_evals is not None and len(evaluated) >= max_evals:
                break
    finally:
        if writer is not None:
            writer.close()

    evaluations = sorted(
        evaluated.values(), key=lambda e: (*e.objectives, e.digest)
    )
    front = pareto_front(evaluations)
    best = None
    if max_overhead is not None or max_replica_bytes is not None:
        best = budget_best(front, max_overhead=max_overhead,
                           max_replica_bytes=max_replica_bytes)
    baseline_eval = evaluated.get(space.baseline().digest)
    metrics.counter("search.evaluations").set(len(evaluations))
    return OptimizeResult(
        app=app,
        strategy=strategy,
        space=space,
        evaluations=evaluations,
        front=front,
        best=best,
        baseline=baseline_eval,
        rounds=rounds,
        stats={
            "proposed": n_proposed,
            "cache_hits": n_cached,
            "evaluations": len(evaluations),
            "chunks_executed": metrics.counter(
                "session.chunks.executed").value,
            "chunks_resumed": metrics.counter(
                "session.chunks.resumed").value,
            "simulations_executed": metrics.counter(
                "session.simulations.executed").value,
            "simulations_loaded": metrics.counter(
                "session.simulations.loaded").value,
        },
    )

