"""Search strategies for the protection design-space explorer.

A strategy is a deterministic round generator: each round it proposes
a batch of :class:`~repro.search.space.DesignPoint` candidates given
everything evaluated so far, and the engine evaluates the new ones
(deduplicating against the evaluation cache).  An empty proposal ends
the search.  All randomness flows from one caller-provided seed
through a private :class:`random.Random`, so the same
``(space, strategy, seed)`` always proposes the same sequence — the
property the A/B determinism suite pins.

Three strategies cover the space/size spectrum:

* :class:`ExhaustiveStrategy` — every point, for small spaces;
* :class:`GreedyStrategy` — marginal-gain hill climb over the
  vulnerability-ranked objects (seeded from
  :func:`repro.obs.provenance.vulnerability_profiles` attribution);
* :class:`EvolutionaryStrategy` — NSGA-II-style multi-objective
  genetic search;
* :class:`RandomStrategy` — uniform sampling, the A/B baseline the
  seeding experiments compare against.
"""

from __future__ import annotations

import random

from repro.errors import SpecError
from repro.search.pareto import (
    Evaluation,
    crowding_distance,
    non_dominated_sort,
)
from repro.search.space import DesignPoint, DesignSpace

#: Largest space :class:`ExhaustiveStrategy` agrees to enumerate.
EXHAUSTIVE_LIMIT = 4096

#: Registered strategy names (the CLI's ``--strategy`` choices).
STRATEGY_NAMES = ("exhaustive", "greedy", "evolutionary", "random")


class SearchStrategy:
    """Base class: a deterministic round-based candidate generator."""

    name = ""

    def __init__(self, space: DesignSpace):
        self.space = space

    def propose(
        self, round_index: int, evaluated: dict[str, Evaluation]
    ) -> list[DesignPoint]:
        """Candidates for this round (empty list ends the search).

        ``evaluated`` maps configuration digests to every evaluation
        committed so far (earlier rounds included), which is all the
        state a strategy may condition on besides its own RNG.
        """
        raise NotImplementedError


class ExhaustiveStrategy(SearchStrategy):
    """Enumerate the whole space in one round (small spaces only)."""

    name = "exhaustive"

    def __init__(self, space: DesignSpace,
                 limit: int = EXHAUSTIVE_LIMIT):
        super().__init__(space)
        if space.size() > limit:
            raise SpecError(
                f"design space has {space.size()} points, beyond the "
                f"exhaustive limit of {limit}; use --strategy greedy "
                "or evolutionary"
            )

    def propose(self, round_index, evaluated) -> list[DesignPoint]:
        if round_index > 0:
            return []
        return list(self.space.enumerate())


class RandomStrategy(SearchStrategy):
    """Uniform random sampling — the seeding-experiment baseline."""

    name = "random"

    def __init__(self, space: DesignSpace, seed: int = 1,
                 population: int = 12, rounds: int = 8):
        super().__init__(space)
        if population < 1:
            raise SpecError("random population must be >= 1")
        self.rng = random.Random(seed)
        self.population = population
        self.rounds = rounds

    def propose(self, round_index, evaluated) -> list[DesignPoint]:
        if round_index >= self.rounds:
            return []
        if round_index == 0:
            # The baseline always anchors the SDC-reduction report.
            points = [self.space.baseline()]
        else:
            points = []
        while len(points) < self.population:
            points.append(self.space.random_point(self.rng))
        return points


class GreedyStrategy(SearchStrategy):
    """Marginal-gain hill climb over vulnerability-ranked objects.

    Starting from the baseline, objects are visited in ``ranking``
    order (most SDC-attributed first — the seeding that makes greedy
    beat random in evaluations-to-front).  Each round proposes the
    current configuration upgraded on one object (one candidate per
    scheme); the upgrade with the lowest resulting
    ``(sdc_rate, overhead, replica_bytes)`` is adopted if it strictly
    reduces the SDC rate, otherwise the object stays unprotected and
    the next one is tried.
    """

    name = "greedy"

    def __init__(self, space: DesignSpace,
                 ranking: tuple[str, ...] | None = None):
        super().__init__(space)
        if ranking is None:
            ranking = space.objects
        self.ranking = tuple(
            name for name in ranking if name in space.objects
        )
        # Objects the ranking does not mention still get their turn,
        # after the ranked ones.
        self.ranking += tuple(
            name for name in space.objects if name not in self.ranking
        )
        self._current = space.baseline()
        self._pending: list[DesignPoint] = []
        self._step = 0

    def _settle(self, evaluated: dict[str, Evaluation]) -> None:
        """Adopt the best of the last round's candidates, if any won."""
        if not self._pending:
            return
        current = evaluated.get(self._current.digest)
        candidates = [
            evaluated[p.digest] for p in self._pending
            if p.digest in evaluated
        ]
        self._pending = []
        if current is None or not candidates:
            return
        best = min(candidates,
                   key=lambda e: (*e.objectives, e.digest))
        if best.sdc_rate < current.sdc_rate:
            self._current = best.point

    def propose(self, round_index, evaluated) -> list[DesignPoint]:
        if round_index == 0:
            return [self._current]
        self._settle(evaluated)
        if self._step >= len(self.ranking):
            return []
        name = self.ranking[self._step]
        self._step += 1
        genes = dict(zip(self.space.objects,
                         self._current.genes(self.space)))
        self._pending = [
            self.space.point({**genes, name: scheme})
            for scheme in self.space.schemes
        ]
        return list(self._pending)


class EvolutionaryStrategy(SearchStrategy):
    """NSGA-II-style multi-objective genetic search.

    Individuals are per-object gene vectors.  Each generation ranks
    the population by non-dominated front and crowding distance,
    breeds children by binary tournament selection, uniform crossover
    and per-gene mutation, and keeps the best ``population``
    survivors of parents plus children.  The initial population mixes
    the baseline, uniform all-object configurations, and
    vulnerability-seeded prefixes of ``ranking`` with random fill.
    """

    name = "evolutionary"

    def __init__(
        self,
        space: DesignSpace,
        seed: int = 1,
        population: int = 12,
        generations: int = 6,
        ranking: tuple[str, ...] | None = None,
    ):
        super().__init__(space)
        if population < 4:
            raise SpecError("evolutionary population must be >= 4")
        if generations < 1:
            raise SpecError("evolutionary generations must be >= 1")
        self.rng = random.Random(seed)
        self.population = population
        self.generations = generations
        self.ranking = tuple(
            name for name in (ranking or space.objects)
            if name in space.objects
        ) or space.objects
        self._pool: list[DesignPoint] = []

    # -- genetic operators ---------------------------------------------
    def _seeded(self) -> list[DesignPoint]:
        points = [
            self.space.baseline(),
            self.space.uniform("correction"),
        ]
        if "detection" in self.space.schemes:
            points.append(self.space.uniform("detection"))
        for k in range(1, len(self.ranking)):
            points.append(
                self.space.uniform("correction", self.ranking[:k]))
        seen: set[str] = set()
        unique = []
        for p in points:
            if p.digest not in seen:
                seen.add(p.digest)
                unique.append(p)
        while len(unique) < self.population:
            p = self.space.random_point(self.rng)
            if p.digest not in seen:
                seen.add(p.digest)
                unique.append(p)
        return unique[:self.population]

    def _rank(
        self, evaluated: dict[str, Evaluation]
    ) -> list[DesignPoint]:
        """Current pool sorted best-first (front rank, crowding)."""
        evals = [
            evaluated[p.digest] for p in self._pool
            if p.digest in evaluated
        ]
        ordered: list[tuple[str, float, int]] = []
        for rank, front in enumerate(non_dominated_sort(evals)):
            for ev, dist in zip(front, crowding_distance(front)):
                ordered.append((ev.digest, -dist, rank))
        position = {
            digest: (rank, neg_dist)
            for digest, neg_dist, rank in ordered
        }
        pool = [p for p in self._pool if p.digest in position]
        return sorted(
            pool, key=lambda p: (*position[p.digest], p.digest)
        )

    def _tournament(self, ranked: list[DesignPoint]) -> DesignPoint:
        i = self.rng.randrange(len(ranked))
        j = self.rng.randrange(len(ranked))
        return ranked[min(i, j)]

    def _breed(self, a: DesignPoint, b: DesignPoint) -> DesignPoint:
        ga = a.genes(self.space)
        gb = b.genes(self.space)
        child = [
            x if self.rng.random() < 0.5 else y
            for x, y in zip(ga, gb)
        ]
        rate = 1.0 / len(child)
        for idx in range(len(child)):
            if self.rng.random() < rate:
                child[idx] = self.rng.choice(self.space.choices)
        return self.space.point(child)

    # -- the round generator -------------------------------------------
    def propose(self, round_index, evaluated) -> list[DesignPoint]:
        if round_index == 0:
            self._pool = self._seeded()
            return list(self._pool)
        if round_index > self.generations:
            return []
        ranked = self._rank(evaluated)
        if not ranked:
            return []
        survivors = ranked[:self.population]
        children = []
        seen = {p.digest for p in survivors}
        attempts = 0
        while len(children) < self.population \
                and attempts < 8 * self.population:
            attempts += 1
            child = self._breed(self._tournament(ranked),
                                self._tournament(ranked))
            if child.digest not in seen:
                seen.add(child.digest)
                children.append(child)
        self._pool = survivors + children
        return children


def make_strategy(
    name: str,
    space: DesignSpace,
    seed: int = 1,
    population: int = 12,
    generations: int = 6,
    ranking: tuple[str, ...] | None = None,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
) -> SearchStrategy:
    """Factory: build a registered strategy by name."""
    if name == "exhaustive":
        return ExhaustiveStrategy(space, limit=exhaustive_limit)
    if name == "greedy":
        return GreedyStrategy(space, ranking=ranking)
    if name == "evolutionary":
        return EvolutionaryStrategy(
            space, seed=seed, population=population,
            generations=generations, ranking=ranking,
        )
    if name == "random":
        return RandomStrategy(
            space, seed=seed, population=population,
            rounds=generations + 2,
        )
    raise SpecError(
        f"unknown search strategy {name!r} (choose from "
        f"{', '.join(STRATEGY_NAMES)})"
    )
