"""Tests for the search strategies (deterministic round generators)."""

import pytest

from repro.errors import SpecError
from repro.search.pareto import Evaluation
from repro.search.space import DesignSpace
from repro.search.strategies import (
    EvolutionaryStrategy,
    ExhaustiveStrategy,
    GreedyStrategy,
    RandomStrategy,
    make_strategy,
)


def space(objects=("p", "r")):
    return DesignSpace(app="P-BICG", objects=objects)


def evaluate(points, sdc_by_label=None):
    """Fake engine: score points so tests can drive multiple rounds."""
    sdc_by_label = sdc_by_label or {}
    out = {}
    for p in points:
        n = len(p.spec.objects)
        out[p.digest] = Evaluation(
            point=p,
            sdc_count=sdc_by_label.get(p.label, max(0, 5 - 2 * n)),
            runs=100,
            overhead=0.01 * n,
            replica_bytes=100 * n,
        )
    return out


class TestExhaustive:
    def test_one_round_covers_the_space(self):
        strategy = ExhaustiveStrategy(space())
        first = strategy.propose(0, {})
        assert len(first) == space().size()
        assert strategy.propose(1, evaluate(first)) == []

    def test_oversized_space_rejected(self):
        big = space(objects=tuple("abcdefgh"))  # 3^8 = 6561 points
        with pytest.raises(SpecError, match="exhaustive limit"):
            ExhaustiveStrategy(big)

    def test_limit_is_tunable(self):
        ExhaustiveStrategy(space(), limit=9)
        with pytest.raises(SpecError):
            ExhaustiveStrategy(space(), limit=8)


class TestRandom:
    def test_same_seed_same_sequence(self):
        a = RandomStrategy(space(), seed=3, population=5, rounds=2)
        b = RandomStrategy(space(), seed=3, population=5, rounds=2)
        for round_index in range(3):
            pa = a.propose(round_index, {})
            pb = b.propose(round_index, {})
            assert [p.digest for p in pa] == [p.digest for p in pb]

    def test_round_zero_contains_baseline(self):
        strategy = RandomStrategy(space(), seed=3, population=5)
        first = strategy.propose(0, {})
        assert first[0] == space().baseline()

    def test_population_floor(self):
        with pytest.raises(SpecError, match="population"):
            RandomStrategy(space(), population=0)

    def test_rounds_bound_the_search(self):
        strategy = RandomStrategy(space(), seed=3, population=5,
                                  rounds=2)
        assert strategy.propose(0, {})
        assert strategy.propose(1, {})
        assert strategy.propose(2, {}) == []


class TestGreedy:
    def test_round_zero_is_baseline(self):
        strategy = GreedyStrategy(space())
        assert strategy.propose(0, {}) == [space().baseline()]

    def test_upgrades_follow_the_ranking(self):
        strategy = GreedyStrategy(space(), ranking=("r", "p"))
        evaluated = evaluate(strategy.propose(0, {}))
        first = strategy.propose(1, evaluated)
        assert all(p.spec.objects == ("r",) for p in first)
        evaluated.update(evaluate(first))
        second = strategy.propose(2, evaluated)
        # r=... adoption happened, p is upgraded next
        assert all("p" in p.spec.objects for p in second)

    def test_unranked_objects_still_visited(self):
        strategy = GreedyStrategy(space(), ranking=("r",))
        assert strategy.ranking == ("r", "p")

    def test_terminates_after_all_objects(self):
        strategy = GreedyStrategy(space())
        evaluated = {}
        rounds = 0
        for round_index in range(10):
            proposals = strategy.propose(round_index, evaluated)
            if not proposals:
                break
            evaluated.update(evaluate(proposals))
            rounds += 1
        assert rounds == 1 + len(space().objects)

    def test_keeps_current_when_no_sdc_improvement(self):
        strategy = GreedyStrategy(space(), ranking=("r", "p"))
        evaluated = evaluate(strategy.propose(0, {}),
                             sdc_by_label={"none": 0})
        first = strategy.propose(1, evaluated)
        evaluated.update(evaluate(
            first, sdc_by_label={p.label: 5 for p in first}))
        strategy.propose(2, evaluated)
        assert strategy._current == space().baseline()


class TestEvolutionary:
    def test_population_floor(self):
        with pytest.raises(SpecError, match="population"):
            EvolutionaryStrategy(space(), population=3)

    def test_generations_floor(self):
        with pytest.raises(SpecError, match="generations"):
            EvolutionaryStrategy(space(), generations=0)

    def test_seeded_pool_starts_with_baseline(self):
        strategy = EvolutionaryStrategy(space(), seed=2, population=6)
        first = strategy.propose(0, {})
        assert first[0] == space().baseline()
        assert len(first) == 6
        assert len({p.digest for p in first}) == 6

    def test_same_seed_same_children(self):
        results = []
        for _ in range(2):
            strategy = EvolutionaryStrategy(space(), seed=2,
                                            population=6,
                                            generations=2)
            digests = []
            evaluated = {}
            for round_index in range(4):
                proposals = strategy.propose(round_index, evaluated)
                if not proposals:
                    break
                digests.append([p.digest for p in proposals])
                evaluated.update(evaluate(proposals))
            results.append(digests)
        assert results[0] == results[1]

    def test_ends_after_generations(self):
        strategy = EvolutionaryStrategy(space(), seed=2, population=6,
                                        generations=1)
        evaluated = evaluate(strategy.propose(0, {}))
        evaluated.update(evaluate(strategy.propose(1, evaluated)))
        assert strategy.propose(2, evaluated) == []


class TestFactory:
    @pytest.mark.parametrize("name,klass", [
        ("exhaustive", ExhaustiveStrategy),
        ("greedy", GreedyStrategy),
        ("evolutionary", EvolutionaryStrategy),
        ("random", RandomStrategy),
    ])
    def test_registered_names(self, name, klass):
        assert isinstance(make_strategy(name, space()), klass)

    def test_unknown_name_rejected(self):
        with pytest.raises(SpecError, match="unknown search strategy"):
            make_strategy("annealing", space())
