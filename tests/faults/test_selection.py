"""Tests for fault-site selection policies."""

import pytest

from repro.errors import ConfigError
from repro.faults.selection import (
    access_weighted_selection,
    hot_selection,
    miss_weighted_selection,
    rest_selection,
    uniform_selection,
)
from repro.utils.rng import RngStream

BLOCKS = [i * 128 for i in range(20)]


class TestUniform:
    def test_picks_from_pool(self):
        sel = uniform_selection(BLOCKS)
        picks = sel.pick(RngStream(1), 5)
        assert len(picks) == 5
        assert set(picks) <= set(BLOCKS)
        assert len(set(picks)) == 5

    def test_reproducible(self):
        sel = uniform_selection(BLOCKS)
        assert sel.pick(RngStream(9), 3) == sel.pick(RngStream(9), 3)

    def test_population(self):
        assert uniform_selection(BLOCKS).population == 20

    def test_deduplicates_pool(self):
        sel = uniform_selection([0, 0, 128])
        assert sel.population == 2

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            uniform_selection([])

    def test_oversized_request_clamps_to_population(self):
        picks = uniform_selection(BLOCKS[:3]).pick(RngStream(1), 4)
        assert sorted(picks) == sorted(BLOCKS[:3])

    def test_zero_blocks_rejected(self):
        with pytest.raises(ConfigError):
            uniform_selection(BLOCKS).pick(RngStream(1), 0)


class TestNamedArms:
    def test_hot_and_rest_names(self):
        assert hot_selection(BLOCKS).name == "hot-blocks"
        assert rest_selection(BLOCKS).name == "rest-blocks"


class TestWeighted:
    def test_zero_weight_blocks_excluded(self):
        sel = access_weighted_selection({0: 0, 128: 10, 256: 10})
        assert sel.population == 2
        for seed in range(20):
            assert 0 not in sel.pick(RngStream(seed), 1)

    def test_heavy_block_dominates(self):
        sel = access_weighted_selection({0: 1, 128: 10_000})
        picks = [sel.pick(RngStream(s), 1)[0] for s in range(50)]
        assert picks.count(128) >= 45

    def test_miss_weighted_same_mechanics(self):
        sel = miss_weighted_selection({0: 5, 128: 5})
        assert sel.name == "miss-weighted"
        assert sel.population == 2

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigError):
            access_weighted_selection({0: 0})

    def test_distinct_picks(self):
        sel = access_weighted_selection({i * 128: i + 1 for i in range(10)})
        picks = sel.pick(RngStream(3), 5)
        assert len(set(picks)) == 5


class TestStratifiedSampling:
    def make_strata(self):
        from repro.faults.selection import Stratum

        return [
            Stratum("low", 1.0, uniform_selection(BLOCKS[:8], "low")),
            Stratum("high", 3.0,
                    uniform_selection(BLOCKS[8:20], "high")),
        ]

    def test_compose_and_pick(self):
        from repro.faults.selection import stratified_selection

        sel = stratified_selection(self.make_strata())
        assert sel.population == 20
        picks = sel.pick(RngStream(5), 6)
        assert len(picks) == len(set(picks)) == 6
        assert set(picks) <= set(BLOCKS)

    def test_deterministic_and_picklable(self):
        import pickle

        from repro.faults.selection import stratified_selection

        sel = stratified_selection(self.make_strata())
        clone = pickle.loads(pickle.dumps(sel))
        assert clone.pick(RngStream(11), 5) \
            == sel.pick(RngStream(11), 5)

    def test_stratum_of_resolves_every_pool_block(self):
        from repro.faults.selection import stratified_selection

        sel = stratified_selection(self.make_strata())
        assert all(sel.stratum_of(a) == 0 for a in BLOCKS[:8])
        assert all(sel.stratum_of(a) == 1 for a in BLOCKS[8:20])
        with pytest.raises(ConfigError):
            sel.stratum_of(99 * 128)

    def test_capacity_exhaustion_spills_to_other_strata(self):
        from repro.faults.selection import (
            Stratum,
            stratified_selection,
        )

        tiny = stratified_selection([
            Stratum("one", 100.0, uniform_selection(BLOCKS[:1], "one")),
            Stratum("rest", 1.0, uniform_selection(BLOCKS[1:5],
                                                   "rest")),
        ])
        picks = tiny.pick(RngStream(3), 4)
        assert len(set(picks)) == 4  # the 1-block stratum cannot repeat

    def test_overlapping_pools_rejected(self):
        from repro.faults.selection import (
            Stratum,
            stratified_selection,
        )

        with pytest.raises(ConfigError):
            stratified_selection([
                Stratum("a", 1.0, uniform_selection(BLOCKS[:5], "a")),
                Stratum("b", 1.0, uniform_selection(BLOCKS[4:9], "b")),
            ])

    def test_degenerate_strata_rejected(self):
        from repro.faults.selection import (
            Stratum,
            stratified_selection,
        )

        with pytest.raises(ConfigError):
            stratified_selection([])
        with pytest.raises(ConfigError):
            stratified_selection([
                Stratum("z", 0.0, uniform_selection(BLOCKS[:2], "z")),
            ])
        with pytest.raises(ConfigError):
            stratified_selection([
                Stratum("n", -1.0, uniform_selection(BLOCKS[:2], "n")),
            ])


class TestStratifyBuilders:
    class FakeObject:
        def __init__(self, name, base_addr, n_blocks):
            self.name = name
            self.base_addr = base_addr
            self.n_blocks = n_blocks

    def setup_method(self):
        self.objects = [
            self.FakeObject("A", 0, 8),
            self.FakeObject("x", 8 * 128, 4),
            self.FakeObject("pad", 12 * 128, 4),  # never read
        ]
        self.read_counts = {a: 10 for a in BLOCKS[:8]}
        self.read_counts.update({a: 30 for a in BLOCKS[8:12]})

    def test_stratify_by_object(self):
        from repro.faults.selection import stratify_by_object

        sel = stratify_by_object(self.read_counts, self.objects)
        assert [s.name for s in sel.strata] == ["A", "x"]
        assert sel.strata[0].weight == pytest.approx(80.0)
        assert sel.strata[1].weight == pytest.approx(120.0)
        picks = sel.pick(RngStream(2), 3)
        assert len(set(picks)) == 3

    def test_no_weighted_blocks_rejected(self):
        from repro.faults.selection import stratify_by_object

        with pytest.raises(ConfigError):
            stratify_by_object({}, self.objects)
