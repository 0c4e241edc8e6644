"""Shape tests against the paper's headline claims.

These run at default scale (the contrasts need headroom) and check
directions and rough magnitudes, not absolute numbers — see
EXPERIMENTS.md for the full paper-vs-measured record.
"""

import numpy as np
import pytest

from repro.analysis.figures import fig3_series, fig4_series
from repro.faults.outcomes import Outcome


@pytest.fixture(scope="module")
def bicg_report(bicg_manager):
    """Default-scale P-BICG timing reports, one simulation per
    ``(scheme, protect)`` however many tests read it."""
    reports = {}

    def report(scheme, protect):
        if (scheme, protect) not in reports:
            reports[scheme, protect] = bicg_manager.simulate_performance(
                scheme, protect)
        return reports[scheme, protect]

    return report


class TestObservation1:
    """A small number of blocks absorbs a very high number of reads."""

    def test_bicg_top_blocks_dominate(self, bicg_manager):
        series = fig3_series(bicg_manager)
        assert series.max_min_ratio > 8
        assert series.tail_share(0.01) > 0.04

    def test_laplacian_extreme_concentration(self, laplacian_manager):
        series = fig3_series(laplacian_manager)
        assert series.max_min_ratio > 50
        # 3 blocks of ~290 absorb nearly half of all accesses.
        assert series.tail_share(0.02) > 0.4


class TestObservation2:
    """Hot blocks are shared across (nearly) all active warps."""

    def test_bicg_hot_fully_shared(self, bicg_manager):
        series = fig4_series(bicg_manager)
        assert series.hot_mean_share > 95.0
        assert series.rest_mean_share < 25.0

    def test_cnn_hot_highly_but_not_fully_shared(self, cnn_manager):
        """The paper singles out C-NN (Fig 4(c)): the most-accessed
        blocks are shared by many warps — but, unlike P-BICG, not by
        all of them."""
        import numpy as np

        from repro.profiling.warp_sharing import warp_sharing_curve

        curve = warp_sharing_curve(cnn_manager.profile)
        top = curve[-5:].mean()  # the Layer1_Weights blocks
        assert 10.0 < top < 95.0
        assert top > 10 * np.median(curve)


class TestObservation3:
    """Faults in hot blocks are far more likely to end badly."""

    @pytest.mark.parametrize("fixture_name",
                             ["bicg_manager", "laplacian_manager"])
    def test_hot_vs_rest_vulnerability(self, fixture_name, request):
        manager = request.getfixturevalue(fixture_name)
        hot = manager.motivation("hot", runs=40, n_bits=3)
        rest = manager.motivation("rest", runs=40, n_bits=3)
        bad_hot = hot.sdc_count + hot.count(Outcome.CRASH)
        bad_rest = rest.sdc_count + rest.count(Outcome.CRASH)
        assert bad_hot >= 3 * max(bad_rest, 1)

    def test_more_bits_more_sdc(self, bicg_manager):
        counts = [
            bicg_manager.motivation("hot", runs=40, n_bits=b).sdc_count
            for b in (2, 4)
        ]
        assert counts[1] >= counts[0]

    def test_more_blocks_more_sdc(self, bicg_manager):
        one = bicg_manager.motivation("hot", runs=40, n_blocks=1,
                                      n_bits=2)
        five = bicg_manager.motivation("hot", runs=40, n_blocks=5,
                                       n_bits=2)
        assert five.sdc_count >= one.sdc_count


class TestObservation4:
    """Hot objects: tiny footprint, identifiable offline."""

    def test_footprints_under_paper_bound(self, bicg_manager,
                                          laplacian_manager,
                                          cnn_manager):
        # The paper's worst case is C-NN at 2.15% (batch-dependent);
        # all stay far below 10%.
        for manager in (bicg_manager, laplacian_manager, cnn_manager):
            assert manager.table3().hot_footprint_pct < 10.0

    def test_offline_discovery_works(self, bicg_manager):
        assert bicg_manager.discover_hot_objects().matches_declaration


class TestHeadlineResults:
    """The abstract's numbers: ~99% SDC drop at ~1-3% slowdown."""

    def test_sdc_drop_with_hot_protection(self, laplacian_manager):
        m = laplacian_manager
        base = m.evaluate(scheme="baseline", protect="none", runs=60,
                          n_bits=3)
        corr = m.evaluate(scheme="correction", protect="hot", runs=60,
                          n_bits=3)
        bad_base = base.sdc_count + base.count(Outcome.CRASH)
        bad_corr = corr.sdc_count + corr.count(Outcome.CRASH)
        assert bad_base >= 10
        drop = 100.0 * (bad_base - bad_corr) / bad_base
        assert drop > 90.0

    def test_hot_protection_overhead_is_small(self, bicg_report):
        base = bicg_report("baseline", "none")
        det = bicg_report("detection", "hot")
        corr = bicg_report("correction", "hot")
        # Paper: 1.2% / 3.4% average; individual apps jitter around 0.
        assert det.slowdown_vs(base) < 1.10
        assert corr.slowdown_vs(base) < 1.10

    def test_full_protection_overhead_is_large(self, bicg_report):
        base = bicg_report("baseline", "none")
        det = bicg_report("detection", "all")
        corr = bicg_report("correction", "all")
        # Paper: 40.65% / 74.24% average across apps.
        assert det.slowdown_vs(base) > 1.15
        assert corr.slowdown_vs(base) > det.slowdown_vs(base)

    def test_missed_accesses_scale_with_replication(self, bicg_report):
        base = bicg_report("baseline", "none")
        det = bicg_report("detection", "all")
        corr = bicg_report("correction", "all")
        assert 1.5 < det.missed_accesses_vs(base) < 2.2
        assert 2.5 < corr.missed_accesses_vs(base) < 4.0
