"""Tests for warp sharing, temporal locality, L1-miss profiling, and
the instrumentation API."""

import numpy as np

from repro.arch.config import fast_config
from repro.profiling.instrument import discover
from repro.profiling.miss_profile import (
    l1_miss_profile,
    object_miss_counts,
)
from repro.profiling.temporal import summarize_gaps, temporal_locality
from repro.profiling.warp_sharing import (
    hot_vs_rest_sharing,
    warp_sharing_curve,
)


class TestWarpSharing:
    def test_curve_length_matches_blocks(self, small_bicg_manager):
        curve = warp_sharing_curve(small_bicg_manager.profile)
        assert len(curve) == small_bicg_manager.profile.n_blocks

    def test_highly_accessed_blocks_highly_shared(self, bicg_manager):
        """Figure 4(a): the right end of the curve (most-accessed
        blocks) is shared by ~100% of warps."""
        curve = warp_sharing_curve(bicg_manager.profile)
        assert curve[-8:].min() > 95.0
        assert np.mean(curve[: len(curve) // 2]) < 30.0

    def test_hot_vs_rest_summary(self, bicg_manager):
        hot_addrs = {
            a
            for obj in bicg_manager.app.hot_objects(bicg_manager.memory)
            for a in obj.block_addrs()
        }
        hot_mean, rest_mean = hot_vs_rest_sharing(
            bicg_manager.profile, hot_addrs)
        assert hot_mean > 3 * rest_mean  # Observation II


class TestTemporal:
    def test_hot_blocks_have_short_reuse_gaps(self, bicg_manager):
        gaps = temporal_locality(bicg_manager.trace)
        hot = bicg_manager.hot_blocks.hot_addrs
        rest = bicg_manager.hot_blocks.rest_addrs
        hot_stats = summarize_gaps(gaps, hot)
        rest_stats = summarize_gaps(gaps, rest)
        # Observation IV: hot data has much higher temporal locality.
        assert hot_stats.mean_reuse_gap < rest_stats.mean_reuse_gap

    def test_single_access_blocks_have_infinite_gap(self):
        from repro.kernels.registry import create_app

        app = create_app("C-BlackScholes", scale="small")
        memory = app.fresh_memory()
        gaps = temporal_locality(app.build_trace(memory))
        # Every input block is read exactly once: no reuse at all.
        assert all(np.isinf(g) for g in gaps.values())

    def test_summary_of_unreused_blocks(self):
        stats = summarize_gaps({0: float("inf")}, [0])
        assert stats.reuse_count == 0
        assert np.isinf(stats.mean_reuse_gap)


class TestMissProfile:
    def test_every_missed_block_was_accessed(self, small_bicg_manager):
        misses = l1_miss_profile(
            small_bicg_manager.trace, fast_config())
        reads = small_bicg_manager.profile.block_reads
        for addr, count in misses.items():
            assert addr in reads
            assert count <= reads[addr]

    def test_streaming_object_misses_every_access(self, bicg_manager):
        """A is touched once per block per kernel pass: essentially
        every access is a (cold) miss."""
        misses = l1_miss_profile(bicg_manager.trace,
                                 bicg_manager.config)
        per_object = object_miss_counts(
            misses, bicg_manager.profile.block_owner)
        a_reads = bicg_manager.profile.reads_to("A")
        assert per_object["A"] >= 0.8 * a_reads

    def test_hot_object_mostly_hits(self, bicg_manager):
        """r is L1-resident at this scale: misses are a tiny fraction
        of its reads — exactly why hot replication is nearly free."""
        misses = l1_miss_profile(bicg_manager.trace,
                                 bicg_manager.config)
        per_object = object_miss_counts(
            misses, bicg_manager.profile.block_owner)
        r_reads = bicg_manager.profile.reads_to("r")
        assert per_object.get("r", 0) < 0.05 * r_reads


class TestInstrumentation:
    def test_discover_pipeline(self, laplacian_manager):
        result = discover(laplacian_manager.app,
                          laplacian_manager.memory)
        assert result.matches_declaration
        assert result.profile.total_reads > 0
