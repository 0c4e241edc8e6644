"""Tests for trace-generation helpers."""

import numpy as np
import pytest

from coalesce import coalesce_indices
from repro.arch.address_space import BLOCK_BYTES, DeviceMemory
from repro.kernels import common
from repro.kernels.trace import Compute, Load, Store


@pytest.fixture()
def obj():
    mem = DeviceMemory(1024 * 1024)
    mem.alloc("pad", (5,), np.float32)  # shift base off zero
    return mem.alloc("v", (1024,), np.float32)


class TestBlockAddr:
    def test_first_element(self, obj):
        assert common.block_addr(obj, 0) == obj.base_addr

    def test_element_32_next_block(self, obj):
        assert common.block_addr(obj, 32) == obj.base_addr + BLOCK_BYTES

    def test_alignment(self, obj):
        for idx in (0, 1, 31, 32, 100, 1023):
            assert common.block_addr(obj, idx) % BLOCK_BYTES == 0


class TestContiguousBlocks:
    def test_single_block(self, obj):
        assert common.contiguous_blocks(obj, 0, 32) == (obj.base_addr,)

    def test_straddling(self, obj):
        blocks = common.contiguous_blocks(obj, 16, 32)
        assert blocks == (obj.base_addr, obj.base_addr + BLOCK_BYTES)

    def test_single_element(self, obj):
        assert len(common.contiguous_blocks(obj, 77, 1)) == 1

    def test_agrees_with_coalescer(self, obj):
        for start, n in ((0, 32), (16, 32), (100, 7), (1000, 24)):
            fast = common.contiguous_blocks(obj, start, n)
            slow = coalesce_indices(obj, range(start, start + n))
            assert fast == slow


class TestScatteredBlocks:
    def test_deduplicates(self, obj):
        assert len(common.scattered_blocks(obj, [0, 1, 2])) == 1

    def test_agrees_with_coalescer(self, obj):
        idx = np.array([0, 33, 999, 34, 512])
        assert common.scattered_blocks(obj, idx) == \
            coalesce_indices(obj, idx)


class TestPartitioning:
    def test_warp_partition_exact(self):
        assert common.warp_partition(64) == [(0, 32), (32, 32)]

    def test_warp_partition_remainder(self):
        assert common.warp_partition(40) == [(0, 32), (32, 8)]

    def test_warp_partition_small(self):
        assert common.warp_partition(5) == [(0, 5)]

    def test_ctas_of_threads(self):
        assert common.ctas_of_threads(600, 256) == \
            [(0, 256), (256, 256), (512, 88)]

    def test_ctas_bad_size(self):
        with pytest.raises(ValueError):
            common.ctas_of_threads(10, 0)


class TestScaffold:
    def test_kernel_trace_numbers_warps_across_ctas(self):
        kernel = common.kernel_trace(
            "k", [[[Compute(1)], [Compute(2)]], [[Compute(3)]]])
        assert kernel.name == "k"
        assert [cta.cta_id for cta in kernel.ctas] == [0, 1]
        assert [[w.warp_id for w in cta.warps] for cta in kernel.ctas] \
            == [[0, 1], [2]]
        assert kernel.ctas[1].warps[0].insts == [Compute(3)]

    def test_grid_1d_uses_cta_size_threads(self):
        seen = []

        def warp(first, lanes):
            seen.append((first, lanes))
            return [Compute(1)]

        kernel = common.grid_1d("k", 600, warp)
        assert common.CTA_SIZE == 256
        assert [len(cta.warps) for cta in kernel.ctas] == [8, 8, 3]
        assert seen[-3:] == [(512, 32), (544, 32), (576, 24)]
        assert sum(lanes for _first, lanes in seen) == 600

    def test_grid_2d_uses_32x8_ctas_in_row_major_order(self):
        kernel = common.grid_2d(
            "k", 10, 40, lambda row, col, lanes: [Compute(lanes)])
        # CTAs (rows 0-7, cols 0-31), (0-7, 32-39), (8-9, 0-31), ...
        assert [[w.insts[0].count for w in cta.warps]
                for cta in kernel.ctas] == \
            [[32] * 8, [8] * 8, [32] * 2, [8] * 2]
        assert [w.warp_id for w in kernel.iter_warps()] == list(range(20))

    @pytest.mark.parametrize("coalesced", [True, False])
    @pytest.mark.parametrize("load_out", [True, False])
    def test_matvec_kernel_agrees_with_coalescer(self, coalesced,
                                                 load_out):
        mem = DeviceMemory(1024 * 1024)
        n_out, n_in = 40, 3
        a = mem.alloc("A", (n_in, n_out) if coalesced else (n_out, n_in),
                      np.float32)
        vec = mem.alloc("v", (n_in,), np.float32)
        out = mem.alloc("o", (n_out,), np.float32, read_only=False)
        kernel = common.matvec_kernel("mv", a, vec, out,
                                      coalesced=coalesced, setup=4,
                                      load_out=load_out)
        warps = list(kernel.iter_warps())
        assert [(w.warp_id, len(w.insts)) for w in warps] == \
            [(0, 2 + load_out + 3 * n_in), (1, 2 + load_out + 3 * n_in)]
        for warp, t in zip(warps, (np.arange(32), np.arange(32, 40))):
            out_blocks = coalesce_indices(out, t)
            expected = [Compute(4)]
            if load_out:
                expected.append(Load("o", out_blocks))
            for k in range(n_in):
                a_idx = k * n_out + t if coalesced else t * n_in + k
                expected += [Load("A", coalesce_indices(a, a_idx)),
                             Load("v", coalesce_indices(vec, [k])),
                             Compute(2, wait=True)]
            expected.append(Store("o", out_blocks))
            assert warp.insts == expected
