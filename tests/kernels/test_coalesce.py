"""Tests for the coalescer — the source of the paper's transaction
counts, so the access-pattern classes must come out exactly."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coalesce import (
    broadcast_transaction,
    coalesce_indices,
    strided_transactions,
)
from repro.arch.address_space import BLOCK_BYTES, DeviceMemory
from repro.errors import TraceError


@pytest.fixture()
def mem():
    return DeviceMemory(1024 * 1024)


@pytest.fixture()
def matrix(mem):
    return mem.alloc("A", (256, 256), np.float32)


class TestAccessClasses:
    def test_broadcast_is_one_transaction(self, matrix):
        assert len(broadcast_transaction(matrix, 12345)) == 1

    def test_unit_stride_aligned_is_one_transaction(self, matrix):
        # 32 consecutive 4B elements = exactly one 128B block.
        txns = strided_transactions(matrix, start=0, stride=1, lanes=32)
        assert len(txns) == 1

    def test_unit_stride_misaligned_is_two(self, matrix):
        txns = strided_transactions(matrix, start=16, stride=1, lanes=32)
        assert len(txns) == 2

    def test_stride_two_spans_two_blocks(self, matrix):
        txns = strided_transactions(matrix, start=0, stride=2, lanes=32)
        assert len(txns) == 2

    def test_column_major_degenerates_to_32(self, matrix):
        # Lane stride = one matrix row (256 floats = 1KB >> 128B).
        txns = strided_transactions(matrix, start=0, stride=256, lanes=32)
        assert len(txns) == 32

    def test_duplicate_lane_indices_merge(self, matrix):
        txns = coalesce_indices(matrix, [0, 0, 1, 1, 31, 31])
        assert len(txns) == 1


class TestResults:
    def test_addresses_are_block_aligned(self, matrix):
        txns = strided_transactions(matrix, 100, 3, 32)
        assert all(a % BLOCK_BYTES == 0 for a in txns)

    def test_addresses_sorted_unique(self, matrix):
        txns = coalesce_indices(matrix, [500, 10, 700, 10])
        assert list(txns) == sorted(set(txns))

    def test_addresses_inside_allocation(self, matrix):
        txns = coalesce_indices(matrix, [256 * 256 - 1])
        end = matrix.base_addr + matrix.n_blocks * BLOCK_BYTES
        assert all(matrix.base_addr <= a < end for a in txns)


class TestValidation:
    def test_empty_lanes_rejected(self, matrix):
        with pytest.raises(TraceError):
            coalesce_indices(matrix, [])

    def test_out_of_range_rejected(self, matrix):
        with pytest.raises(TraceError):
            coalesce_indices(matrix, [256 * 256])
        with pytest.raises(TraceError):
            coalesce_indices(matrix, [-1])

    def test_zero_lanes_strided_rejected(self, matrix):
        with pytest.raises(TraceError):
            strided_transactions(matrix, 0, 1, 0)


@given(st.lists(st.integers(min_value=0, max_value=256 * 256 - 1),
                min_size=1, max_size=32))
def test_transaction_count_bounds(lane_indices):
    mem = DeviceMemory(1024 * 1024)
    obj = mem.alloc("A", (256, 256), np.float32)
    txns = coalesce_indices(obj, lane_indices)
    distinct_blocks = {
        (obj.base_addr + i * 4) // BLOCK_BYTES for i in lane_indices
    }
    assert len(txns) == len(distinct_blocks)
    assert 1 <= len(txns) <= len(lane_indices)
