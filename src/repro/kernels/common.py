"""Shared helpers for kernel trace generation.

Trace generation is the hottest Python path in the library (millions
of transactions for the larger apps), so these helpers compute block
addresses arithmetically where the access pattern makes the answer
obvious, instead of round-tripping through a generic per-lane
coalescer (``tests/kernels/coalesce.py`` keeps one as their test
reference).

Every kernel builds its grid through :func:`kernel_trace` (or its 1-D
and 2-D forms :func:`grid_1d` and :func:`grid_2d`), which numbers the
CTAs and warps; a kernel body only says what one warp issues.  Build
each distinct ``Load`` once: where many warps issue the same read (a
broadcast weight, a window tap shared by every output map), compute
its block addresses in a table up front and put the one instruction
in every such warp.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterable

import numpy as np

from repro.arch.address_space import BLOCK_BYTES, DataObject
from repro.kernels.trace import (
    Compute,
    CtaTrace,
    Instruction,
    KernelTrace,
    Load,
    Store,
    WarpTrace,
)

WARP_SIZE = 32
#: Threads per CTA of every 1-D kernel grid.
CTA_SIZE = 256
#: 2-D grids use 32x8-thread CTAs: each warp covers one row segment of
#: 32 pixels, the standard geometry for coalesced image kernels.
CTA_DIM_X = WARP_SIZE
CTA_DIM_Y = 8


def block_addr(obj: DataObject, flat_index: int) -> int:
    """Block base address holding flat element ``flat_index``."""
    byte = obj.base_addr + flat_index * obj.dtype.itemsize
    return (byte // BLOCK_BYTES) * BLOCK_BYTES


def contiguous_blocks(
    obj: DataObject, start_index: int, n_elements: int
) -> tuple[int, ...]:
    """Blocks touched by ``n_elements`` consecutive elements."""
    itemsize = obj.dtype.itemsize
    first = (obj.base_addr + start_index * itemsize) // BLOCK_BYTES
    last = (
        obj.base_addr + (start_index + n_elements - 1) * itemsize
    ) // BLOCK_BYTES
    return tuple(b * BLOCK_BYTES for b in range(first, last + 1))


def scattered_blocks(obj: DataObject, flat_indices) -> tuple[int, ...]:
    """Blocks for arbitrary lane indices (de-duplicated, sorted)."""
    idx = np.asarray(flat_indices, dtype=np.int64)
    base, size = obj.base_addr, obj.dtype.itemsize
    return tuple(sorted({(base + i * size) // BLOCK_BYTES * BLOCK_BYTES
                         for i in idx.tolist()}))


def warp_partition(n_threads: int) -> list[tuple[int, int]]:
    """Split a 1-D thread range into (first_tid, n_lanes) warps."""
    warps = []
    tid = 0
    while tid < n_threads:
        lanes = min(WARP_SIZE, n_threads - tid)
        warps.append((tid, lanes))
        tid += lanes
    return warps


def ctas_of_threads(n_threads: int, cta_size: int) -> list[tuple[int, int]]:
    """Split a 1-D grid into (first_tid, n_threads_in_cta) CTAs."""
    if cta_size <= 0:
        raise ValueError("cta_size must be positive")
    ctas = []
    tid = 0
    while tid < n_threads:
        size = min(cta_size, n_threads - tid)
        ctas.append((tid, size))
        tid += size
    return ctas


def kernel_trace(
    name: str, ctas: Iterable[Iterable[list[Instruction]]]
) -> KernelTrace:
    """A kernel of ``ctas``, each an iterable of warp instruction
    lists.  CTAs are numbered from 0, and warps from 0 across the whole
    kernel, in the order given."""
    warp_ids = count()
    return KernelTrace(name, [
        CtaTrace(cta_id, [WarpTrace(next(warp_ids), insts)
                          for insts in warps])
        for cta_id, warps in enumerate(ctas)
    ])


def grid_1d(
    name: str,
    n_threads: int,
    warp: Callable[[int, int], list[Instruction]],
) -> KernelTrace:
    """A 1-D grid of ``n_threads`` threads in :data:`CTA_SIZE` CTAs;
    ``warp(first_tid, lanes)`` returns one warp's instructions."""
    return kernel_trace(name, (
        [warp(cta_first + first, lanes)
         for first, lanes in warp_partition(cta_threads)]
        for cta_first, cta_threads in ctas_of_threads(n_threads, CTA_SIZE)
    ))


def grid_2d(
    name: str,
    height: int,
    width: int,
    warp: Callable[[int, int, int], list[Instruction]],
) -> KernelTrace:
    """A 2-D ``height`` x ``width`` grid in :data:`CTA_DIM_X` x
    :data:`CTA_DIM_Y` CTAs, in row-major CTA order; ``warp(row,
    first_col, lanes)`` returns the instructions of the warp covering
    ``lanes`` columns of ``row`` from ``first_col``."""
    return kernel_trace(name, (
        [warp(row, cx, min(CTA_DIM_X, width - cx))
         for row in range(cy, min(cy + CTA_DIM_Y, height))]
        for cy in range(0, height, CTA_DIM_Y)
        for cx in range(0, width, CTA_DIM_X)
    ))


def matvec_kernel(
    name: str,
    a: DataObject,
    vec: DataObject,
    out: DataObject,
    *,
    coalesced: bool,
    setup: int,
    load_out: bool = False,
) -> KernelTrace:
    """The PolyBench mat-vec loop: one thread per element ``t`` of the
    vector ``out``, ``out[t] = sum_k A[..] * vec[k]`` over every ``k``
    of the vector ``vec``.

    ``vec[k]`` is a warp-wide broadcast.  ``A`` is read coalesced
    (``A[k*n_out + t]``) or one row per lane (``A[t*n_in + k]``, 32
    transactions per warp).  Each warp issues ``setup`` compute slots,
    then loads ``out`` first if ``load_out`` (a read-modify-write), and
    ends with the store of ``out``.
    """
    n_out, n_in = out.shape[0], vec.shape[0]

    def warp(t0: int, lanes: int) -> list[Instruction]:
        out_blocks = contiguous_blocks(out, t0, lanes)
        insts: list = [Compute(setup)]
        if load_out:
            insts.append(Load(out.name, out_blocks))
        if coalesced:
            for k in range(n_in):
                insts.append(Load(a.name, contiguous_blocks(
                    a, k * n_out + t0, lanes)))
                insts.append(Load(vec.name, (block_addr(vec, k),)))
                insts.append(Compute(2, wait=True))
        else:
            lane_rows = np.arange(t0, t0 + lanes, dtype=np.int64)
            for k in range(n_in):
                insts.append(Load(a.name, scattered_blocks(
                    a, lane_rows * n_in + k)))
                insts.append(Load(vec.name, (block_addr(vec, k),)))
                insts.append(Compute(2, wait=True))
        insts.append(Store(out.name, out_blocks))
        return insts

    return grid_1d(name, n_out, warp)
