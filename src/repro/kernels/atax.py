"""P-ATAX: y = A^T (A x) (Polybench-GPU) — an extension workload.

Not part of the paper's evaluated set; included to show the framework
generalizes: the access structure mirrors P-BICG/P-GESUMMV (the
vector ``x`` broadcasts warp-wide while ``A`` streams, uncoalesced in
kernel 1 and coalesced in kernel 2), so ``x`` is the hot object and
partial replication should protect it for ~free.

    atax_kernel1: tmp[i] = sum_j a[i*n + j] * x[j]
    atax_kernel2: y[j] += a[i*n + j] * tmp[i]
"""

from __future__ import annotations

import numpy as np

from repro.arch.address_space import DeviceMemory
from repro.kernels import common
from repro.kernels.base import GpuApplication
from repro.kernels.trace import (
    AppTrace,
    Compute,
    CtaTrace,
    KernelTrace,
    Load,
    Store,
    WarpTrace,
)
from repro.metrics.vector import VectorDeviationMetric

CTA_SIZE = 256


class Atax(GpuApplication):
    """y = A^T (A x); hot object: the broadcast vector x."""

    name = "P-ATAX"
    suite = "polybench"

    def __init__(self, n: int = 384, seed: int = 1234):
        self.n = n
        super().__init__(seed)

    def _make_metric(self) -> VectorDeviationMetric:
        return VectorDeviationMetric()

    @property
    def object_importance(self) -> list[str]:
        return ["x", "A"]

    @property
    def hot_object_names(self) -> set[str]:
        return {"x"}

    def setup(self, memory: DeviceMemory) -> None:
        rng = self.rng(0)
        a = memory.alloc("A", (self.n, self.n), np.float32)
        x = memory.alloc("x", (self.n,), np.float32)
        memory.alloc("tmp", (self.n,), np.float32, read_only=False)
        memory.alloc("y", (self.n,), np.float32, read_only=False)
        memory.write_object(
            a, rng.uniform(-1.0, 1.0, size=(self.n, self.n)))
        memory.write_object(x, rng.uniform(-1.0, 1.0, size=self.n))

    def execute(self, memory: DeviceMemory, reader) -> np.ndarray:
        a = reader.read(memory.object("A"))
        x = reader.read(memory.object("x"))
        with np.errstate(all="ignore"):  # faulted inputs may overflow
            tmp = (a @ x).astype(np.float32)
        memory.write_object(memory.object("tmp"), tmp)
        # Kernel 2 re-reads tmp from memory, so faults in its blocks
        # propagate into y.
        tmp_back = memory.read_object(memory.object("tmp"))
        with np.errstate(all="ignore"):
            y = (a.T @ tmp_back).astype(np.float32)
        memory.write_object(memory.object("y"), y)
        return memory.read_object(memory.object("y"))

    def build_trace(self, memory: DeviceMemory) -> AppTrace:
        a = memory.object("A")
        x = memory.object("x")
        tmp = memory.object("tmp")
        y = memory.object("y")

        # Kernel 1: thread per row i; A uncoalesced, x broadcast.
        k1 = KernelTrace("atax_kernel1")
        warp_id = 0
        for cta_id, (cta_first, cta_threads) in enumerate(
            common.ctas_of_threads(self.n, CTA_SIZE)
        ):
            cta = CtaTrace(cta_id)
            for first_i, lanes in common.warp_partition(cta_threads):
                i0 = cta_first + first_i
                lane_rows = np.arange(i0, i0 + lanes, dtype=np.int64)
                insts: list = [Compute(3)]
                for j in range(self.n):
                    insts.append(Load("A", common.scattered_blocks(
                        a, lane_rows * self.n + j)))
                    insts.append(Load("x", (common.block_addr(x, j),)))
                    insts.append(Compute(2, wait=True))
                insts.append(Store(
                    "tmp", common.contiguous_blocks(tmp, i0, lanes)))
                cta.warps.append(WarpTrace(warp_id, insts))
                warp_id += 1
            k1.ctas.append(cta)

        # Kernel 2: thread per column j; A coalesced, tmp broadcast.
        k2 = KernelTrace("atax_kernel2")
        warp_id = 0
        for cta_id, (cta_first, cta_threads) in enumerate(
            common.ctas_of_threads(self.n, CTA_SIZE)
        ):
            cta = CtaTrace(cta_id)
            for first_j, lanes in common.warp_partition(cta_threads):
                j0 = cta_first + first_j
                insts = [Compute(3)]
                for i in range(self.n):
                    insts.append(Load("A", common.contiguous_blocks(
                        a, i * self.n + j0, lanes)))
                    insts.append(Load(
                        "tmp", (common.block_addr(tmp, i),)))
                    insts.append(Compute(2, wait=True))
                insts.append(Store(
                    "y", common.contiguous_blocks(y, j0, lanes)))
                cta.warps.append(WarpTrace(warp_id, insts))
                warp_id += 1
            k2.ctas.append(cta)

        return AppTrace(self.name, [k1, k2])
