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
from repro.kernels.trace import AppTrace
from repro.metrics.vector import VectorDeviationMetric


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
        tmp = memory.object("tmp")
        return AppTrace(self.name, [
            # Kernel 1: thread per row i; A uncoalesced, x broadcast.
            common.matvec_kernel("atax_kernel1", a, memory.object("x"),
                                 tmp, coalesced=False, setup=3),
            # Kernel 2: thread per column j; A coalesced, tmp broadcast.
            common.matvec_kernel("atax_kernel2", a, tmp,
                                 memory.object("y"), coalesced=True,
                                 setup=3),
        ])
