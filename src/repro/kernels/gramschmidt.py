"""P-GRAMSCHM: modified Gram-Schmidt QR decomposition (Polybench-GPU).

The second counter-example of Figure 3(h): per-block access counts
grow in small steps (column ``k`` of ``Q`` is re-read by every thread
handling columns ``j > k``, so earlier columns accumulate linearly
more accesses) but no block is disproportionally hot, so the
data-centric schemes do not apply.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.arch.address_space import DeviceMemory
from repro.kernels import common
from repro.kernels.base import GpuApplication
from repro.kernels.trace import AppTrace, Compute, Load, Store
from repro.metrics.vector import VectorDeviationMetric


class GramSchmidt(GpuApplication):
    """Modified Gram-Schmidt QR; gently ramping access profile."""

    name = "P-GRAMSCHM"
    suite = "polybench"

    def __init__(self, n: int = 96, seed: int = 1234):
        self.n = n
        super().__init__(seed)

    def _make_metric(self) -> VectorDeviationMetric:
        return VectorDeviationMetric(threshold=0.0, rel_tol=1e-4)

    @property
    def object_importance(self) -> list[str]:
        return ["A"]

    @property
    def hot_object_names(self) -> set[str]:
        return set()

    def setup(self, memory: DeviceMemory) -> None:
        rng = self.rng(0)
        a = memory.alloc("A", (self.n, self.n), np.float32)
        memory.alloc("Q", (self.n, self.n), np.float32, read_only=False)
        memory.alloc("R", (self.n, self.n), np.float32, read_only=False)
        # Diagonally dominant input keeps the decomposition well
        # conditioned so tiny float noise does not flip the SDC verdict.
        mat = rng.uniform(0.0, 1.0, size=(self.n, self.n))
        mat += self.n * np.eye(self.n)
        memory.write_object(a, mat)

    def execute(self, memory: DeviceMemory, reader) -> np.ndarray:
        a = reader.read(memory.object("A")).astype(np.float64)
        n = self.n
        q = np.zeros((n, n))
        r = np.zeros((n, n))
        work = a.copy()
        for k in range(n):
            r[k, k] = np.sqrt(np.sum(work[:, k] ** 2))
            q[:, k] = work[:, k] / r[k, k]
            if k + 1 < n:
                r[k, k + 1:] = q[:, k] @ work[:, k + 1:]
                work[:, k + 1:] -= np.outer(q[:, k], r[k, k + 1:])
        memory.write_object(memory.object("Q"), q)
        memory.write_object(memory.object("R"), r)
        q_out = memory.read_object(memory.object("Q"))
        r_out = memory.read_object(memory.object("R"))
        return np.concatenate([q_out.ravel(), r_out.ravel()])

    def build_trace(self, memory: DeviceMemory) -> AppTrace:
        a = memory.object("A")
        q = memory.object("Q")
        r = memory.object("R")
        n = self.n

        def warp(k: int, first: int, lanes: int) -> list:
            j0 = k + 1 + first
            insts: list = [Compute(2)]
            for i in range(n):
                insts.append(Load(
                    "Q", (common.block_addr(q, i * n + k),)))
                insts.append(Load(
                    "A", common.contiguous_blocks(a, i * n + j0, lanes)))
                insts.append(Compute(2, wait=True))
            insts.append(Store(
                "R", common.contiguous_blocks(r, k * n + j0, lanes)))
            for i in range(n):
                insts.append(Load(
                    "Q", (common.block_addr(q, i * n + k),)))
                insts.append(Load(
                    "A", common.contiguous_blocks(a, i * n + j0, lanes)))
                insts.append(Compute(2, wait=True))
                insts.append(Store(
                    "A", common.contiguous_blocks(a, i * n + j0, lanes)))
            return insts

        # One kernel-3 launch per column k dominates the access profile;
        # kernels 1 and 2 (norm + normalize) are folded into the first
        # warp's prologue per launch to keep the trace compact without
        # changing any per-block count materially.  Launch k has one
        # thread per column j > k.
        return AppTrace(self.name, [
            common.grid_1d(
                f"gramschmidt_kernel3_k{k}", n - 1 - k, partial(warp, k))
            for k in range(n - 1)
        ])
