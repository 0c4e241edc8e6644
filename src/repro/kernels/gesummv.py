"""P-GESUMMV: scalar-vector-matrix multiply, ``y = aAx + bBx``
(Polybench-GPU).

One kernel, thread per row ``i``, accumulating into global ``tmp[i]``
and ``y[i]`` exactly as the (famously unoptimized) Polybench-GPU code
does::

    for (j = 0; j < n; j++) {
        tmp[i] += a[i*n + j] * x[j];
        y[i]   += b[i*n + j] * x[j];
    }
    y[i] = alpha * tmp[i] + beta * y[i];

Both matrices are accessed with lane stride ``n`` (32 uncoalesced
transactions per warp per load) while ``x[j]`` broadcasts — making
``x`` the hot object of Table III.
"""

from __future__ import annotations

import numpy as np

from repro.arch.address_space import DeviceMemory
from repro.kernels import common
from repro.kernels.base import GpuApplication
from repro.kernels.trace import AppTrace, Compute, Load, Store
from repro.metrics.vector import VectorDeviationMetric

ALPHA = 1.5
BETA = 2.5


class Gesummv(GpuApplication):
    """y = alpha*A*x + beta*B*x; hot object: the vector x."""

    name = "P-GESUMMV"
    suite = "polybench"

    def __init__(self, n: int = 384, seed: int = 1234):
        self.n = n
        super().__init__(seed)

    def _make_metric(self) -> VectorDeviationMetric:
        return VectorDeviationMetric()

    @property
    def object_importance(self) -> list[str]:
        return ["x", "A", "B"]

    @property
    def hot_object_names(self) -> set[str]:
        return {"x"}

    def setup(self, memory: DeviceMemory) -> None:
        rng = self.rng(0)
        a = memory.alloc("A", (self.n, self.n), np.float32)
        b = memory.alloc("B", (self.n, self.n), np.float32)
        x = memory.alloc("x", (self.n,), np.float32)
        memory.alloc("tmp", (self.n,), np.float32, read_only=False)
        memory.alloc("y", (self.n,), np.float32, read_only=False)
        memory.write_object(a, rng.uniform(-1.0, 1.0, size=(self.n, self.n)))
        memory.write_object(b, rng.uniform(-1.0, 1.0, size=(self.n, self.n)))
        memory.write_object(x, rng.uniform(-1.0, 1.0, size=self.n))

    def execute(self, memory: DeviceMemory, reader) -> np.ndarray:
        a = reader.read(memory.object("A"))
        b = reader.read(memory.object("B"))
        x = reader.read(memory.object("x"))
        with np.errstate(all="ignore"):  # faulted inputs may overflow
            tmp = (a @ x).astype(np.float32)
            partial = (b @ x).astype(np.float32)
        memory.write_object(memory.object("tmp"), tmp)
        # The final combine re-reads tmp from memory, so faults landing
        # in tmp's blocks propagate into y exactly as on hardware.
        tmp_back = memory.read_object(memory.object("tmp"))
        with np.errstate(all="ignore"):
            y = (ALPHA * tmp_back + BETA * partial).astype(np.float32)
        memory.write_object(memory.object("y"), y)
        return memory.read_object(memory.object("y"))

    def build_trace(self, memory: DeviceMemory) -> AppTrace:
        a = memory.object("A")
        b = memory.object("B")
        x = memory.object("x")
        tmp = memory.object("tmp")
        y = memory.object("y")

        def warp(i0: int, lanes: int) -> list:
            lane_rows = np.arange(i0, i0 + lanes, dtype=np.int64)
            tmp_blocks = common.contiguous_blocks(tmp, i0, lanes)
            y_blocks = common.contiguous_blocks(y, i0, lanes)
            insts: list = [Compute(3)]
            for j in range(self.n):
                flat = lane_rows * self.n + j
                x_block = (common.block_addr(x, j),)
                insts.append(Load("A", common.scattered_blocks(a, flat)))
                insts.append(Load("x", x_block))
                insts.append(Load("tmp", tmp_blocks))
                insts.append(Compute(1, wait=True))
                insts.append(Store("tmp", tmp_blocks))
                insts.append(Load("B", common.scattered_blocks(b, flat)))
                insts.append(Load("x", x_block))
                insts.append(Load("y", y_blocks))
                insts.append(Compute(1, wait=True))
                insts.append(Store("y", y_blocks))
            insts.append(Load("tmp", tmp_blocks))
            insts.append(Load("y", y_blocks))
            insts.append(Compute(3, wait=True))
            insts.append(Store("y", y_blocks))
            return insts

        return AppTrace(self.name, [
            common.grid_1d("gesummv_kernel", self.n, warp)])
