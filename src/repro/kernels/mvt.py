"""P-MVT: matrix-vector product and transpose (Polybench-GPU).

Two kernels, thread per row/column::

    mvt_kernel1: x1[i] += a[i*n + j] * y1[j]   (A uncoalesced, y1 broadcast)
    mvt_kernel2: x2[i] += a[j*n + i] * y2[j]   (A coalesced,   y2 broadcast)

Hot objects: ``y1`` and ``y2`` (Table III).
"""

from __future__ import annotations

import numpy as np

from repro.arch.address_space import DeviceMemory
from repro.kernels import common
from repro.kernels.base import GpuApplication
from repro.kernels.trace import AppTrace
from repro.metrics.vector import VectorDeviationMetric


class Mvt(GpuApplication):
    """Matrix-vector product and transpose; hot: y1 and y2."""

    name = "P-MVT"
    suite = "polybench"

    def __init__(self, n: int = 384, seed: int = 1234):
        self.n = n
        super().__init__(seed)

    def _make_metric(self) -> VectorDeviationMetric:
        return VectorDeviationMetric()

    @property
    def object_importance(self) -> list[str]:
        return ["y1", "y2", "a"]

    @property
    def hot_object_names(self) -> set[str]:
        return {"y1", "y2"}

    def setup(self, memory: DeviceMemory) -> None:
        rng = self.rng(0)
        a = memory.alloc("a", (self.n, self.n), np.float32)
        y1 = memory.alloc("y1", (self.n,), np.float32)
        y2 = memory.alloc("y2", (self.n,), np.float32)
        x1 = memory.alloc("x1", (self.n,), np.float32, read_only=False)
        x2 = memory.alloc("x2", (self.n,), np.float32, read_only=False)
        memory.write_object(a, rng.uniform(-1.0, 1.0, size=(self.n, self.n)))
        memory.write_object(y1, rng.uniform(-1.0, 1.0, size=self.n))
        memory.write_object(y2, rng.uniform(-1.0, 1.0, size=self.n))
        memory.write_object(x1, rng.uniform(-1.0, 1.0, size=self.n))
        memory.write_object(x2, rng.uniform(-1.0, 1.0, size=self.n))

    def execute(self, memory: DeviceMemory, reader) -> np.ndarray:
        a = reader.read(memory.object("a"))
        y1 = reader.read(memory.object("y1"))
        y2 = reader.read(memory.object("y2"))
        # x1/x2 are read-modify-write; their initial values come from
        # memory too (and can therefore be faulted).
        x1_init = memory.read_object(memory.object("x1"))
        x2_init = memory.read_object(memory.object("x2"))
        with np.errstate(all="ignore"):  # faulted inputs may overflow
            x1 = (x1_init + a @ y1).astype(np.float32)
            x2 = (x2_init + a.T @ y2).astype(np.float32)
        memory.write_object(memory.object("x1"), x1)
        memory.write_object(memory.object("x2"), x2)
        x1_out = memory.read_object(memory.object("x1"))
        x2_out = memory.read_object(memory.object("x2"))
        return np.concatenate([x1_out, x2_out])

    def build_trace(self, memory: DeviceMemory) -> AppTrace:
        # x1/x2 are read-modify-write: each warp loads its slice first.
        a = memory.object("a")
        return AppTrace(self.name, [
            common.matvec_kernel(
                "mvt_kernel1", a, memory.object("y1"), memory.object("x1"),
                coalesced=False, setup=3, load_out=True),
            common.matvec_kernel(
                "mvt_kernel2", a, memory.object("y2"), memory.object("x2"),
                coalesced=True, setup=3, load_out=True),
        ])
