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

    def _vector_kernel(
        self,
        name: str,
        a_obj,
        x_obj,
        y_obj,
        coalesced: bool,
    ) -> KernelTrace:
        """Build one of the two MVT kernels.

        ``coalesced`` selects between the row-major (kernel1, lane
        stride n) and column-major (kernel2, lane stride 1) indexings
        of ``a``.
        """
        kernel = KernelTrace(name)
        warp_id = 0
        for cta_id, (cta_first, cta_threads) in enumerate(
            common.ctas_of_threads(self.n, CTA_SIZE)
        ):
            cta = CtaTrace(cta_id)
            for first_i, lanes in common.warp_partition(cta_threads):
                i0 = cta_first + first_i
                lane_rows = np.arange(i0, i0 + lanes, dtype=np.int64)
                x_blocks = common.contiguous_blocks(x_obj, i0, lanes)
                insts: list = [Compute(3), Load(x_obj.name, x_blocks)]
                for j in range(self.n):
                    if coalesced:
                        a_blocks = common.contiguous_blocks(
                            a_obj, j * self.n + i0, lanes
                        )
                    else:
                        a_blocks = common.scattered_blocks(
                            a_obj, lane_rows * self.n + j
                        )
                    insts.append(Load("a", a_blocks))
                    insts.append(
                        Load(y_obj.name, (common.block_addr(y_obj, j),))
                    )
                    insts.append(Compute(2, wait=True))
                insts.append(Store(x_obj.name, x_blocks))
                cta.warps.append(WarpTrace(warp_id, insts))
                warp_id += 1
            kernel.ctas.append(cta)
        return kernel

    def build_trace(self, memory: DeviceMemory) -> AppTrace:
        a = memory.object("a")
        k1 = self._vector_kernel(
            "mvt_kernel1", a, memory.object("x1"), memory.object("y1"),
            coalesced=False,
        )
        k2 = self._vector_kernel(
            "mvt_kernel2", a, memory.object("x2"), memory.object("y2"),
            coalesced=True,
        )
        return AppTrace(self.name, [k1, k2])
