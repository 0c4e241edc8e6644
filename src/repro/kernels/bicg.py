"""P-BICG: the BiCG sub-kernel of BiCGStab (Polybench-GPU).

Two kernels (the first is Listing 1 of the paper):

* ``bicg_kernel1``: ``s[j] = sum_i A[i*NY+j] * r[i]`` — thread per
  column ``j``.  ``A`` is row-coalesced (one transaction per warp per
  row) and ``r[i]`` is a warp-wide broadcast, so the few blocks of
  ``r`` absorb as many transactions as the whole of ``A``.
* ``bicg_kernel2``: ``q[i] = sum_j A[i*NY+j] * p[j]`` — thread per row
  ``i``.  Here ``A[i*NY+j]`` has lane stride ``NY`` (column-major from
  the warp's viewpoint): 32 uncoalesced transactions per load, while
  ``p[j]`` broadcasts.

Hot objects: ``p`` and ``r`` (Table III), together a vanishing
fraction of the footprint but ~5.7% of all transactions.
"""

from __future__ import annotations

import numpy as np

from repro.arch.address_space import DeviceMemory
from repro.kernels import common
from repro.kernels.base import GpuApplication
from repro.kernels.trace import AppTrace
from repro.metrics.vector import VectorDeviationMetric


class Bicg(GpuApplication):
    """The BiCG sub-kernel (Listing 1); hot objects: p and r."""

    name = "P-BICG"
    suite = "polybench"

    def __init__(self, nx: int = 384, ny: int = 384, seed: int = 1234):
        self.nx = nx
        self.ny = ny
        super().__init__(seed)

    def _make_metric(self) -> VectorDeviationMetric:
        return VectorDeviationMetric()

    @property
    def object_importance(self) -> list[str]:
        return ["p", "r", "A"]

    @property
    def hot_object_names(self) -> set[str]:
        return {"p", "r"}

    def setup(self, memory: DeviceMemory) -> None:
        rng = self.rng(0)
        a = memory.alloc("A", (self.nx, self.ny), np.float32)
        r = memory.alloc("r", (self.nx,), np.float32)
        p = memory.alloc("p", (self.ny,), np.float32)
        memory.alloc("s", (self.ny,), np.float32, read_only=False)
        memory.alloc("q", (self.nx,), np.float32, read_only=False)
        memory.write_object(
            a, rng.uniform(-1.0, 1.0, size=(self.nx, self.ny))
        )
        memory.write_object(r, rng.uniform(-1.0, 1.0, size=self.nx))
        memory.write_object(p, rng.uniform(-1.0, 1.0, size=self.ny))

    def execute(self, memory: DeviceMemory, reader) -> np.ndarray:
        a = reader.read(memory.object("A"))
        r = reader.read(memory.object("r"))
        p = reader.read(memory.object("p"))
        with np.errstate(all="ignore"):  # faulted inputs may overflow
            s = (a.T @ r).astype(np.float32)
            q = (a @ p).astype(np.float32)
        memory.write_object(memory.object("s"), s)
        memory.write_object(memory.object("q"), q)
        s_out = memory.read_object(memory.object("s"))
        q_out = memory.read_object(memory.object("q"))
        return np.concatenate([s_out, q_out])

    def build_trace(self, memory: DeviceMemory) -> AppTrace:
        a = memory.object("A")
        return AppTrace(self.name, [
            # Kernel 1: thread j, loop over rows i; 4 setup slots are
            # the index arithmetic and s[j] = 0.
            common.matvec_kernel("bicg_kernel1", a, memory.object("r"),
                                 memory.object("s"), coalesced=True,
                                 setup=4),
            # Kernel 2: thread i, loop over columns j; A is uncoalesced.
            common.matvec_kernel("bicg_kernel2", a, memory.object("p"),
                                 memory.object("q"), coalesced=False,
                                 setup=4),
        ])
