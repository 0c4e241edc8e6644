#!/usr/bin/env python3
"""Bringing your own kernel under the reliability framework.

Implements a small SAXPY-with-lookup-table workload from scratch —
the lookup table is broadcast-read by every warp iteration (hot),
while the x/y vectors stream (cold) — and runs the whole pipeline on
it: profiling, automated hot-object discovery, fault campaigns, and
timing simulation.

This is the template for evaluating applications the paper did not:
subclass GpuApplication, provide setup/execute/build_trace, done.
``build_trace`` only says what one warp issues; ``common.grid_1d``
(or ``common.kernel_trace`` for other grid shapes) builds the CTAs.

Run:  python examples/custom_kernel.py
"""

import numpy as np

from repro import ReliabilityManager
from repro.arch.address_space import DeviceMemory
from repro.kernels import common
from repro.kernels.base import GpuApplication
from repro.kernels.trace import AppTrace, Compute, Load, Store
from repro.metrics.vector import VectorDeviationMetric

TABLE_SIZE = 64  # lookup table: 2 memory blocks, read constantly


class TableSaxpy(GpuApplication):
    """y[i] = table[x_class[i]] * x[i] + y[i], iterated K times."""

    name = "X-TableSaxpy"
    suite = "custom"

    def __init__(self, n: int = 4096, iterations: int = 16,
                 seed: int = 1234):
        self.n = n
        self.iterations = iterations
        super().__init__(seed)

    def _make_metric(self):
        return VectorDeviationMetric(threshold=1.0)

    @property
    def object_importance(self):
        return ["table", "x"]

    @property
    def hot_object_names(self):
        return {"table"}

    def setup(self, memory: DeviceMemory) -> None:
        rng = self.rng(0)
        table = memory.alloc("table", (TABLE_SIZE,), np.float32)
        x = memory.alloc("x", (self.n,), np.float32)
        memory.alloc("y", (self.n,), np.float32, read_only=False)
        memory.write_object(
            table, rng.uniform(0.5, 1.5, size=TABLE_SIZE))
        memory.write_object(x, rng.uniform(-1.0, 1.0, size=self.n))

    def execute(self, memory: DeviceMemory, reader) -> np.ndarray:
        table = reader.read(memory.object("table"))
        x = reader.read(memory.object("x"))
        classes = (np.arange(self.n) % TABLE_SIZE)
        y = np.zeros(self.n, dtype=np.float64)
        with np.errstate(all="ignore"):
            for _ in range(self.iterations):
                y = table[classes] * x + y
        memory.write_object(memory.object("y"), y)
        return memory.read_object(memory.object("y"))

    def build_trace(self, memory: DeviceMemory) -> AppTrace:
        table = memory.object("table")
        x = memory.object("x")
        y = memory.object("y")

        # One warp of the 1-D grid: lanes t0 .. t0+lanes-1.  The table
        # entry is a warp-wide broadcast; x and y stream coalesced.
        def warp(t0: int, lanes: int) -> list:
            insts: list = [Compute(2)]
            x_blocks = common.contiguous_blocks(x, t0, lanes)
            y_blocks = common.contiguous_blocks(y, t0, lanes)
            for k in range(self.iterations):
                insts.append(Load(
                    "table",
                    (common.block_addr(table, (t0 + k) % TABLE_SIZE),)))
                insts.append(Load("x", x_blocks))
                insts.append(Load("y", y_blocks))
                insts.append(Compute(2, wait=True))
                insts.append(Store("y", y_blocks))
            return insts

        # grid_1d numbers the CTAs (256 threads each) and warps.
        return AppTrace(self.name, [
            common.grid_1d("table_saxpy", self.n, warp)])


def main() -> None:
    manager = ReliabilityManager(TableSaxpy())

    discovery = manager.discover_hot_objects()
    print(f"hot objects discovered automatically: "
          f"{discovery.hot_objects}")
    assert discovery.matches_declaration

    t3 = manager.table3()
    print(f"table footprint: {t3.hot_footprint_pct:.3f}% of memory, "
          f"absorbing {t3.hot_access_pct:.1f}% of reads")

    base = manager.evaluate(scheme="baseline", protect="none",
                            runs=100, n_bits=3, selection="hot")
    corr = manager.evaluate(scheme="correction", protect="hot",
                            runs=100, n_bits=3, selection="hot")
    print(f"\nfaults in the table, unprotected: "
          f"{base.sdc_count} SDCs / {base.n_runs} runs")
    print(f"faults in the table, triplicated:  "
          f"{corr.sdc_count} SDCs / {corr.n_runs} runs")

    perf_base = manager.simulate_performance("baseline", "none")
    perf_corr = manager.simulate_performance("correction", "hot")
    print(f"protection overhead: "
          f"{100 * (perf_corr.slowdown_vs(perf_base) - 1):+.2f}%")


if __name__ == "__main__":
    main()
