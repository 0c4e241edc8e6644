"""C-BlackScholes: European option pricing (CUDA-SDK).

The counter-example application of Figure 3(g): one thread per
option, each input array read exactly once with perfectly coalesced
unit-stride accesses — so every memory block receives the same number
of transactions and there are *no* hot blocks to protect.
"""

from __future__ import annotations

import numpy as np

from repro.arch.address_space import DeviceMemory
from repro.kernels import common
from repro.kernels.base import GpuApplication
from repro.kernels.trace import AppTrace, Compute, Load, Store
from repro.metrics.vector import VectorDeviationMetric

RISK_FREE = 0.02
VOLATILITY = 0.30


def _cnd(d: np.ndarray) -> np.ndarray:
    """Cumulative normal distribution (polynomial approximation used by
    the CUDA-SDK sample)."""
    a1, a2, a3 = 0.31938153, -0.356563782, 1.781477937
    a4, a5 = -1.821255978, 1.330274429
    rsqrt2pi = 0.39894228040143267794
    k = 1.0 / (1.0 + 0.2316419 * np.abs(d))
    cnd = rsqrt2pi * np.exp(-0.5 * d * d) * (
        k * (a1 + k * (a2 + k * (a3 + k * (a4 + k * a5))))
    )
    return np.where(d > 0, 1.0 - cnd, cnd)


class BlackScholes(GpuApplication):
    """European option pricing; perfectly flat access profile."""

    name = "C-BlackScholes"
    suite = "cuda-sdk"

    def __init__(self, n_options: int = 4096, seed: int = 1234):
        self.n_options = n_options
        super().__init__(seed)

    def _make_metric(self) -> VectorDeviationMetric:
        return VectorDeviationMetric(threshold=0.0)

    @property
    def object_importance(self) -> list[str]:
        return ["StockPrice", "OptionStrike", "OptionYears"]

    @property
    def hot_object_names(self) -> set[str]:
        return set()  # the point of this app: no hot blocks exist

    def setup(self, memory: DeviceMemory) -> None:
        rng = self.rng(0)
        n = self.n_options
        s = memory.alloc("StockPrice", (n,), np.float32)
        x = memory.alloc("OptionStrike", (n,), np.float32)
        t = memory.alloc("OptionYears", (n,), np.float32)
        memory.alloc("CallResult", (n,), np.float32, read_only=False)
        memory.alloc("PutResult", (n,), np.float32, read_only=False)
        memory.write_object(s, rng.uniform(5.0, 30.0, size=n))
        memory.write_object(x, rng.uniform(1.0, 100.0, size=n))
        memory.write_object(t, rng.uniform(0.25, 10.0, size=n))

    def execute(self, memory: DeviceMemory, reader) -> np.ndarray:
        s = reader.read(memory.object("StockPrice")).astype(np.float64)
        x = reader.read(memory.object("OptionStrike")).astype(np.float64)
        t = reader.read(memory.object("OptionYears")).astype(np.float64)
        with np.errstate(all="ignore"):
            sqrt_t = np.sqrt(t)
            d1 = (np.log(s / x) + (RISK_FREE + 0.5 * VOLATILITY**2) * t) \
                / (VOLATILITY * sqrt_t)
            d2 = d1 - VOLATILITY * sqrt_t
            expr = np.exp(-RISK_FREE * t)
            call = s * _cnd(d1) - x * expr * _cnd(d2)
            put = x * expr * _cnd(-d2) - s * _cnd(-d1)
        memory.write_object(memory.object("CallResult"), call)
        memory.write_object(memory.object("PutResult"), put)
        call_out = memory.read_object(memory.object("CallResult"))
        put_out = memory.read_object(memory.object("PutResult"))
        return np.concatenate([call_out, put_out])

    def build_trace(self, memory: DeviceMemory) -> AppTrace:
        objs = {
            name: memory.object(name)
            for name in (
                "StockPrice", "OptionStrike", "OptionYears",
                "CallResult", "PutResult",
            )
        }

        def warp(t0: int, lanes: int) -> list:
            insts: list = [Compute(2)]
            for name in ("StockPrice", "OptionStrike", "OptionYears"):
                insts.append(Load(
                    name, common.contiguous_blocks(objs[name], t0, lanes)))
            insts.append(Compute(24, wait=True))  # CND evaluations
            for name in ("CallResult", "PutResult"):
                insts.append(Store(
                    name, common.contiguous_blocks(objs[name], t0, lanes)))
            return insts

        return AppTrace(self.name, [
            common.grid_1d("BlackScholesGPU", self.n_options, warp)])
