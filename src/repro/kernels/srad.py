"""A-SRAD: Speckle Reducing Anisotropic Diffusion (Rodinia/AxBench).

SRAD precomputes four neighbor-index arrays — ``i_N``/``i_S`` (one
entry per row) and ``i_E``/``i_W`` (one per column) — that every
thread reads to locate its window, making them the hot objects of
Table III.  They are also a distinctive failure mode: a multi-bit
fault in an index entry redirects a whole row/column of reads, and an
index pushed outside the image is an outright crash.

One diffusion iteration, two kernels (Rodinia's ``srad_cuda_1/2``).
"""

from __future__ import annotations

import numpy as np

from repro.arch.address_space import DeviceMemory
from repro.errors import KernelCrash
from repro.kernels import common
from repro.kernels.base import GpuApplication
from repro.kernels.trace import (
    AppTrace,
    Compute,
    KernelTrace,
    Load,
    Store,
)
from repro.metrics.image import NrmseMetric

LAMBDA = 0.5


class Srad(GpuApplication):
    """Speckle-reducing diffusion; hot: the neighbor-index arrays."""

    name = "A-SRAD"
    suite = "axbench"

    def __init__(self, rows: int = 96, cols: int = 96, seed: int = 1234):
        self.rows = rows
        self.cols = cols
        super().__init__(seed)

    def _make_metric(self) -> NrmseMetric:
        return NrmseMetric()

    @property
    def object_importance(self) -> list[str]:
        return ["i_N", "i_S", "i_E", "i_W", "Image"]

    @property
    def hot_object_names(self) -> set[str]:
        return {"i_N", "i_S", "i_E", "i_W"}

    def setup(self, memory: DeviceMemory) -> None:
        rng = self.rng(0)
        i_n = memory.alloc("i_N", (self.rows,), np.int32)
        i_s = memory.alloc("i_S", (self.rows,), np.int32)
        i_e = memory.alloc("i_E", (self.cols,), np.int32)
        i_w = memory.alloc("i_W", (self.cols,), np.int32)
        img = memory.alloc("Image", (self.rows, self.cols), np.float32)
        memory.alloc("J", (self.rows, self.cols), np.float32,
                     read_only=False)
        for d in ("dN", "dS", "dE", "dW", "c"):
            memory.alloc(d, (self.rows, self.cols), np.float32,
                         read_only=False)
        rows_idx = np.arange(self.rows, dtype=np.int32)
        cols_idx = np.arange(self.cols, dtype=np.int32)
        memory.write_object(i_n, np.maximum(rows_idx - 1, 0))
        memory.write_object(
            i_s, np.minimum(rows_idx + 1, self.rows - 1)
        )
        memory.write_object(i_w, np.maximum(cols_idx - 1, 0))
        memory.write_object(
            i_e, np.minimum(cols_idx + 1, self.cols - 1)
        )
        speckled = rng.uniform(0.0, 255.0, size=(self.rows, self.cols))
        memory.write_object(img, speckled.astype(np.float32))

    def _checked_indices(self, raw: np.ndarray, bound: int, name: str) \
            -> np.ndarray:
        idx = raw.astype(np.int64)
        if idx.min() < 0 or idx.max() >= bound:
            raise KernelCrash(
                f"{self.name}: corrupted {name} index "
                f"({idx.min()}..{idx.max()}) outside [0, {bound})"
            )
        return idx

    def execute(self, memory: DeviceMemory, reader) -> np.ndarray:
        i_n = self._checked_indices(
            reader.read(memory.object("i_N")), self.rows, "i_N")
        i_s = self._checked_indices(
            reader.read(memory.object("i_S")), self.rows, "i_S")
        i_e = self._checked_indices(
            reader.read(memory.object("i_E")), self.cols, "i_E")
        i_w = self._checked_indices(
            reader.read(memory.object("i_W")), self.cols, "i_W")
        # Pixel data keeps its uint8 image semantics: clamp on load so a
        # faulted pixel is wrong, not astronomically out of range.
        image = np.clip(
            np.nan_to_num(
                reader.read(memory.object("Image")).astype(np.float64),
                nan=255.0, posinf=255.0, neginf=0.0,
            ),
            0.0, 255.0,
        )

        j = np.exp(image / 255.0)
        memory.write_object(memory.object("J"), j)
        j = memory.read_object(memory.object("J")).astype(np.float64)

        # Guard the degenerate uniform-image case (zero variance):
        # the diffusion coefficient then clips to 1 and J is unchanged.
        q0sqr = max(j.var() / max(j.mean() ** 2, 1e-30), 1e-12)

        # Kernel 1: directional derivatives and the diffusion coefficient.
        with np.errstate(all="ignore"):
            d_n = j[i_n, :] - j
            d_s = j[i_s, :] - j
            d_w = j[:, i_w] - j
            d_e = j[:, i_e] - j
            g2 = (d_n**2 + d_s**2 + d_w**2 + d_e**2) / (j**2)
            lap = (d_n + d_s + d_w + d_e) / j
            num = 0.5 * g2 - (1.0 / 16.0) * lap**2
            den = 1.0 + 0.25 * lap
            qsqr = num / (den**2)
            den2 = (qsqr - q0sqr) / (q0sqr * (1.0 + q0sqr))
            coeff = np.clip(1.0 / (1.0 + den2), 0.0, 1.0)
        for obj_name, arr in (
            ("dN", d_n), ("dS", d_s), ("dW", d_w), ("dE", d_e),
            ("c", coeff),
        ):
            memory.write_object(memory.object(obj_name), arr)

        # Kernel 2: divergence and image update; coefficients and
        # derivatives are re-read from memory so faults in their blocks
        # propagate.
        coeff = memory.read_object(memory.object("c")).astype(np.float64)
        d_n = memory.read_object(memory.object("dN")).astype(np.float64)
        d_s = memory.read_object(memory.object("dS")).astype(np.float64)
        d_w = memory.read_object(memory.object("dW")).astype(np.float64)
        d_e = memory.read_object(memory.object("dE")).astype(np.float64)
        c_s = coeff[i_s, :]
        c_e = coeff[:, i_e]
        divergence = coeff * d_n + c_s * d_s + coeff * d_w + c_e * d_e
        j = j + 0.25 * LAMBDA * divergence
        memory.write_object(memory.object("J"), j)
        j = memory.read_object(memory.object("J")).astype(np.float64)
        # Rodinia's compress step: the result is written out as an
        # 8-bit image, log(J)*255 clamped to [0, 255].  This is the
        # checked output, so (as on the real benchmark) a wildly
        # corrupted J value saturates instead of dominating the NRMSE.
        with np.errstate(all="ignore"):
            compressed = np.log(np.maximum(j, 1e-30)) * 255.0
        compressed = np.nan_to_num(
            compressed, nan=0.0, posinf=255.0, neginf=0.0)
        return np.clip(compressed, 0.0, 255.0).astype(np.float32)

    def build_trace(self, memory: DeviceMemory) -> AppTrace:
        objs = {
            name: memory.object(name)
            for name in (
                "i_N", "i_S", "i_E", "i_W", "J", "dN", "dS", "dW", "dE", "c"
            )
        }
        k0 = self._prep_kernel(memory)
        k1 = self._kernel(objs, first=True)
        k2 = self._kernel(objs, first=False)
        return AppTrace(self.name, [k0, k1, k2])

    def _prep_kernel(self, memory: DeviceMemory) -> KernelTrace:
        """The extract kernel: J = exp(Image/255) — one coalesced pass
        reading Image and writing J."""
        image = memory.object("Image")
        j = memory.object("J")

        def warp(p0: int, lanes: int) -> list:
            return [
                Compute(2),
                Load("Image", common.contiguous_blocks(image, p0, lanes)),
                Compute(3, wait=True),  # divide + exp
                Store("J", common.contiguous_blocks(j, p0, lanes)),
            ]

        return common.grid_1d("srad_extract", self.rows * self.cols, warp)

    def _kernel(self, objs, first: bool) -> KernelTrace:
        j = objs["J"]

        def warp(wy: int, cx: int, n_cols: int) -> list:
            lane_r = np.full(n_cols, wy, dtype=np.int64)
            lane_c = np.arange(cx, cx + n_cols, dtype=np.int64)
            center = lane_r * self.cols + lane_c
            north = np.maximum(lane_r - 1, 0) * self.cols + lane_c
            south = (
                np.minimum(lane_r + 1, self.rows - 1) * self.cols + lane_c
            )
            west = lane_r * self.cols + np.maximum(lane_c - 1, 0)
            east = lane_r * self.cols + np.minimum(lane_c + 1, self.cols - 1)
            insts: list = [Compute(4)]
            if first:
                for idx_name, idx in (
                    ("i_N", wy), ("i_S", wy), ("i_E", cx), ("i_W", cx),
                ):
                    insts.append(Load(
                        idx_name, (common.block_addr(objs[idx_name], idx),),
                    ))
                for flat in (center, north, south, west, east):
                    insts.append(Load("J", common.scattered_blocks(j, flat)))
                insts.append(Compute(10, wait=True))
                for name in ("dN", "dS", "dW", "dE", "c"):
                    insts.append(Store(
                        name, common.scattered_blocks(objs[name], center),
                    ))
            else:
                insts.append(Load(
                    "i_S", (common.block_addr(objs["i_S"], wy),)))
                insts.append(Load(
                    "i_E", (common.block_addr(objs["i_E"], cx),)))
                insts.append(Load(
                    "c", common.scattered_blocks(objs["c"], center)))
                insts.append(Load(
                    "c", common.scattered_blocks(objs["c"], south)))
                insts.append(Load(
                    "c", common.scattered_blocks(objs["c"], east)))
                for name, flat in (
                    ("dN", center), ("dS", center),
                    ("dW", center), ("dE", center),
                ):
                    insts.append(Load(
                        name, common.scattered_blocks(objs[name], flat),
                    ))
                insts.append(Load("J", common.scattered_blocks(j, center)))
                insts.append(Compute(6, wait=True))
                insts.append(Store("J", common.scattered_blocks(j, center)))
            return insts

        return common.grid_2d("srad_cuda_1" if first else "srad_cuda_2",
                              self.rows, self.cols, warp)
