"""Shared machinery for the AxBench image-filter applications
(A-Laplacian, A-Meanfilter, A-Sobel).

These kernels launch one thread per pixel in 32x8 CTAs and walk a
3x3 window.  Per tap they re-read the filter coefficients and the
image bounds (``Filter_Height``/``Filter_Width``) — scalar objects
that each live in a single memory block — which is why those tiny
objects absorb ~73% of all read transactions (Table III) while the
image itself, though orders of magnitude larger, is touched only ~9
times per block.

Faults in the bounds scalars are interesting failure modes: a
corrupted ``height`` that still fits the allocation silently truncates
the output (SDC); one that exceeds it would walk off the allocation,
which we surface as :class:`~repro.errors.KernelCrash`.
"""

from __future__ import annotations

import numpy as np

from repro.arch.address_space import DeviceMemory
from repro.errors import KernelCrash
from repro.kernels import common
from repro.kernels.base import GpuApplication
from repro.kernels.trace import AppTrace, Compute, Load, Store
from repro.metrics.image import NrmseMetric


class StencilApp(GpuApplication):
    """Base class for the 3x3-window AxBench filters."""

    suite = "axbench"
    #: Subclasses with a coefficient object set this to its length.
    filter_elements: int = 0

    def __init__(self, height: int = 96, width: int = 96, seed: int = 1234):
        self.height = height
        self.width = width
        super().__init__(seed)

    def _make_metric(self) -> NrmseMetric:
        return NrmseMetric()

    # -- subclass contract --------------------------------------------------
    def _filter_values(self) -> np.ndarray | None:
        """Coefficient array for the Filter object (None = no filter)."""
        return None

    def _apply(self, image: np.ndarray, coeffs: np.ndarray | None) \
            -> np.ndarray:
        """The filter math on a (h, w) image; returns the output image."""
        raise NotImplementedError

    def _tap_loads(self) -> list[str]:
        """Objects re-read per window tap, e.g. ["Filter", "Filter_Height",
        "Filter_Width"].  The image load per tap is implicit."""
        raise NotImplementedError

    def _per_row_loads(self) -> list[str]:
        """Objects re-read once per window *row* instead of per tap."""
        return []

    # -- common implementation ----------------------------------------------
    def setup(self, memory: DeviceMemory) -> None:
        """Allocate filter/bounds/image objects and synthesize input."""
        rng = self.rng(0)
        coeffs = self._filter_values()
        if coeffs is not None:
            filt = memory.alloc("Filter", (coeffs.size,), np.float32)
            memory.write_object(filt, coeffs)
        h = memory.alloc("Filter_Height", (1,), np.int32)
        w = memory.alloc("Filter_Width", (1,), np.int32)
        img = memory.alloc("Image", (self.height, self.width), np.float32)
        memory.alloc(
            "Output", (self.height, self.width), np.float32, read_only=False
        )
        memory.write_object(h, np.array([self.height], dtype=np.int32))
        memory.write_object(w, np.array([self.width], dtype=np.int32))
        # A smooth gradient plus texture: edges for Sobel to find, noise
        # for the smoothing filters to remove.
        yy, xx = np.mgrid[0:self.height, 0:self.width]
        base = 96.0 * (xx / max(self.width - 1, 1))
        base += 64.0 * ((yy // 12) % 2)  # horizontal bands => strong edges
        noise = rng.uniform(-12.0, 12.0, size=(self.height, self.width))
        memory.write_object(
            img, np.clip(base + noise, 0.0, 255.0).astype(np.float32)
        )

    def execute(self, memory: DeviceMemory, reader) -> np.ndarray:
        """Run the filter; corrupted bounds truncate or crash."""
        h = int(reader.read(memory.object("Filter_Height"))[0])
        w = int(reader.read(memory.object("Filter_Width"))[0])
        if h <= 0 or w <= 0 or h > self.height or w > self.width:
            raise KernelCrash(
                f"{self.name}: corrupted bounds {h}x{w} walk outside the "
                f"{self.height}x{self.width} allocation"
            )
        # Pixel data has uint8 image semantics: values are clamped to
        # [0, 255] on load (a faulted pixel can be wrong, but not 1e38).
        image = np.clip(
            np.nan_to_num(
                reader.read(memory.object("Image")), nan=255.0,
                posinf=255.0, neginf=0.0,
            ),
            0.0, 255.0,
        )
        coeffs = None
        if self.filter_elements:
            coeffs = reader.read(memory.object("Filter"))
        out = np.zeros((self.height, self.width), dtype=np.float32)
        out[:h, :w] = self._apply(image[:h, :w], coeffs)
        memory.write_object(memory.object("Output"), out)
        return memory.read_object(memory.object("Output"))

    def build_trace(self, memory: DeviceMemory) -> AppTrace:
        """One 32x8-CTA kernel: per-tap coefficient/bounds re-reads."""
        img = memory.object("Image")
        out = memory.object("Output")
        tap_objs = [
            (name, memory.object(name)) for name in self._tap_loads()
        ]
        row_objs = [
            (name, memory.object(name)) for name in self._per_row_loads()
        ]

        def warp(wy: int, cx: int, cols: int) -> list:
            insts: list = [Compute(4)]
            lane_y = np.full(cols, wy, dtype=np.int64)
            lane_x = np.arange(cx, cx + cols, dtype=np.int64)
            for dy in (-1, 0, 1):
                for name, obj in row_objs:
                    insts.append(Load(name, (common.block_addr(obj, 0),)))
                for dx in (-1, 0, 1):
                    tap = (dy + 1) * 3 + (dx + 1)
                    for name, obj in tap_objs:
                        idx = tap if name == "Filter" else 0
                        insts.append(
                            Load(name, (common.block_addr(obj, idx),)))
                    y = np.clip(lane_y + dy, 0, self.height - 1)
                    x = np.clip(lane_x + dx, 0, self.width - 1)
                    in_bounds = (
                        (lane_y + dy >= 0)
                        & (lane_y + dy < self.height)
                        & (lane_x + dx >= 0)
                        & (lane_x + dx < self.width)
                    )
                    if in_bounds.any():
                        flat = (y * self.width + x)[in_bounds]
                        insts.append(
                            Load("Image", common.scattered_blocks(img, flat))
                        )
                    insts.append(Compute(2, wait=True))
            insts.append(Compute(2))
            insts.append(Store(
                "Output",
                common.scattered_blocks(out, lane_y * self.width + lane_x),
            ))
            return insts

        return AppTrace(self.name, [common.grid_2d(
            f"{self.name.lower()}_kernel", self.height, self.width, warp)])


def convolve3x3(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 convolution (correlation, matching the CUDA code)."""
    h, w = image.shape
    padded = np.zeros((h + 2, w + 2), dtype=np.float64)
    padded[1:-1, 1:-1] = image
    out = np.zeros((h, w), dtype=np.float64)
    # Corrupted coefficients can be inf/NaN; the arithmetic must carry
    # them through silently (the metric classifies non-finite output).
    with np.errstate(all="ignore"):
        for dy in range(3):
            for dx in range(3):
                out += kernel[dy, dx] * padded[dy:dy + h, dx:dx + w]
    return out
