"""C-NN: a four-layer convolutional digit classifier (CUDA-SDK style).

The network follows the classic CUDA ConvNN the paper profiles
(Listing 2 is its ``FirstLayer`` kernel):

* Layer 1 — 6 feature maps, 5x5 kernel, stride 2: 29x29 -> 6 x 13x13.
  Weight layout ``Layer1_Weights[map*26]`` = bias, then 25 weights, as
  in the listing (``weightBegin = blockID * 26``).
* Layer 2 — 50 maps from all 6, 5x5 stride 2: -> 50 x 5x5.
  ``Layer2_Weights[(out*6 + in)*26]`` = bias + 25 weights.
* Layer 3 — fully connected 1250 -> 100 (bias + weights per neuron).
* Layer 4 — fully connected 100 -> 10; classification = argmax.

Activation is the listing's ``1.7159 * tanh(0.66666667 * x)``.

The convolution weights are broadcast warp-wide from a handful of
memory blocks on every multiply-accumulate, which is what makes
``Layer1_Weights``/``Layer2_Weights`` the hottest blocks in the
application by orders of magnitude (Figure 3(a)): they are reused by
every CTA of every image, while image and FC-weight blocks are
streamed a bounded number of times each.
"""

from __future__ import annotations

import numpy as np

from repro.arch.address_space import DeviceMemory
from repro.kernels import common
from repro.kernels.base import GpuApplication
from repro.kernels.trace import (
    AppTrace,
    Compute,
    KernelTrace,
    Load,
    Store,
)
from repro.metrics.classification import (
    MisclassificationMetric,
    batch_threshold,
)

IMAGE_DIM = 29
L1_MAPS = 6
L1_OUT = 13  # (29 - 5) / 2 + 1
L2_MAPS = 50
L2_OUT = 5  # (13 - 5) / 2 + 1
FC_IN = L2_MAPS * L2_OUT * L2_OUT  # 1250
FC_HIDDEN = 100
CLASSES = 10


def activation(x: np.ndarray) -> np.ndarray:
    """Listing 2's scaled tanh: 1.7159 * tanh(2x/3)."""
    return 1.7159 * np.tanh(0.66666667 * x)


class Cnn(GpuApplication):
    """Four-layer convolutional classifier; hot: conv weights."""

    name = "C-NN"
    suite = "cuda-sdk"

    def __init__(self, batch: int = 12, seed: int = 1234):
        if batch <= 0:
            raise ValueError("batch must be positive")
        self.batch = batch
        super().__init__(seed)

    def _make_metric(self) -> MisclassificationMetric:
        # More than one flipped image out of the batch is systemic
        # corruption; a single flip is localized input damage.
        return MisclassificationMetric(threshold=batch_threshold(self.batch))

    @property
    def object_importance(self) -> list[str]:
        return [
            "Layer1_Weights",
            "Layer2_Weights",
            "Layer3_Weights",
            "Layer4_Weights",
            "Images",
        ]

    @property
    def hot_object_names(self) -> set[str]:
        return {"Layer1_Weights", "Layer2_Weights"}

    def setup(self, memory: DeviceMemory) -> None:
        rng = self.rng(0)
        w1 = memory.alloc("Layer1_Weights", (L1_MAPS * 26,), np.float32)
        w2 = memory.alloc(
            "Layer2_Weights", (L2_MAPS * L1_MAPS * 26,), np.float32)
        w3 = memory.alloc(
            "Layer3_Weights", (FC_HIDDEN * (FC_IN + 1),), np.float32)
        w4 = memory.alloc(
            "Layer4_Weights", (CLASSES * (FC_HIDDEN + 1),), np.float32)
        images = memory.alloc(
            "Images", (self.batch, IMAGE_DIM, IMAGE_DIM), np.float32)
        memory.alloc("Layer2_Neurons",
                     (self.batch, L1_MAPS, L1_OUT, L1_OUT),
                     np.float32, read_only=False)
        memory.alloc("Layer3_Neurons", (self.batch, FC_IN),
                     np.float32, read_only=False)
        memory.alloc("Layer4_Neurons", (self.batch, FC_HIDDEN),
                     np.float32, read_only=False)
        memory.alloc("Out", (self.batch, CLASSES),
                     np.float32, read_only=False)

        memory.write_object(
            w1, rng.normal(0.0, 0.4, size=L1_MAPS * 26))
        memory.write_object(
            w2, rng.normal(0.0, 0.15, size=L2_MAPS * L1_MAPS * 26))
        memory.write_object(
            w3, rng.normal(0.0, 0.05, size=FC_HIDDEN * (FC_IN + 1)))
        memory.write_object(
            w4, rng.normal(0.0, 0.15, size=CLASSES * (FC_HIDDEN + 1)))
        # Synthetic digit-like inputs: blobs and strokes with noise.
        # The metric is baseline-relative so realism is not required,
        # but structured inputs keep layer activations well-scaled.
        imgs = rng.uniform(0.0, 0.2,
                           size=(self.batch, IMAGE_DIM, IMAGE_DIM))
        for b in range(self.batch):
            cy, cx = rng.integers(8, 21, size=2)
            yy, xx = np.mgrid[0:IMAGE_DIM, 0:IMAGE_DIM]
            blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 18.0)
            imgs[b] += blob
            if b % 2:
                imgs[b, :, cx - 3:cx + 3] += 0.5  # vertical stroke
        memory.write_object(images, np.clip(imgs, 0.0, 1.0))

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def execute(self, memory: DeviceMemory, reader) -> np.ndarray:
        images = reader.read(memory.object("Images")).astype(np.float64)
        w1 = reader.read(memory.object("Layer1_Weights")).astype(np.float64)
        w2 = reader.read(memory.object("Layer2_Weights")).astype(np.float64)
        w3 = reader.read(memory.object("Layer3_Weights")).astype(np.float64)
        w4 = reader.read(memory.object("Layer4_Weights")).astype(np.float64)
        if not (np.isfinite(w3).all() and np.isfinite(w4).all()):
            # NaN weights in the big FC layers poison every activation;
            # keep going — the metric classifies non-finite output.
            pass

        # Faulted weights can be huge/inf; the activations saturate
        # but intermediate products may overflow (silently, as on HW).
        with np.errstate(all="ignore"):
            return self._forward(memory, images, w1, w2, w3, w4)

    def _forward(self, memory, images, w1, w2, w3, w4) -> np.ndarray:
        # Layer 1: 5x5 stride-2 convolution per map.
        w1 = w1.reshape(L1_MAPS, 26)
        windows = np.lib.stride_tricks.sliding_window_view(
            images, (5, 5), axis=(1, 2))[:, ::2, ::2]  # (B,13,13,5,5)
        conv1 = np.einsum("byxij,mij->bmyx", windows,
                          w1[:, 1:].reshape(L1_MAPS, 5, 5))
        l2n = activation(w1[:, 0][None, :, None, None] + conv1)
        memory.write_object(memory.object("Layer2_Neurons"), l2n)
        l2n = memory.read_object(
            memory.object("Layer2_Neurons")).astype(np.float64)

        # Layer 2: 5x5 stride-2 convolution across all 6 maps.
        w2 = w2.reshape(L2_MAPS, L1_MAPS, 26)
        windows2 = np.lib.stride_tricks.sliding_window_view(
            l2n, (5, 5), axis=(2, 3))[:, :, ::2, ::2]  # (B,6,5,5,5,5)
        conv2 = np.einsum(
            "bmyxij,fmij->bfyx", windows2,
            w2[:, :, 1:].reshape(L2_MAPS, L1_MAPS, 5, 5))
        bias2 = w2[:, :, 0].sum(axis=1)  # summed per-input-map biases
        l3n = activation(bias2[None, :, None, None] + conv2)
        memory.write_object(
            memory.object("Layer3_Neurons"), l3n.reshape(self.batch, FC_IN))
        l3n = memory.read_object(
            memory.object("Layer3_Neurons")).astype(np.float64)

        # Layer 3: fully connected 1250 -> 100.
        w3 = w3.reshape(FC_HIDDEN, FC_IN + 1)
        l4n = activation(w3[:, 0][None, :] + l3n @ w3[:, 1:].T)
        memory.write_object(memory.object("Layer4_Neurons"), l4n)
        l4n = memory.read_object(
            memory.object("Layer4_Neurons")).astype(np.float64)

        # Layer 4: fully connected 100 -> 10.
        w4 = w4.reshape(CLASSES, FC_HIDDEN + 1)
        scores = activation(w4[:, 0][None, :] + l4n @ w4[:, 1:].T)
        memory.write_object(memory.object("Out"), scores)
        scores = memory.read_object(memory.object("Out"))

        # Classification vector: NaN scores classify as class -1 so the
        # misclassification metric flags them deterministically.
        labels = np.where(
            np.isfinite(scores).all(axis=1),
            np.argmax(np.nan_to_num(scores, nan=-np.inf), axis=1),
            -1,
        )
        return labels.astype(np.int64)

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------
    def build_trace(self, memory: DeviceMemory) -> AppTrace:
        return AppTrace(
            self.name,
            [
                self._layer1_trace(memory),
                self._layer2_trace(memory),
                self._fc_trace(memory, "ThirdLayer", "Layer3_Neurons",
                               "Layer3_Weights", "Layer4_Neurons",
                               FC_IN, FC_HIDDEN),
                self._fc_trace(memory, "FourthLayer", "Layer4_Neurons",
                               "Layer4_Weights", "Out",
                               FC_HIDDEN, CLASSES),
            ],
        )

    def _layer1_trace(self, memory: DeviceMemory) -> KernelTrace:
        images = memory.object("Images")
        w1 = memory.object("Layer1_Weights")
        l2n = memory.object("Layer2_Neurons")
        n_threads = L1_OUT * L1_OUT  # 169, 2-D (13, 13)
        warps = common.warp_partition(n_threads)
        mac = Compute(2, wait=True)
        # weights[map][k]: the bias (k = 0), then the 25 taps
        # (``weightBegin = blockID * 26``).
        weights = [
            [Load("Layer1_Weights", (common.block_addr(w1, map_id * 26 + k),))
             for k in range(26)]
            for map_id in range(L1_MAPS)
        ]

        def image_taps(b: int, first: int, lanes: int) -> list[Load]:
            """The 25 window reads of one warp, shared by every map."""
            tid = np.arange(first, first + lanes, dtype=np.int64)
            py, px = tid // L1_OUT, tid % L1_OUT
            base = b * IMAGE_DIM * IMAGE_DIM
            return [
                Load("Images", common.scattered_blocks(
                    images,
                    base + (2 * py + i // 5) * IMAGE_DIM + 2 * px + i % 5))
                for i in range(25)
            ]

        def warp(b: int, map_id: int, first: int, lanes: int,
                 taps: list[Load]) -> list:
            bias, *tap_weights = weights[map_id]
            insts: list = [Compute(6), bias]
            for tap, weight in zip(taps, tap_weights):
                insts += (tap, weight, mac)
            insts.append(Compute(3))  # activation
            insts.append(Store("Layer2_Neurons", common.contiguous_blocks(
                l2n, (b * L1_MAPS + map_id) * n_threads + first, lanes)))
            return insts

        def ctas():
            # One CTA per (image, feature map).
            for b in range(self.batch):
                taps = [image_taps(b, first, lanes) for first, lanes in warps]
                for map_id in range(L1_MAPS):
                    yield [warp(b, map_id, first, lanes, warp_taps)
                           for (first, lanes), warp_taps in zip(warps, taps)]

        return common.kernel_trace("FirstLayer", ctas())

    def _layer2_trace(self, memory: DeviceMemory) -> KernelTrace:
        w2 = memory.object("Layer2_Weights")
        l2n = memory.object("Layer2_Neurons")
        l3n = memory.object("Layer3_Neurons")
        n_threads = L2_OUT * L2_OUT  # 25, one warp per CTA
        tid = np.arange(n_threads, dtype=np.int64)
        py, px = tid // L2_OUT, tid % L2_OUT
        window = 2 * py * L1_OUT + 2 * px
        mac = Compute(2, wait=True)
        # taps[b][in_map][i]: the warp's read of tap i of its 5x5 window
        # in one input map of image b, shared by all 50 features.
        taps = [
            [[Load("Layer2_Neurons", common.scattered_blocks(
                l2n, (b * L1_MAPS + in_map) * L1_OUT * L1_OUT
                + (i // 5) * L1_OUT + i % 5 + window))
              for i in range(25)]
             for in_map in range(L1_MAPS)]
            for b in range(self.batch)
        ]
        # weights[feature][in_map][k]: Layer2_Weights[(out*6 + in)*26 + k],
        # the bias (k = 0) then the 25 taps, shared by every image.
        weights = [
            [[Load("Layer2_Weights", (common.block_addr(
                w2, (feature * L1_MAPS + in_map) * 26 + k),))
              for k in range(26)]
             for in_map in range(L1_MAPS)]
            for feature in range(L2_MAPS)
        ]

        def warp(b: int, feature: int) -> list:
            insts: list = [Compute(6)]
            for map_taps, (bias, *tap_weights) in zip(
                    taps[b], weights[feature]):
                insts.append(bias)
                for tap, weight in zip(map_taps, tap_weights):
                    insts += (tap, weight, mac)
            insts.append(Compute(3))
            insts.append(Store("Layer3_Neurons", common.contiguous_blocks(
                l3n, b * FC_IN + feature * n_threads, n_threads)))
            return insts

        # One single-warp CTA per (image, output feature).
        return common.kernel_trace("SecondLayer", (
            [warp(b, feature)]
            for b in range(self.batch)
            for feature in range(L2_MAPS)
        ))

    def _fc_trace(
        self,
        memory: DeviceMemory,
        kernel_name: str,
        in_name: str,
        weight_name: str,
        out_name: str,
        fan_in: int,
        fan_out: int,
    ) -> KernelTrace:
        """Fully connected layer: one 32-thread CTA per (image, neuron);
        lanes stride across the contiguous weight row (coalesced)."""
        w = memory.object(weight_name)
        inp = memory.object(in_name)
        out = memory.object(out_name)
        chunks = [(k0, min(32, fan_in - k0)) for k0 in range(0, fan_in, 32)]
        mac = Compute(2, wait=True)
        # rows[neuron]: the bias load, then the row's 32-wide chunks,
        # shared by every image; inputs[b]: image b's chunks, shared by
        # every neuron.
        rows = []
        for neuron in range(fan_out):
            row = neuron * (fan_in + 1)
            rows.append((
                Load(weight_name, (common.block_addr(w, row),)),
                [Load(weight_name,
                      common.contiguous_blocks(w, row + 1 + k0, lanes))
                 for k0, lanes in chunks],
            ))
        inputs = [
            [Load(in_name,
                  common.contiguous_blocks(inp, b * fan_in + k0, lanes))
             for k0, lanes in chunks]
            for b in range(self.batch)
        ]

        def warp(b: int, neuron: int) -> list:
            bias, row_chunks = rows[neuron]
            insts: list = [Compute(4), bias]
            for weight, value in zip(row_chunks, inputs[b]):
                insts += (weight, value, mac)
            insts.append(Compute(6))  # tree reduction + activation
            insts.append(Store(
                out_name, (common.block_addr(out, b * fan_out + neuron),)))
            return insts

        return common.kernel_trace(kernel_name, (
            [warp(b, neuron)]
            for b in range(self.batch)
            for neuron in range(fan_out)
        ))
