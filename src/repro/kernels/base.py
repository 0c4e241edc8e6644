"""Application base class and plain memory reader."""

from __future__ import annotations

import abc

import numpy as np

from repro.arch.address_space import DataObject, DeviceMemory
from repro.errors import ConfigError
from repro.kernels.trace import AppTrace
from repro.metrics.base import OutputMetric


class PlainReader:
    """Reads kernel inputs straight from device memory (no protection).

    The reliability schemes in :mod:`repro.core` implement the same
    one-method protocol and are passed to ``execute`` in place of this
    class, which is the entire integration surface between workloads
    and the paper's contribution.
    """

    def __init__(self, memory: DeviceMemory):
        self.memory = memory

    def read(self, obj: DataObject) -> np.ndarray:
        """Read an input object (injected faults included)."""
        return self.memory.read_object(obj)


class GpuApplication(abc.ABC):
    """A GPGPU workload with functional execution and a memory trace.

    Subclasses define, in the spirit of the paper's Tables II and III:

    * ``name``/``suite`` — e.g. ``"P-BICG"`` / ``"polybench"``.
    * ``error_metric`` — the Table II output metric instance.
    * ``object_importance`` — kernel input objects sorted from most to
      least accessed (the x-axis order of Figs 7 and 9).
    * ``hot_object_names`` — the emboldened (hot) subset of Table III.
    """

    name: str = ""
    suite: str = ""

    def __init__(self, seed: int = 1234):
        self.seed = seed
        self.error_metric = self._make_metric()

    # -- subclass contract -------------------------------------------------
    @abc.abstractmethod
    def _make_metric(self) -> OutputMetric:
        """The Table II metric for this application."""

    @property
    @abc.abstractmethod
    def object_importance(self) -> list[str]:
        """Input data objects, most-accessed first (Table III order)."""

    @property
    @abc.abstractmethod
    def hot_object_names(self) -> set[str]:
        """The objects classified hot (bold in Table III)."""

    @abc.abstractmethod
    def setup(self, memory: DeviceMemory) -> None:
        """Allocate and initialize all data objects (deterministic)."""

    @abc.abstractmethod
    def execute(self, memory: DeviceMemory, reader) -> np.ndarray:
        """Run the kernels functionally and return the checked output.

        Inputs must be fetched through ``reader.read``; outputs must be
        written to device memory with ``memory.write_object`` and the
        returned array must be read back from memory (so faults landing
        in output blocks corrupt the observable result too).
        """

    @abc.abstractmethod
    def build_trace(self, memory: DeviceMemory) -> AppTrace:
        """Generate the warp-level coalesced memory trace."""

    # -- provided machinery ------------------------------------------------
    def fresh_memory(
        self, capacity_bytes: int = 64 * 1024 * 1024
    ) -> DeviceMemory:
        """A new device memory with this app set up in it."""
        memory = DeviceMemory(capacity_bytes)
        self.setup(memory)
        return memory

    def golden_output(self) -> np.ndarray:
        """The fault-free baseline output, computed afresh on every
        call (:func:`~repro.runtime.cache.app_context` caches it)."""
        memory = self.fresh_memory()
        return self.execute(memory, PlainReader(memory))

    def input_objects(self, memory: DeviceMemory) -> list[DataObject]:
        """Handles for the importance-ordered kernel input objects."""
        return [memory.object(name) for name in self.object_importance]

    def hot_objects(self, memory: DeviceMemory) -> list[DataObject]:
        """Handles for the declared hot objects, importance-ordered."""
        return [
            memory.object(name)
            for name in self.object_importance
            if name in self.hot_object_names
        ]

    def validate_declarations(self) -> None:
        """Sanity-check the Table III declarations against each other."""
        importance = self.object_importance
        if len(set(importance)) != len(importance):
            raise ConfigError(f"{self.name}: duplicate objects in importance")
        missing = self.hot_object_names - set(importance)
        if missing:
            raise ConfigError(
                f"{self.name}: hot objects {sorted(missing)} not in "
                "object_importance"
            )
        # Hot objects must be a prefix of the importance order: the
        # schemes protect objects cumulatively from the most accessed.
        prefix = set(importance[: len(self.hot_object_names)])
        if prefix != self.hot_object_names:
            raise ConfigError(
                f"{self.name}: hot objects {sorted(self.hot_object_names)} "
                f"are not the top of the importance order {importance}"
            )

    def rng(self, *keys: int) -> np.random.Generator:
        """Deterministic generator for input initialization."""
        from repro.utils.rng import derive_seed

        return np.random.default_rng(derive_seed(self.seed, *keys))
