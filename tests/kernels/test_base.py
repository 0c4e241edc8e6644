"""Tests for the application base class."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kernels import common
from repro.kernels.base import GpuApplication, PlainReader
from repro.kernels.trace import AppTrace, Compute, Load, Store
from repro.metrics.vector import VectorDeviationMetric
from repro.runtime.cache import app_context


class _Toy(GpuApplication):
    """Minimal concrete app for base-class tests."""

    name = "toy"
    suite = "test"

    def __init__(self, importance=("a", "b"), hot=("a",), seed=1):
        self._importance = list(importance)
        self._hot = set(hot)
        super().__init__(seed)

    def _make_metric(self):
        return VectorDeviationMetric()

    @property
    def object_importance(self):
        return list(self._importance)

    @property
    def hot_object_names(self):
        return set(self._hot)

    def setup(self, memory):
        a = memory.alloc("a", (8,), np.float32)
        b = memory.alloc("b", (8,), np.float32)
        memory.alloc("out", (8,), np.float32, read_only=False)
        rng = self.rng(0)
        memory.write_object(a, rng.uniform(size=8))
        memory.write_object(b, rng.uniform(size=8))

    def execute(self, memory, reader):
        a = reader.read(memory.object("a"))
        b = reader.read(memory.object("b"))
        memory.write_object(memory.object("out"), a + b)
        return memory.read_object(memory.object("out"))

    def build_trace(self, memory):
        insts = [
            Load("a", common.contiguous_blocks(memory.object("a"), 0, 8)),
            Load("b", common.contiguous_blocks(memory.object("b"), 0, 8)),
            Compute(2, wait=True),
            Store("out",
                  common.contiguous_blocks(memory.object("out"), 0, 8)),
        ]
        return AppTrace(self.name, [common.kernel_trace("k", [[insts]])])


class TestGpuApplication:
    def test_fresh_memory_sets_up(self):
        app = _Toy()
        mem = app.fresh_memory()
        assert mem.object("a").read_only
        assert not mem.object("out").read_only

    def test_golden_is_cached_and_deterministic(self):
        app = _Toy()
        first = app_context(app).golden
        assert app_context(app).golden is first
        assert app_context(_Toy()).golden is first
        np.testing.assert_array_equal(first, app.golden_output())
        np.testing.assert_array_equal(first, _Toy().golden_output())

    def test_seed_changes_golden(self):
        a = _Toy(seed=1).golden_output()
        b = _Toy(seed=2).golden_output()
        assert not np.array_equal(a, b)

    def test_hot_objects_selects_importance_order(self):
        app = _Toy(importance=("a", "b"), hot=("a",))
        mem = app.fresh_memory()
        assert [o.name for o in app.hot_objects(mem)] == ["a"]
        assert [o.name for o in app.input_objects(mem)] == ["a", "b"]

    def test_validate_rejects_duplicate_importance(self):
        app = _Toy(importance=("a", "a"), hot=("a",))
        with pytest.raises(ConfigError):
            app.validate_declarations()

    def test_validate_rejects_unknown_hot(self):
        app = _Toy(importance=("a", "b"), hot=("zzz",))
        with pytest.raises(ConfigError):
            app.validate_declarations()

    def test_validate_rejects_non_prefix_hot(self):
        app = _Toy(importance=("a", "b"), hot=("b",))
        with pytest.raises(ConfigError):
            app.validate_declarations()

    def test_plain_reader_reads_faults(self):
        app = _Toy()
        mem = app.fresh_memory()
        obj = mem.object("a")
        mem.inject_stuck_at(obj.base_addr + 3, 6, 1)
        reader = PlainReader(mem)
        assert not np.array_equal(reader.read(obj),
                                  mem.read_pristine(obj))

