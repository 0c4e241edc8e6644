"""Tests for the top-level timing simulator."""

import pytest

from repro.arch.config import PAPER_CONFIG, fast_config
from repro.core.protection import ProtectionSpec
from repro.core.schemes import make_protection
from repro.errors import ConfigError
from repro.kernels.registry import create_app
from repro.sim.simulator import (
    build_protection,
    simulate_app,
    simulate_trace,
)

CFG = fast_config()
uniform = ProtectionSpec.uniform
#: Traffic-relationship assertions run on the paper's configuration:
#: at the shrunken fast config the 2-channel memory system makes fill
#: latencies (and therefore MSHR merge windows and demand-miss counts)
#: swing with replica traffic, which is emergent timing behavior, not
#: the property under test.
FULL_CFG = PAPER_CONFIG


@pytest.fixture(scope="module")
def bicg_small():
    app = create_app("P-BICG", scale="small")
    memory = app.fresh_memory()
    trace = app.build_trace(memory)
    return app, memory, trace


class TestBuildProtection:
    def test_baseline(self, bicg_small):
        _app, memory, _trace = bicg_small
        protection = build_protection(memory, ProtectionSpec.baseline())
        assert not protection.offsets
        assert protection.spec.scheme_label == "baseline"

    def test_empty_names_is_baseline(self, bicg_small):
        _app, memory, _trace = bicg_small
        protection = build_protection(memory, uniform("detection", ()))
        assert not protection.offsets

    def test_detection_offsets(self, bicg_small):
        _app, memory, _trace = bicg_small
        protection = build_protection(
            memory, uniform("detection", ("r", "p")))
        assert set(protection.offsets) == {"r", "p"}
        assert all(len(offs) == 1 for offs in protection.offsets.values())
        assert all(offs[0] > 0 for offs in protection.offsets.values())
        assert protection.lazy_objects == {"r", "p"}

    def test_correction_offsets(self, bicg_small):
        _app, memory, _trace = bicg_small
        protection = build_protection(memory, uniform("correction", ("r",)))
        assert len(protection.offsets["r"]) == 2
        assert not protection.lazy_objects

    def test_mixed_offsets_match_functional_replicas(self, bicg_small):
        """One replica allocation serves both layers: a mixed spec's
        timing offsets are the functional reader's address map."""
        _app, memory, _trace = bicg_small
        spec = ProtectionSpec.parse("A=detection,p=detection,r=correction")
        protection = build_protection(memory, spec)
        assert protection.spec.scheme_label == "mixed"
        assert protection.lazy_objects == {"A", "p"}
        reader = make_protection(memory.clone(), spec)
        assert protection.offsets == {
            name: tuple(r.base_addr - rs.primary.base_addr
                        for r in rs.replicas)
            for name, rs in reader.replica_sets.items()
        }

    def test_does_not_mutate_caller_memory(self, bicg_small):
        _app, memory, _trace = bicg_small
        before = memory.bytes_allocated
        build_protection(memory, uniform("correction", ("r", "p")))
        assert memory.bytes_allocated == before

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            uniform("mystery", ("r",))

    def test_never_copies_device_memory(self, bicg_small, monkeypatch):
        """The timing model only needs replica *offsets*: building a
        protection spec must neither deep-copy the device memory nor
        populate replica bytes (the pre-fix path cloned and copied the
        whole image per call)."""
        from repro.arch.address_space import DeviceMemory

        _app, memory, _trace = bicg_small
        spec = uniform("correction", ("r", "p"))
        reference = build_protection(memory, spec)

        def _no_clone(self):
            raise AssertionError("build_protection deep-copied memory")

        def _no_copy(self, *a, **k):
            raise AssertionError("build_protection populated replicas")

        monkeypatch.setattr(DeviceMemory, "clone", _no_clone)
        monkeypatch.setattr(DeviceMemory, "read_pristine", _no_copy)
        monkeypatch.setattr(DeviceMemory, "write_object", _no_copy)
        assert build_protection(memory, spec).offsets == reference.offsets


class TestSimulateTrace:
    def test_deterministic(self, bicg_small):
        _app, _memory, trace = bicg_small
        a = simulate_trace(trace, CFG)
        b = simulate_trace(trace, CFG)
        assert a.cycles == b.cycles
        assert a.demand_misses == b.demand_misses

    def test_kernels_serialize(self, bicg_small):
        _app, _memory, trace = bicg_small
        report = simulate_trace(trace, CFG)
        assert set(report.kernel_cycles) == \
            {"bicg_kernel1", "bicg_kernel2"}
        assert sum(report.kernel_cycles.values()) == report.cycles

    def test_instruction_count_matches_trace(self, bicg_small):
        _app, _memory, trace = bicg_small
        report = simulate_trace(trace, CFG)
        expected = 0
        for kernel in trace.kernels:
            for warp in kernel.iter_warps():
                for inst in warp.insts:
                    from repro.kernels.trace import Compute

                    if isinstance(inst, Compute):
                        expected += inst.count
                    else:
                        expected += len(inst.addrs)
        assert report.instructions == expected

    def test_l1_stats_populated(self, bicg_small):
        _app, _memory, trace = bicg_small
        report = simulate_trace(trace, CFG)
        assert report.l1_accesses > 0
        assert 0.0 < report.l1_hit_rate < 1.0
        # L2 sees demand misses plus write-through store traffic.
        assert report.l2_accesses == \
            report.demand_misses + report.store_transactions
        assert report.dram_requests > 0


class TestSimulateApp:
    def test_protection_increases_missed_accesses(self, bicg_small):
        app, memory, trace = bicg_small
        base = simulate_app(app, trace, memory, FULL_CFG)
        prot = simulate_app(app, trace, memory, FULL_CFG,
                            protection=uniform("detection", ("r", "p")))
        assert prot.l1_missed_accesses > base.l1_missed_accesses
        assert prot.replica_transactions > 0
        assert base.replica_transactions == 0

    def test_correction_more_traffic_than_detection(self, bicg_small):
        app, memory, trace = bicg_small
        det = simulate_app(app, trace, memory, FULL_CFG,
                           protection=uniform("detection", ("r", "p")))
        cor = simulate_app(app, trace, memory, FULL_CFG,
                           protection=uniform("correction", ("r", "p")))
        assert cor.replica_transactions == 2 * det.replica_transactions

    def test_protect_all_costs_more_than_hot(self, bicg_small):
        app, memory, trace = bicg_small
        hot = simulate_app(app, trace, memory, CFG,
                           protection=uniform("correction", ("r", "p")))
        all_objs = simulate_app(
            app, trace, memory, CFG,
            protection=uniform("correction", ("r", "p", "A")))
        assert all_objs.cycles > hot.cycles
        assert all_objs.replica_transactions > \
            5 * hot.replica_transactions

    def test_lazy_vs_eager_detection(self, bicg_small):
        """The lazy comparison is the reason detection is nearly free:
        eager (stall for both copies) costs at least as much."""
        app, memory, trace = bicg_small
        protection = uniform("detection", ("r", "p", "A"))
        lazy = simulate_app(app, trace, memory, CFG,
                            protection=protection, lazy=True)
        eager = simulate_app(app, trace, memory, CFG,
                             protection=protection, lazy=False)
        assert eager.cycles >= lazy.cycles

    def test_report_normalization_helpers(self, bicg_small):
        app, memory, trace = bicg_small
        base = simulate_app(app, trace, memory, CFG)
        prot = simulate_app(app, trace, memory, CFG,
                            protection=uniform("correction", ("A",)))
        assert prot.slowdown_vs(base) > 1.0
        assert prot.missed_accesses_vs(base) > 1.5
        assert "P-BICG" in prot.summary()
