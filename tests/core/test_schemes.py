"""Tests for the functional detection/correction schemes."""

import numpy as np
import pytest

from repro.arch.address_space import DeviceMemory
from repro.core.schemes import (
    BaselineScheme,
    CorrectionScheme,
    DetectionScheme,
    ReplicatedScheme,
    make_protection,
)
from repro.core.protection import ProtectionSpec
from repro.core.replication import replica_name
from repro.errors import ConfigError, FaultDetected


@pytest.fixture()
def setup():
    mem = DeviceMemory(1024 * 1024)
    hot = mem.alloc("hot", (64,), np.float32)
    cold = mem.alloc("cold", (64,), np.float32)
    mem.write_object(hot, np.arange(64, dtype=np.float32))
    mem.write_object(cold, np.ones(64, dtype=np.float32))
    return mem, hot, cold


class TestBaseline:
    def test_reads_pass_through_faults(self, setup):
        mem, hot, _cold = setup
        mem.inject_stuck_at(hot.base_addr, 6, 1)
        scheme = BaselineScheme(mem)
        assert not np.array_equal(
            scheme.read(hot), mem.read_pristine(hot))
        assert scheme.stats.unprotected_reads == 1


class TestDetection:
    def test_clean_read_returns_data(self, setup):
        mem, hot, _cold = setup
        scheme = DetectionScheme(mem, [hot])
        np.testing.assert_array_equal(
            scheme.read(hot), mem.read_pristine(hot))
        assert scheme.stats.comparisons == 1

    def test_fault_in_primary_detected(self, setup):
        mem, hot, _cold = setup
        scheme = DetectionScheme(mem, [hot])
        mem.inject_stuck_at(hot.base_addr + 8, 3, 1)
        with pytest.raises(FaultDetected) as exc:
            scheme.read(hot)
        assert exc.value.object_name == "hot"
        assert exc.value.block_index == 0

    def test_fault_in_replica_also_detected(self, setup):
        mem, hot, _cold = setup
        scheme = DetectionScheme(mem, [hot])
        replica = mem.object(replica_name("hot", 1))
        mem.inject_stuck_at(replica.base_addr, 5, 1)
        with pytest.raises(FaultDetected):
            scheme.read(hot)

    def test_stuck_at_matching_data_not_detected(self, setup):
        mem, hot, _cold = setup
        scheme = DetectionScheme(mem, [hot])
        # Element 0 is 0.0f: stuck-at-0 anywhere in it changes nothing.
        mem.inject_stuck_at(hot.base_addr, 4, 0)
        np.testing.assert_array_equal(
            scheme.read(hot), mem.read_pristine(hot))

    def test_unprotected_object_not_checked(self, setup):
        mem, hot, cold = setup
        scheme = DetectionScheme(mem, [hot])
        mem.inject_stuck_at(cold.base_addr, 7, 1)
        scheme.read(cold)  # no exception: cold is unprotected
        assert scheme.stats.unprotected_reads == 1

    def test_cannot_protect_nothing(self, setup):
        mem, _hot, _cold = setup
        with pytest.raises(ConfigError):
            DetectionScheme(mem, [])


class TestCorrection:
    def test_fault_in_primary_corrected(self, setup):
        mem, hot, _cold = setup
        scheme = CorrectionScheme(mem, [hot])
        mem.inject_stuck_at(hot.base_addr + 12, 6, 1)
        np.testing.assert_array_equal(
            scheme.read(hot), mem.read_pristine(hot))
        assert scheme.stats.corrected_reads == 1
        assert scheme.stats.corrected_bytes >= 1

    def test_fault_in_one_replica_outvoted(self, setup):
        mem, hot, _cold = setup
        scheme = CorrectionScheme(mem, [hot])
        replica = mem.object(replica_name("hot", 2))
        mem.inject_stuck_at(replica.base_addr + 4, 2, 1)
        np.testing.assert_array_equal(
            scheme.read(hot), mem.read_pristine(hot))
        # The primary was already correct: nothing counted as repaired.
        assert scheme.stats.corrected_reads == 0

    def test_multi_bit_fault_corrected(self, setup):
        mem, hot, _cold = setup
        scheme = CorrectionScheme(mem, [hot])
        for bit in (0, 9, 17, 30):
            mem.inject_stuck_at(hot.base_addr + bit // 8, bit % 8, 1)
        np.testing.assert_array_equal(
            scheme.read(hot), mem.read_pristine(hot))

    def test_dtype_and_shape_preserved(self, setup):
        mem, hot, _cold = setup
        scheme = CorrectionScheme(mem, [hot])
        out = scheme.read(hot)
        assert out.dtype == np.float32
        assert out.shape == (64,)


class TestFactory:
    def test_names(self, setup):
        mem, _hot, _cold = setup
        assert isinstance(make_protection(mem, ProtectionSpec.baseline()),
                          BaselineScheme)
        scheme = make_protection(mem, ProtectionSpec.parse("hot=detection"))
        assert isinstance(scheme, ReplicatedScheme)
        assert scheme.protected_names == {"hot"}

    def test_empty_protection_degrades_to_baseline(self, setup):
        mem, _hot, _cold = setup
        scheme = make_protection(
            mem, ProtectionSpec.uniform("correction", []))
        assert isinstance(scheme, BaselineScheme)

    def test_unknown_scheme_rejected(self, setup):
        mem, _hot, _cold = setup
        with pytest.raises(ConfigError):
            make_protection(
                mem, ProtectionSpec.uniform("quadruplication", ["hot"]))

    def test_correction_factory(self, setup):
        mem, _hot, _cold = setup
        scheme = make_protection(
            mem, ProtectionSpec.uniform("correction", ["hot"]))
        assert scheme.replica_sets["hot"].n_copies == 3
        assert CorrectionScheme.extra_copies == 2


class TestMixed:
    """One reader over a spec mixing detection and correction."""

    @pytest.fixture()
    def mixed(self, setup):
        mem, hot, cold = setup
        scheme = make_protection(
            mem, ProtectionSpec.parse("hot=detection,cold=correction"))
        return mem, hot, cold, scheme

    def test_fault_on_detection_object_detected(self, mixed):
        mem, hot, _cold, scheme = mixed
        mem.inject_stuck_at(hot.base_addr + 8, 3, 1)
        with pytest.raises(FaultDetected) as exc:
            scheme.read(hot)
        assert exc.value.object_name == "hot"

    def test_fault_on_correction_object_voted_out(self, mixed):
        mem, _hot, cold, scheme = mixed
        mem.inject_stuck_at(cold.base_addr + 4, 6, 1)
        np.testing.assert_array_equal(
            scheme.read(cold), mem.read_pristine(cold))
        assert scheme.stats.corrected_reads == 1
        assert scheme.stats.corrected_bytes >= 1
        assert scheme.stats.comparisons == 1

    def test_one_stats_block_counts_both_schemes(self, mixed):
        _mem, hot, cold, scheme = mixed
        scheme.read(hot)
        scheme.read(cold)
        assert scheme.stats.protected_reads == 2
        assert scheme.stats.comparisons == 2

    def test_replica_copies_per_object(self, mixed):
        mem, _hot, _cold, _scheme = mixed
        assert mem.has_object(replica_name("hot", 1))
        assert not mem.has_object(replica_name("hot", 2))
        assert mem.has_object(replica_name("cold", 2))

    def test_table_budget_counts_replica_copies(self):
        """16 detection objects (one 4 B address each) plus 8
        correction objects (two each) fill the 128 B start-address
        table exactly; one more correction object overflows it."""
        def protect(pairs):
            mem = DeviceMemory(1024 * 1024)
            for name, _scheme in pairs:
                mem.alloc(name, (8,), np.float32)
            return make_protection(mem, ProtectionSpec(tuple(pairs)))

        pairs = [(f"d{i:02d}", "detection") for i in range(16)]
        pairs += [(f"c{i:02d}", "correction") for i in range(8)]
        assert len(protect(pairs).protected_names) == 24
        with pytest.raises(ConfigError, match="start-address table"):
            protect(pairs + [("c08", "correction")])
