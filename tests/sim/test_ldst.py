"""Tests for the LD/ST unit (replication-aware L1 front-end)."""

import pytest

from repro.arch.config import fast_config
from repro.core.hardware import HardwareBudget
from repro.core.protection import ProtectionSpec
from repro.sim.ldst import LdstUnit, TimingProtection, SimStats
from repro.sim.memory_subsystem import MemorySubsystem

CFG = fast_config()


def make_unit(protection=None, config=CFG):
    protection = protection or TimingProtection.baseline()
    stats = SimStats()
    subsystem = MemorySubsystem(config)
    unit = LdstUnit(config, subsystem, protection,
                    HardwareBudget.from_config(config), stats)
    return unit, stats, subsystem


def detection_spec(lazy=True):
    return TimingProtection(
        ProtectionSpec.parse("hot=detection"), lazy=lazy,
        offsets={"hot": (1 << 20,)},
    )


def correction_spec():
    return TimingProtection(
        ProtectionSpec.parse("hot=correction"), lazy=True,
        offsets={"hot": (1 << 20, 2 << 20)},
    )


class TestBasicLoads:
    def test_miss_then_hit(self):
        unit, stats, _ = make_unit()
        ready1, stall = unit.load(0, "obj", 0)
        assert stall is None
        assert ready1 > CFG.l1_hit_latency
        assert stats.demand_misses == 1
        # After the fill has arrived, same line is an L1 hit.
        ready2, _ = unit.load(ready1 + 1, "obj", 0)
        assert ready2 == ready1 + 1 + CFG.l1_hit_latency

    def test_merged_miss_inherits_fill_time(self):
        unit, stats, _ = make_unit()
        ready1, _ = unit.load(0, "obj", 0)
        ready2, stall = unit.load(1, "obj", 0)  # still in flight
        assert stall is None
        assert ready2 == ready1
        assert stats.demand_misses == 1  # merged: one transaction

    def test_distinct_lines_distinct_misses(self):
        unit, stats, _ = make_unit()
        unit.load(0, "obj", 0)
        unit.load(0, "obj", 128)
        assert stats.demand_misses == 2

    def test_store_counts_transaction(self):
        unit, stats, _ = make_unit()
        unit.store(0, 256)
        assert stats.store_transactions == 1
        assert stats.demand_misses == 0


class TestMshrPressure:
    def test_mshr_full_stalls(self):
        unit, stats, _ = make_unit()
        for i in range(CFG.l1_mshr_entries):
            _ready, stall = unit.load(0, "obj", i * 128)
            assert stall is None
        ready, stall = unit.load(0, "obj", 9999 * 128)
        assert stall is not None
        assert stall > 0  # the SM parks the warp at it: never "now"
        assert stats.stalls.mshr_full == 1

    def test_stall_clears_after_fill(self):
        unit, _stats, _ = make_unit()
        stall_until = None
        for i in range(CFG.l1_mshr_entries + 1):
            _ready, stall = unit.load(0, "obj", i * 128)
            if stall is not None:
                stall_until = stall
        assert stall_until is not None
        ready, stall = unit.load(stall_until, "obj", 9999 * 128)
        assert stall is None


class TestDetectionReplication:
    def test_protected_miss_issues_replica(self):
        unit, stats, _ = make_unit(detection_spec())
        unit.load(0, "hot", 0)
        assert stats.demand_misses == 1
        assert stats.replica_transactions == 1

    def test_unprotected_object_no_replica(self):
        unit, stats, _ = make_unit(detection_spec())
        unit.load(0, "cold", 0)
        assert stats.replica_transactions == 0

    def test_lazy_demand_ready_is_primary_fill(self):
        """The lazy compare: warp resumes on the first copy, identical
        to an unprotected miss at the same (idle) time."""
        unit_p, _s1, _ = make_unit(detection_spec())
        unit_b, _s2, _ = make_unit()
        ready_p, _ = unit_p.load(0, "hot", 0)
        ready_b, _ = unit_b.load(0, "hot", 0)
        assert ready_p == ready_b

    def test_l1_hit_no_replication(self):
        unit, stats, _ = make_unit(detection_spec())
        ready1, _ = unit.load(0, "hot", 0)
        unit.load(ready1 + 1, "hot", 0)  # L1 hit now
        assert stats.replica_transactions == 1  # only the miss

    def test_compare_queue_fills_and_stalls(self):
        cfg = CFG.scaled(pending_compare_entries=2,
                         l1_mshr_entries=64)
        unit, stats, _ = make_unit(detection_spec(), config=cfg)
        unit.load(0, "hot", 0)
        unit.load(0, "hot", 128)
        _ready, stall = unit.load(0, "hot", 256)
        assert stall is not None
        assert stall > 0
        assert stats.stalls.compare_queue_full == 1


class TestCorrectionReplication:
    def test_two_replicas_issued(self):
        unit, stats, _ = make_unit(correction_spec())
        unit.load(0, "hot", 0)
        assert stats.replica_transactions == 2

    def test_demand_waits_for_all_copies(self):
        unit_c, _s1, _ = make_unit(correction_spec())
        unit_b, _s2, _ = make_unit()
        ready_c, _ = unit_c.load(0, "hot", 0)
        ready_b, _ = unit_b.load(0, "hot", 0)
        # max of three queued transfers + comparator pass > one fill.
        assert ready_c > ready_b

    def test_eager_detection_also_waits(self):
        unit_e, _s1, _ = make_unit(detection_spec(lazy=False))
        unit_l, _s2, _ = make_unit(detection_spec())
        ready_e, _ = unit_e.load(0, "hot", 0)
        ready_l, _ = unit_l.load(0, "hot", 0)
        assert ready_e > ready_l


class TestRetryInvariance:
    """Structural stalls must be side-effect-free: the scheduler
    retries a stalled load, and pre-fix the early L1 probe allocated
    the line on each attempt — the retry then saw a phantom hit and
    never issued the demand miss."""

    def _stalled_unit(self):
        unit, stats, _ = make_unit()
        for i in range(CFG.l1_mshr_entries):
            _ready, stall = unit.load(0, "obj", i * 128)
            assert stall is None
        return unit, stats

    def test_mshr_stall_does_not_touch_l1(self):
        unit, stats = self._stalled_unit()
        accesses_before = unit.l1.stats.accesses
        new_addr = 9999 * 128
        _ready, stall = unit.load(0, "obj", new_addr)
        assert stall is not None
        assert unit.l1.stats.accesses == accesses_before
        # The phantom-hit regression: the stalled miss must not have
        # allocated the line.
        assert not unit.l1.lookup(new_addr)

    def test_retry_after_stall_issues_real_miss(self):
        unit, stats = self._stalled_unit()
        new_addr = 9999 * 128
        _ready, stall = unit.load(0, "obj", new_addr)
        misses_before = stats.demand_misses
        _ready, stall2 = unit.load(stall, "obj", new_addr)
        assert stall2 is None
        assert stats.demand_misses == misses_before + 1

    def test_repeated_stalls_keep_access_count_invariant(self):
        unit, _stats = self._stalled_unit()
        accesses = unit.l1.stats.accesses
        for _ in range(5):
            _ready, stall = unit.load(0, "obj", 9999 * 128)
            assert stall is not None
        assert unit.l1.stats.accesses == accesses

    def test_compare_queue_stall_does_not_touch_l1(self):
        cfg = CFG.scaled(pending_compare_entries=1,
                         l1_mshr_entries=64)
        unit, stats, _ = make_unit(detection_spec(), config=cfg)
        unit.load(0, "hot", 0)
        accesses_before = unit.l1.stats.accesses
        _ready, stall = unit.load(0, "hot", 256)
        assert stall is not None
        assert unit.l1.stats.accesses == accesses_before
        assert not unit.l1.lookup(256)

    def test_merged_miss_never_beats_hit_latency(self):
        """A warp merging into a pending line one cycle before the fill
        still pays the L1 read-port turnaround — data cannot arrive
        faster than a hit issued at the same cycle would deliver it."""
        unit, _stats, _ = make_unit()
        fill, stall = unit.load(0, "obj", 0)
        assert stall is None
        late = fill - 1
        ready, stall = unit.load(late, "obj", 0)
        assert stall is None
        assert ready == late + CFG.l1_hit_latency
        assert ready > fill


class TestTimingProtection:
    def test_baseline_inactive(self):
        assert not TimingProtection.baseline().offsets
