"""Tests for the instrumented (traced) timing simulation.

The central invariants: attaching a tracer must not perturb the
simulation's results, the recorded events must follow the track/
category scheme and validate as a Perfetto document, attribution must
follow the request context down to DRAM (replica traffic included),
and the interval series must be deterministic and independent of the
campaign's ``jobs`` setting.
"""

import pytest

from repro.core.protection import ProtectionSpec
from repro.kernels.registry import create_app
from repro.obs.perfetto import render_chrome_trace, validate_trace_events, chrome_trace
from repro.obs.trace import (
    PID_TIMELINE,
    TraceConfig,
    TraceSession,
    UNATTRIBUTED,
)
from repro.sim.simulator import simulate_app


def _traced_run(protection=ProtectionSpec.parse("A=detection"), seed=7,
                tcfg=None, test_config=None):
    app = create_app("P-ATAX", scale="small", seed=seed)
    tracer = TraceSession(tcfg or TraceConfig(max_events=50000,
                                              interval_cycles=512))
    report = simulate_app(app, config=test_config, protection=protection,
                          tracer=tracer)
    return report, tracer


class TestNonPerturbation:
    @pytest.mark.parametrize("protect,sample_rate", [
        ("none", 1.0),
        ("A=detection", 1.0),
        ("A=correction,x=correction", 1.0),
        ("A=detection,x=correction", 1.0),
        ("A=detection", 0.25),
    ], ids=["baseline-protect0", "detection-protect1",
            "correction-protect2", "mixed-protect3",
            "detection-protect4-sampled"])
    def test_traced_report_equals_untraced(self, test_config, protect,
                                           sample_rate):
        app = create_app("P-ATAX", scale="small", seed=7)
        protection = ProtectionSpec.parse(protect)
        untraced = simulate_app(app, config=test_config,
                                protection=protection)
        tcfg = TraceConfig(max_events=50000, interval_cycles=512,
                           sample_rate=sample_rate)
        traced, _ = _traced_run(protection, tcfg=tcfg,
                                test_config=test_config)
        assert traced == untraced

    def test_tracing_is_per_instance(self, test_config):
        """A traced run must not leak hooks into later untraced ones."""
        app = create_app("P-ATAX", scale="small", seed=7)
        before = simulate_app(app, config=test_config)
        _traced_run(ProtectionSpec.baseline(), test_config=test_config)
        after = simulate_app(app, config=test_config)
        assert before == after


class TestEventContent:
    def test_document_validates(self, test_config):
        _, tracer = _traced_run(test_config=test_config)
        assert validate_trace_events(chrome_trace(tracer)) > 0

    def test_kernel_spans_tile_the_run(self, test_config):
        report, tracer = _traced_run(test_config=test_config)
        kernels = [e for e in tracer.events if e.cat == "kernel"]
        assert kernels, "no kernel spans recorded"
        assert all(e.pid == PID_TIMELINE for e in kernels)
        assert sum(e.dur for e in kernels) == report.cycles
        assert set(report.kernel_cycles) == {e.name for e in kernels}

    def test_all_expected_categories_present(self, test_config):
        _, tracer = _traced_run(test_config=test_config)
        cats = {e.cat for e in tracer.events}
        assert {"kernel", "warp", "cache", "l2", "dram",
                "noc", "mshr"} <= cats

    def test_spans_have_nonnegative_durations(self, test_config):
        _, tracer = _traced_run(test_config=test_config)
        assert all(e.dur >= 0 for e in tracer.events if e.ph == "X")
        assert all(e.ts >= 0 for e in tracer.events)


class TestAttribution:
    def test_replica_traffic_attributed_to_owner(self, test_config):
        """Replica reads land outside every object's address span, so
        only the request context can attribute them — protected objects
        must show more L2 traffic than their primary misses alone."""
        _, tracer = _traced_run(test_config=test_config)
        stats = tracer.object_stats["A"]
        assert stats.l2_accesses > stats.l1_misses
        assert stats.dram_reads > 0
        assert stats.read_bytes > 0
        # Nothing in a pure demand-read run should be unattributable.
        dram_events = [e for e in tracer.events if e.cat == "dram"]
        assert dram_events
        assert all(e.obj != UNATTRIBUTED for e in dram_events)

    def test_store_only_objects_see_l2_writes(self, test_config):
        _, tracer = _traced_run(ProtectionSpec.baseline(),
                                test_config=test_config)
        # P-ATAX writes y (the output vector) but never reads it.
        stats = tracer.object_stats["y"]
        assert stats.loads == 0
        assert stats.l2_accesses > 0


class TestIntervalSeries:
    def test_sampling_cadence_and_fields(self, test_config):
        report, tracer = _traced_run(test_config=test_config)
        assert tracer.samples, "no interval samples recorded"
        interval = tracer.config.interval_cycles
        for sample in tracer.samples:
            assert 0 < sample["cycle"] <= report.cycles
            assert sample["ipc"] >= 0.0
            assert 0.0 <= sample["row_hit_rate"] <= 1.0
            assert sample["mshr_occupancy"] >= 0
        # Boundary samples land on multiples of the interval; kernel
        # barriers may add one trailing partial sample each.
        aligned = [s for s in tracer.samples
                   if s["cycle"] % interval == 0]
        assert len(aligned) >= len(tracer.samples) // 2

    def test_deterministic_across_runs(self, test_config):
        _, a = _traced_run(test_config=test_config)
        _, b = _traced_run(test_config=test_config)
        assert a.samples == b.samples
        assert render_chrome_trace(a) == render_chrome_trace(b)

    def test_sample_rate_thins_events_not_series(self, test_config):
        full_cfg = TraceConfig(max_events=50000, interval_cycles=512,
                               sample_rate=1.0)
        thin_cfg = TraceConfig(max_events=50000, interval_cycles=512,
                               sample_rate=0.1)
        _, full = _traced_run(tcfg=full_cfg, test_config=test_config)
        _, thin = _traced_run(tcfg=thin_cfg, test_config=test_config)
        assert thin.emitted < full.emitted
        # The interval series is structural, never sampled away.
        assert [s["cycle"] for s in thin.samples] == \
            [s["cycle"] for s in full.samples]
        assert thin.samples == full.samples
