"""Live progress events: math, rendering, and the no-overhead pact.

Two halves: the :class:`~repro.obs.progress.ProgressEvent` value type
(fractions, rates, ETA, wire dict, TTY rendering) and the driver
integration — progress observes chunk boundaries without perturbing
results, and a disabled sink (``progress=None``) takes the exact
pre-progress code path (structurally asserted, not just timed).
"""

from __future__ import annotations

import io

import pytest

from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.selection import uniform_selection
from repro.kernels.registry import create_app
from repro.obs.progress import (
    PROGRESS_EVENT_VERSION,
    ProgressEvent,
    TtyProgress,
)


def make_campaign(runs=24, progress=None, batch=1, jobs=1):
    app = create_app("A-Laplacian", scale="small")
    memory = app.fresh_memory()
    pool = [a for o in memory.objects for a in o.block_addrs()]
    return Campaign(
        app,
        uniform_selection(pool),
        scheme="baseline",
        protect=(),
        config=CampaignConfig(runs=runs, seed=77),
        collect_records=True,
        batch=batch,
        jobs=jobs,
        progress=progress,
    )


class TestProgressEvent:
    def test_fraction_rate_eta(self):
        event = ProgressEvent(phase="campaign", done=50, total=200,
                              elapsed_s=5.0)
        assert event.fraction == 0.25
        assert event.runs_per_sec == 10.0
        assert event.eta_s == 15.0

    def test_eta_none_when_done_or_stalled(self):
        done = ProgressEvent(phase="campaign", done=8, total=8,
                             elapsed_s=1.0)
        assert done.eta_s is None
        stalled = ProgressEvent(phase="campaign", done=0, total=8,
                                elapsed_s=1.0)
        assert stalled.eta_s is None

    def test_zero_total_fraction(self):
        event = ProgressEvent(phase="campaign", done=0, total=0,
                              elapsed_s=0.0)
        assert event.fraction == 0.0

    def test_to_dict_wire_shape(self):
        event = ProgressEvent(phase="adaptive", done=64, total=512,
                              elapsed_s=2.0, margin=0.041)
        data = event.to_dict()
        assert data["version"] == PROGRESS_EVENT_VERSION
        assert data["phase"] == "adaptive"
        assert data["done"] == 64
        assert data["margin"] == 0.041
        assert data["runs_per_sec"] == 32.0

    def test_render_mentions_the_essentials(self):
        event = ProgressEvent(phase="sweep", done=10, total=40,
                              elapsed_s=1.0,
                              cell="A-Laplacian~correction~hot",
                              margin=0.05)
        text = event.render()
        assert "A-Laplacian~correction~hot" in text
        assert "10/40" in text
        assert "25.0%" in text
        assert "margin" in text

    def test_events_are_frozen(self):
        event = ProgressEvent(phase="campaign", done=1, total=2,
                              elapsed_s=0.1)
        with pytest.raises(AttributeError):
            event.done = 2


class TestTtyProgress:
    def test_pipe_mode_writes_line_per_event(self):
        stream = io.StringIO()
        with TtyProgress(stream=stream) as sink:
            sink(ProgressEvent(phase="campaign", done=4, total=8,
                               elapsed_s=1.0))
            sink(ProgressEvent(phase="campaign", done=8, total=8,
                               elapsed_s=2.0))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert sink.n_events == 2
        assert "8/8" in lines[1]

    def test_close_is_idempotent(self):
        sink = TtyProgress(stream=io.StringIO())
        sink.close()
        sink.close()


class TestCampaignProgress:
    def test_serial_progress_monotonic_and_complete(self):
        events = []
        result = make_campaign(runs=24, progress=events.append).run()
        assert result.n_runs == 24
        assert events, "chunked serial path must emit events"
        dones = [e.done for e in events]
        assert dones == sorted(dones)
        assert dones[-1] == 24
        assert all(e.total == 24 for e in events)
        assert all(e.phase == "campaign" for e in events)

    def test_progress_never_perturbs_results(self, tmp_path):
        from repro.obs.records import TelemetryWriter

        streams = []
        for progress in (None, lambda e: None):
            result = make_campaign(runs=24, progress=progress).run()
            path = tmp_path / f"t{len(streams)}.jsonl"
            with TelemetryWriter(str(path)) as writer:
                writer.write_result(result)
            streams.append(path.read_bytes())
        assert streams[0] == streams[1]

    def test_disabled_path_is_single_span(self, monkeypatch):
        """progress=None + jobs=1 must run one unchunked span —
        the exact pre-progress code path."""
        campaign = make_campaign(runs=24, progress=None)
        calls = []
        original = Campaign.run_span

        def spy(self, start, stop):
            calls.append((start, stop))
            return original(self, start, stop)

        monkeypatch.setattr(Campaign, "run_span", spy)
        campaign.run(jobs=1)
        assert calls == [(0, 24)]

    def test_parallel_progress_reaches_total(self):
        events = []
        campaign = make_campaign(runs=24, jobs=2,
                                 progress=events.append)
        result = campaign.run()
        assert result.n_runs == 24
        assert events and events[-1].done == 24

    def test_progress_kwarg_routes_through_run(self):
        events = []
        result = make_campaign(runs=16, progress=events.append).run()
        assert result.n_runs == 16
        assert events[-1].done == 16


class TestAdaptiveProgress:
    def test_adaptive_events_carry_margin(self):
        from repro.faults.adaptive import AdaptiveConfig

        events = []
        campaign = make_campaign(runs=32, progress=events.append)
        adaptive = campaign.run_adaptive(
            config=AdaptiveConfig(target_margin=0.2, check_every=8))
        assert adaptive.result.n_runs >= 8
        assert events, "adaptive path must emit events"
        assert all(e.phase == "adaptive" for e in events)
        assert all(e.margin is not None for e in events)
        assert events[-1].done == adaptive.stopped_at


class TestSweepProgress:
    def test_sweep_progress_and_session_mirror(self, tmp_path):
        from repro.obs.session import SessionLog, read_session_events
        from repro.core.request import EvaluationRequest
        from repro.runtime.session import Session

        spec = EvaluationRequest(
            app="A-Laplacian", scheme="baseline", protect="hot", runs=8,
            scale="small", chunk_runs=4, collect_records=True)
        log_path = tmp_path / "session.jsonl"
        events = SessionLog(str(log_path))
        seen = []
        session = Session(spec, events=events, progress=seen.append)
        sweep = session.run()
        events.close()
        assert sweep.results
        assert seen and seen[-1].done == 8
        assert all(e.phase == "sweep" for e in seen)
        assert all(e.cell for e in seen)
        mirrored = [e for e in read_session_events(str(log_path))
                    if e["kind"] == "progress"]
        assert len(mirrored) == len(seen)
        assert all("done=" in e["detail"] for e in mirrored)

    def test_sweep_results_identical_with_progress(self):
        from repro.core.request import EvaluationRequest
        from repro.runtime.session import Session

        spec = EvaluationRequest(
            app="A-Laplacian", scheme="baseline", protect="hot", runs=8,
            scale="small", chunk_runs=4, collect_records=True)
        quiet = Session(spec).run()
        loud = Session(spec, progress=lambda e: None).run()
        assert quiet.to_dict() == loud.to_dict()
