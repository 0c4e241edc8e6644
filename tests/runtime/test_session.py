"""Tests for request-tuple sweep sessions (serial).

Pool-backed execution, crash injection and interrupt/resume
byte-identity live in ``tests/integration/test_sweep_resume.py``;
this file covers the grid/plan/merge machinery and the serial paths.
Every cell is an :class:`EvaluationRequest`, so the grid's validation
is the request's own (plus the session's duplicate and empty checks).
"""

import json

import pytest

from repro.core.manager import ReliabilityManager
from repro.core.request import EvaluationRequest
from repro.errors import (
    CheckpointError,
    ConfigError,
    SessionError,
    SessionInterrupted,
    SpecError,
    UnknownAppError,
    UnknownSchemeError,
)
from repro.faults.campaign import Campaign
from repro.kernels.registry import create_app
from repro.runtime.checkpoint import STORE_VERSION
from repro.runtime.session import (
    DEFAULT_CHUNKS_PER_CELL,
    Session,
    SessionConfig,
    SweepSpec,
    WorkUnit,
)
from repro.utils.canonical import canonical_digest, canonical_json


def small_spec(apps=("A-Laplacian",), schemes=("baseline",),
               protects=("hot",), **overrides) -> SweepSpec:
    kwargs = dict(
        app=apps[0] if apps else "A-Laplacian",
        runs=6,
        chunk_runs=3,
        scale="small",
        seed=77,
        collect_records=True,
    )
    kwargs.update(overrides)
    return SweepSpec(EvaluationRequest(**kwargs), apps=apps,
                     schemes=schemes, protects=protects)


def identity(spec) -> dict:
    return Session(spec).identity()


class TestSweepSpecValidation:
    """The checks every cell's request makes, and the session's own."""

    def test_unknown_app(self):
        with pytest.raises(UnknownAppError):
            Session(small_spec(apps=("A-Laplacian", "NOT-AN-APP")))

    def test_unknown_scheme(self):
        with pytest.raises(UnknownSchemeError):
            tuple(small_spec(schemes=("tmr",)))

    def test_empty_axis(self):
        with pytest.raises(SpecError, match="empty"):
            Session([])

    def test_bad_protect_string(self):
        with pytest.raises(SpecError, match="protect"):
            tuple(small_spec(protects=("warm",)))

    def test_bool_protect_rejected(self):
        with pytest.raises(SpecError, match="protect"):
            tuple(small_spec(protects=(True,)))

    def test_nonpositive_runs(self):
        with pytest.raises(SpecError, match="runs"):
            small_spec(runs=0)

    def test_nonpositive_chunk_runs(self):
        with pytest.raises(SpecError, match="chunk_runs"):
            small_spec(chunk_runs=0)

    def test_unknown_scale(self):
        with pytest.raises(SpecError, match="scale"):
            small_spec(scale="huge")

    def test_duplicate_cells(self):
        with pytest.raises(SpecError, match="duplicate"):
            Session(small_spec(apps=("A-Laplacian", "A-Laplacian")))

    def test_typed_protect_is_one_cell_per_app(self):
        cells = tuple(small_spec(schemes=("baseline", "correction"),
                                 protects=("hot", "r=correction")))
        assert [(c.scheme, c.protect) for c in cells] == [
            ("baseline", "hot"), ("baseline", "r=correction"),
            ("correction", "hot")]
        Session(cells)  # no duplicate identities

    def test_lists_coerced_to_tuples(self):
        spec = small_spec(apps=["A-Laplacian"], protects=["hot", 1])
        session = Session(list(spec))
        assert session.requests == tuple(spec)
        assert [r.protect for r in session.requests] == ["hot", 1]


class TestSweepSpecIdentity:
    def test_chunking_is_part_of_identity(self):
        assert identity(small_spec(chunk_runs=3)) \
            != identity(small_spec(chunk_runs=2))

    def test_default_chunking_resolved_into_identity(self):
        # An explicit chunk_runs equal to the resolved default is the
        # same session as the default spelling.
        resolved = -(-6 // DEFAULT_CHUNKS_PER_CELL)
        assert identity(small_spec(chunk_runs=None)) \
            == identity(small_spec(chunk_runs=resolved))

    def test_default_chunk_count(self):
        session = Session(small_spec(runs=160, chunk_runs=None))
        unit = session.plan()[0]
        assert unit.stop - unit.start == 160 // DEFAULT_CHUNKS_PER_CELL

    def test_cells_enumerate_app_major(self):
        spec = small_spec(schemes=("baseline", "correction"),
                          protects=("hot", "none"))
        assert [(r.app, r.scheme, r.protect) for r in spec] == [
            ("A-Laplacian", "baseline", "hot"),
            ("A-Laplacian", "baseline", "none"),
            ("A-Laplacian", "correction", "hot"),
            ("A-Laplacian", "correction", "none"),
        ]

    def test_each_cell_carries_its_request_identity(self):
        spec = small_spec(schemes=("baseline", "correction"))
        cells = identity(spec)["cells"]
        assert [cell["scheme"] for cell in cells] == \
            ["baseline", "correction"]
        assert all(cell["chunk_runs"] == 3 for cell in cells)
        assert cells[0] == dict(next(iter(spec)).to_dict(), chunk_runs=3)

    def test_manifest_from_before_request_cells_is_a_different_sweep(
            self, tmp_path):
        # The manifest body a SweepSpec with its own identity fields
        # wrote for this grid: resuming it must refuse, not mix.
        old = {
            "apps": ["A-Laplacian"], "schemes": ["baseline"],
            "protects": ["hot"], "runs": 6, "n_blocks": 1, "n_bits": 2,
            "seed": 77, "selection": "access-weighted",
            "scale": "small", "app_seed": 1234, "secded": False,
            "keep_runs": False, "collect_records": True,
            "chunk_runs": 3,
        }
        store = tmp_path / "ckpt"
        store.mkdir()
        (store / "MANIFEST.json").write_text(json.dumps({
            "version": STORE_VERSION, "digest": canonical_digest(old),
            "spec": old}))
        with pytest.raises(CheckpointError, match="different sweep"):
            Session(small_spec(), store=store).run(resume=True)


class TestSessionConfig:
    @pytest.mark.parametrize("kwargs", [
        {"jobs": 0},
        {"max_retries": -1},
        {"retry_backoff_s": -0.1},
        {"chunk_timeout_s": 0},
        {"stop_after_chunks": 0},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(SpecError):
            SessionConfig(**kwargs).validate()


class TestPlanning:
    def test_plan_covers_every_run_once(self):
        session = Session(small_spec(runs=7, chunk_runs=3))
        units = session.plan()
        assert units == [
            WorkUnit(0, 0, 3), WorkUnit(0, 3, 6), WorkUnit(0, 6, 7),
        ]

    def test_plan_is_jobs_independent(self):
        spec = small_spec()
        plan1 = Session(spec, config=SessionConfig(jobs=1)).plan()
        plan8 = Session(spec, config=SessionConfig(jobs=8)).plan()
        assert plan1 == plan8


class TestSerialExecution:
    @pytest.fixture(scope="class")
    def spec(self):
        return small_spec()

    @pytest.fixture(scope="class")
    def reference(self, spec):
        return Session(spec).run()

    def test_matches_direct_campaign_run(self, spec, reference):
        request = next(iter(spec))
        direct = ReliabilityManager(create_app(
            request.app, scale=request.scale, seed=request.app_seed,
        )).evaluate(request=request)
        merged = reference.entries[0].result
        assert merged.to_dict() == direct.to_dict()

    def test_result_for(self, reference):
        result = reference.result_for("A-Laplacian", "baseline", "hot")
        assert result.n_runs == 6
        with pytest.raises(SpecError, match="no sweep cell"):
            reference.result_for("A-Laplacian", "baseline", "none")

    def test_checkpointed_equals_storeless(self, spec, reference,
                                           tmp_path):
        sweep = Session(spec, store=str(tmp_path / "ckpt")).run()
        assert canonical_json(sweep.to_dict()) \
            == canonical_json(reference.to_dict())

    def test_stop_budget_interrupts_then_resumes(self, spec, reference,
                                                 tmp_path):
        store = tmp_path / "ckpt"
        session = Session(spec, store=store,
                          config=SessionConfig(stop_after_chunks=1))
        with pytest.raises(SessionInterrupted) as info:
            session.run()
        assert (info.value.done, info.value.total) == (1, 2)

        resumed = Session(spec, store=store)
        sweep = resumed.run(resume=True)
        assert canonical_json(sweep.to_dict()) \
            == canonical_json(reference.to_dict())
        counters = resumed.metrics.snapshot()["counters"]
        assert counters["session.chunks.resumed"] == 1
        assert counters["session.chunks.executed"] == 1


class TestRetries:
    def test_transient_failure_is_retried(self, monkeypatch):
        sleeps = []
        real = Campaign.run_span
        failures = iter([RuntimeError("flaky"), RuntimeError("flaky")])

        def flaky(self, start, stop):
            for exc in failures:
                raise exc
            return real(self, start, stop)

        monkeypatch.setattr(Campaign, "run_span", flaky)
        session = Session(small_spec(), sleep=sleeps.append,
                          config=SessionConfig(retry_backoff_s=0.5))
        sweep = session.run()
        assert sweep.entries[0].result.n_runs == 6
        counters = session.metrics.snapshot()["counters"]
        assert counters["session.retries"] == 2
        assert sleeps == [0.5, 1.0]  # exponential backoff

    def test_retry_budget_exhausted(self, monkeypatch):
        def broken(self, start, stop):
            raise RuntimeError("hard down")

        monkeypatch.setattr(Campaign, "run_span", broken)
        session = Session(small_spec(), sleep=lambda _s: None,
                          config=SessionConfig(max_retries=1))
        with pytest.raises(SessionError, match="2 attempt"):
            session.run()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_config_error_is_raised_unretried(self, jobs):
        # Protecting a writable object fails every attempt alike.
        sleeps = []
        request = EvaluationRequest(
            app="P-BICG", scheme="detection", protect="s=detection",
            runs=8, scale="small", jobs=jobs)
        session = Session(request, sleep=sleeps.append)
        with pytest.raises(ConfigError,
                           match="cannot protect writable object 's'"):
            session.run()
        counters = session.metrics.snapshot()["counters"]
        assert counters.get("session.retries", 0) == 0
        assert sleeps == []


class TestAdaptiveSweeps:
    """CI-driven early stopping at durable-chunk granularity."""

    def adaptive_spec(self, **overrides):
        return small_spec(runs=96, chunk_runs=16, target_margin=0.2,
                          **overrides)

    def test_target_margin_validation(self):
        with pytest.raises(SpecError, match="target_margin"):
            small_spec(target_margin=0.0)
        with pytest.raises(SpecError, match="target_margin"):
            small_spec(target_margin=1.5)

    def test_identity_gains_key_only_when_enabled(self):
        plain = identity(small_spec())
        assert "target_margin" not in plain["cells"][0]
        adaptive = identity(self.adaptive_spec())
        assert adaptive["cells"][0]["target_margin"] == 0.2
        assert Session(self.adaptive_spec()).digest() \
            != Session(small_spec()).digest()

    def test_each_cell_stops_under_its_own_rule(self):
        # One adaptive and one exhaustive cell in one session.
        requests = [next(iter(self.adaptive_spec())),
                    next(iter(small_spec(runs=96, chunk_runs=16,
                                         schemes=("correction",))))]
        sweep = Session(requests).run()
        adaptive, exhaustive = sweep.entries
        assert adaptive.result.n_runs < 96 and adaptive.decisions
        assert exhaustive.result.n_runs == 96
        assert exhaustive.decisions == ()

    def test_early_stop_commits_a_prefix(self):
        session = Session(self.adaptive_spec())
        sweep = session.run()
        result = sweep.entries[0].result
        assert result.n_runs < 96
        assert result.n_runs % 16 == 0  # stops at a chunk boundary
        counters = session.metrics.snapshot()["counters"]
        assert counters["session.chunks.skipped"] > 0
        # the committed prefix already satisfies the margin
        assert result.sdc_interval().margin <= 0.2

    def test_committed_result_is_jobs_invariant(self):
        serial = Session(self.adaptive_spec()).run()
        pooled = Session(self.adaptive_spec(),
                         config=SessionConfig(jobs=2)).run()
        assert canonical_json(pooled.to_dict()) \
            == canonical_json(serial.to_dict())

    def test_interrupt_and_resume_reach_the_same_stop(self, tmp_path):
        reference = Session(self.adaptive_spec()).run()
        store = tmp_path / "ckpt"
        session = Session(self.adaptive_spec(), store=store,
                          config=SessionConfig(stop_after_chunks=1))
        with pytest.raises(SessionInterrupted):
            session.run()
        resumed = Session(self.adaptive_spec(), store=store).run(
            resume=True)
        assert canonical_json(resumed.to_dict()) \
            == canonical_json(reference.to_dict())
