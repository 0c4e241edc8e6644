"""End-to-end sweep guarantees: byte-identity across parallelism,
worker failures, and interrupt/resume cycles.

The contract under test: a sweep's merged results and telemetry are a
pure function of its cell requests — the same bytes at any
``jobs`` setting, after any number of worker crashes within the retry
budget, and across any interrupt/resume split.
"""

import multiprocessing as mp
import os
import time

import pytest

import repro.runtime.executor as executor_mod
from repro.core.request import EvaluationRequest
from repro.errors import SessionInterrupted
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.session import Session, SessionConfig, SweepSpec
from repro.utils.canonical import canonical_json

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="worker tests pin the fork start method",
)

SPEC = tuple(SweepSpec(
    EvaluationRequest(app="A-Laplacian", runs=6, chunk_runs=3,
                      scale="small", seed=77, collect_records=True),
    schemes=("baseline", "correction"),
))


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted serial sweep every variant must reproduce."""
    sweep = Session(SPEC).run()
    return canonical_json(sweep.to_dict())


def telemetry_bytes(sweep, path) -> bytes:
    sweep.write_telemetry(str(path))
    return path.read_bytes()


def pool_config(**overrides) -> SessionConfig:
    kwargs = dict(jobs=4, start_method="fork")
    kwargs.update(overrides)
    return SessionConfig(**kwargs)


@pytest.fixture()
def chaos(monkeypatch):
    """Install a worker-side chaos hook (inherited by forked workers)."""
    def install(hook):
        monkeypatch.setattr(executor_mod, "_chaos_hook", hook)
    yield install


def fail_once(marker: str, exc_factory):
    """A hook that misbehaves exactly once across all workers."""
    def hook(_token, _span):
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        raise exc_factory()
    return hook


@needs_fork
class TestParallelIdentity:
    def test_jobs_4_matches_serial(self, reference, tmp_path):
        sweep = Session(SPEC, config=pool_config()).run()
        assert canonical_json(sweep.to_dict()) == reference

    def test_telemetry_identical_across_jobs(self, tmp_path):
        serial = Session(SPEC).run()
        parallel = Session(SPEC, config=pool_config()).run()
        assert telemetry_bytes(serial, tmp_path / "serial.jsonl") \
            == telemetry_bytes(parallel, tmp_path / "parallel.jsonl")


@needs_fork
class TestWorkerFailures:
    def test_worker_exception_is_retried(self, reference, tmp_path,
                                         chaos):
        chaos(fail_once(str(tmp_path / "marker"),
                        lambda: RuntimeError("injected worker fault")))
        session = Session(SPEC, config=pool_config(),
                          sleep=lambda _s: None)
        sweep = session.run()
        assert canonical_json(sweep.to_dict()) == reference
        counters = session.metrics.snapshot()["counters"]
        assert counters["session.retries"] == 1

    def test_worker_death_restarts_pool(self, reference, tmp_path,
                                        chaos):
        def die():
            os._exit(13)

        chaos(fail_once(str(tmp_path / "marker"), die))
        session = Session(SPEC, config=pool_config(),
                          sleep=lambda _s: None)
        sweep = session.run()
        assert canonical_json(sweep.to_dict()) == reference
        counters = session.metrics.snapshot()["counters"]
        assert counters["session.pool_restarts"] >= 1

    def test_chunk_timeout_reruns_elsewhere(self, reference, tmp_path,
                                            chaos):
        def hook(_token, _span):
            try:
                fd = os.open(str(tmp_path / "marker"),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return
            os.close(fd)
            time.sleep(3.0)

        chaos(hook)
        session = Session(
            SPEC, config=pool_config(chunk_timeout_s=1.0),
            sleep=lambda _s: None,
        )
        sweep = session.run()
        assert canonical_json(sweep.to_dict()) == reference
        counters = session.metrics.snapshot()["counters"]
        assert counters["session.timeouts"] >= 1


class TestInterruptResume:
    @pytest.mark.parametrize("resume_jobs", [
        1,
        pytest.param(4, marks=needs_fork),
    ])
    def test_budget_stop_then_resume(self, reference, tmp_path,
                                     resume_jobs):
        store = tmp_path / "ckpt"
        first = Session(SPEC, store=store,
                        config=SessionConfig(stop_after_chunks=2))
        with pytest.raises(SessionInterrupted) as info:
            first.run()
        assert info.value.done == 2
        assert info.value.total == 4

        config = SessionConfig(jobs=resume_jobs,
                               start_method="fork"
                               if resume_jobs > 1 else None)
        resumed = Session(SPEC, store=store, config=config)
        sweep = resumed.run(resume=True)
        assert canonical_json(sweep.to_dict()) == reference
        counters = resumed.metrics.snapshot()["counters"]
        assert counters["session.chunks.resumed"] == 2
        assert counters["session.chunks.executed"] == 2

    def test_sigint_mid_sweep_then_resume(self, reference, tmp_path,
                                          monkeypatch):
        store = CheckpointStore(tmp_path / "ckpt")
        saves = []
        real = CheckpointStore.save_chunk

        def interrupted_save(self, cell, start, stop, payload):
            if len(saves) == 2:
                raise KeyboardInterrupt
            saves.append((start, stop))
            return real(self, cell, start, stop, payload)

        monkeypatch.setattr(CheckpointStore, "save_chunk",
                            interrupted_save)
        with pytest.raises(SessionInterrupted) as info:
            Session(SPEC, store=store).run()
        assert info.value.reason == "interrupted"
        monkeypatch.setattr(CheckpointStore, "save_chunk", real)

        sweep = Session(SPEC, store=store).run(resume=True)
        assert canonical_json(sweep.to_dict()) == reference

    def test_telemetry_identical_after_resume(self, tmp_path):
        uninterrupted = Session(SPEC).run()
        store = tmp_path / "ckpt"
        with pytest.raises(SessionInterrupted):
            Session(SPEC, store=store,
                    config=SessionConfig(stop_after_chunks=3)).run()
        resumed = Session(SPEC, store=store).run(resume=True)
        assert telemetry_bytes(uninterrupted, tmp_path / "a.jsonl") \
            == telemetry_bytes(resumed, tmp_path / "b.jsonl")
