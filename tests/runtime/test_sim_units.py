"""Timing simulations as persisted units of the execution core.

A :class:`SimUnit` runs beside a session's campaign chunks, and its
:class:`~repro.sim.metrics.SimReport` is stored under the unit's
digest.  A report loaded from the store must equal a freshly
simulated one, defective stored reports must raise
:class:`CheckpointError` like chunks do, and a resumed session must
load its reports instead of simulating again.
"""

import json

import pytest

from repro.arch.config import PAPER_CONFIG
from repro.core.hardware import HardwareBudget
from repro.core.manager import ReliabilityManager
from repro.core.protection import ProtectionSpec
from repro.errors import CheckpointError, SessionInterrupted
from repro.kernels.registry import create_app
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.executor import SimUnit
from repro.core.request import EvaluationRequest
from repro.runtime.session import Session, SessionConfig
from repro.sim.metrics import SimReport
from repro.utils.canonical import canonical_json

APP = "P-BICG"
SPECS = {
    "baseline": ProtectionSpec.baseline(),
    "uniform": ProtectionSpec.uniform("detection", ("p", "r")),
    "mixed": ProtectionSpec.parse("A=detection,p=correction"),
}


def unit(spec: ProtectionSpec) -> SimUnit:
    return SimUnit(app=create_app(APP, scale="small", seed=1234),
                   config=PAPER_CONFIG,
                   budget=HardwareBudget.from_config(PAPER_CONFIG),
                   protection=spec)


def sweep_spec() -> EvaluationRequest:
    return EvaluationRequest(app="A-Laplacian", scheme="baseline",
                             protect="none", runs=6, chunk_runs=3,
                             scale="small", seed=5, collect_records=True)


@pytest.fixture(scope="module")
def fresh():
    """Reports of a plain manager (no app context, no store)."""
    manager = ReliabilityManager(create_app(APP, scale="small"))
    return {name: manager.simulate_performance("baseline", spec)
            for name, spec in SPECS.items()}


class TestSimReportImage:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_stored_then_loaded_equals_fresh(self, name, fresh,
                                             tmp_path):
        store = CheckpointStore(tmp_path)
        sim = unit(SPECS[name])
        store.save_report(sim.digest, sim.run().to_dict())
        loaded = SimReport.from_dict(store.load_report(sim.digest))
        assert loaded == fresh[name]
        assert list(loaded.kernel_cycles) == \
            list(fresh[name].kernel_cycles)

    def test_image_is_canonical_json(self, fresh):
        doc = fresh["mixed"].to_dict()
        assert json.loads(canonical_json(doc)) == doc


class TestSimUnitIdentity:
    def test_digest_covers_every_input(self):
        base = unit(SPECS["baseline"])
        variants = [
            unit(SPECS["mixed"]),
            SimUnit(**{**vars(base), "app": create_app(APP)}),
            SimUnit(**{**vars(base),
                       "app": create_app(APP, scale="small", seed=7)}),
            SimUnit(**{**vars(base),
                       "config": PAPER_CONFIG.scaled(l1_mshr_entries=4)}),
            SimUnit(**{**vars(base),
                       "budget": HardwareBudget(addr_table_bytes=64)}),
        ]
        digests = {base.digest} | {v.digest for v in variants}
        assert len(digests) == 1 + len(variants)

    def test_digest_is_stable(self):
        assert unit(SPECS["uniform"]).digest == \
            unit(ProtectionSpec.uniform("detection", ("r", "p"))).digest


class TestStoredReportDefects:
    def test_missing_report_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load_report("f" * 64) is None

    def test_corrupt_report_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        sim = unit(SPECS["baseline"])
        path = store.save_report(sim.digest, {"cycles": 1})
        doc = json.loads(path.read_text())
        doc["payload"]["cycles"] = 2
        path.write_text(canonical_json(doc))
        with pytest.raises(CheckpointError, match="corrupt report"):
            store.load_report(sim.digest)

    def test_foreign_report_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        mine, other = unit(SPECS["baseline"]), unit(SPECS["mixed"])
        path = store.save_report(other.digest, {"cycles": 1})
        store.report_path(mine.digest).write_bytes(path.read_bytes())
        with pytest.raises(CheckpointError, match="labeled"):
            store.load_report(mine.digest)

    def test_torn_report_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save_report("a" * 64, {"cycles": 1})
        path.write_text(path.read_text()[:20])
        with pytest.raises(CheckpointError, match="unreadable"):
            store.load_report("a" * 64)


class TestSessionSimulations:
    @pytest.fixture(scope="class")
    def sims(self):
        return [unit(SPECS["baseline"]), unit(SPECS["uniform"])]

    def test_reports_identical_across_jobs(self, sims, fresh):
        serial = Session(sweep_spec(), sims=sims).run()
        pooled = Session(sweep_spec(), sims=sims,
                         config=SessionConfig(jobs=2)).run()
        assert serial.reports == pooled.reports
        assert serial.reports[sims[1].digest] == fresh["uniform"]
        assert serial.to_dict() == pooled.to_dict()

    def test_resume_loads_reports(self, sims, tmp_path, monkeypatch):
        store = tmp_path / "ckpt"
        first = Session(sweep_spec(), store=store, sims=sims)
        cold = first.run()
        assert first.metrics.counter(
            "session.simulations.executed").value == 2

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a stored report was re-simulated")

        monkeypatch.setattr(ReliabilityManager, "simulate_performance",
                            forbidden)
        again = Session(sweep_spec(), store=store, sims=sims)
        warm = again.run(resume=True)
        assert warm.reports == cold.reports
        counters = again.metrics.counter
        assert counters("session.simulations.loaded").value == 2
        assert counters("session.simulations.executed").value == 0
        # Simulations are not chunks.
        assert counters("session.chunks.resumed").value == 2

    def test_corrupt_stored_report_stops_the_resume(self, sims,
                                                    tmp_path):
        store = tmp_path / "ckpt"
        Session(sweep_spec(), store=store, sims=sims).run()
        path = CheckpointStore(store).report_path(sims[0].digest)
        doc = json.loads(path.read_text())
        doc["payload"]["cycles"] += 1
        path.write_text(canonical_json(doc))
        with pytest.raises(CheckpointError, match="corrupt report"):
            Session(sweep_spec(), store=store, sims=sims).run(resume=True)

    def test_chunk_budget_counts_chunks_only(self, sims, tmp_path):
        store = tmp_path / "ckpt"
        session = Session(sweep_spec(), store=store, sims=sims,
                          config=SessionConfig(stop_after_chunks=1))
        with pytest.raises(SessionInterrupted) as info:
            session.run()
        assert (info.value.done, info.value.total) == (1, 2)
        # Serial units run simulations first, so both are stored.
        assert session.metrics.counter(
            "session.simulations.executed").value == 2
        resumed = Session(sweep_spec(), store=store, sims=sims)
        resumed.run(resume=True)
        assert resumed.metrics.counter(
            "session.simulations.loaded").value == 2
        assert resumed.metrics.counter(
            "session.chunks.executed").value == 1
