"""Golden oracle of the timing simulator.

``sim_oracle.json`` pins, byte for byte, what the simulator produced
before any refactor of its hot path:

* ``reports`` — every statistic of the SimReport (the field set of the
  benchmark's cycle oracle) for every application at small scale on
  ``fast_config()``, under baseline, detection-hot, correction-hot and
  correction-all, plus one mixed per-object spec on P-BICG;
* ``geometries`` — the same statistics on two further configurations:
  the paper's Table I GPU (15 SMs, 6 partitions, 128-set L2 slices) on
  P-BICG, and a stall-heavy ``fast_config()`` with 4 MSHRs of 2 merges
  each and a 4-entry compare queue on C-NN and P-ATAX, which drives the
  MSHR-full and compare-queue-full retry paths thousands of times;
* ``traces`` — SHA-256 digests of a traced P-ATAX run's rendered
  Perfetto document, per-object summary and interval samples, at full
  and thinned sampling and with a category filter.  The thinned digests
  pin the order and count of the session's sampling draws.

A change that is meant to alter simulated timing must regenerate the
fixture on purpose::

    PYTHONPATH=src python tests/sim/test_sim_oracle.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.arch.config import PAPER_CONFIG, fast_config
from repro.core.manager import ReliabilityManager
from repro.kernels.registry import (
    APPLICATIONS,
    EXTENDED_APPLICATIONS,
    FLAT_APPLICATIONS,
    create_app,
)
from repro.obs.perfetto import render_chrome_trace
from repro.obs.trace import TraceConfig, TraceSession
from repro.sim.simulator import simulate_app
from repro.utils.canonical import canonical_json

FIXTURE = Path(__file__).with_name("sim_oracle.json")

APPS = (*APPLICATIONS, *FLAT_APPLICATIONS, *EXTENDED_APPLICATIONS)
PROTECTIONS = (
    ("baseline", "none"),
    ("detection", "hot"),
    ("correction", "hot"),
    ("correction", "all"),
)
#: name -> (config, apps, protections) of each extra geometry.
GEOMETRIES = {
    "paper": (PAPER_CONFIG, ("P-BICG",), PROTECTIONS),
    "stall-heavy": (
        fast_config().scaled(l1_mshr_entries=4, l1_mshr_max_merged=2,
                             pending_compare_entries=4),
        ("C-NN", "P-ATAX"),
        (("baseline", "none"), ("detection", "hot"),
         ("correction", "all")),
    ),
}
MIXED_APP = "P-BICG"
MIXED_SPEC = "A=detection,p=detection,r=correction"

#: name -> TraceConfig of each digested trace run.
TRACE_RUNS = {
    "rate-1.0": TraceConfig(max_events=50000, interval_cycles=512),
    "rate-0.25": TraceConfig(max_events=50000, interval_cycles=512,
                             sample_rate=0.25),
    "rate-0.25-warp-l2-dram": TraceConfig(
        max_events=50000, interval_cycles=512, sample_rate=0.25,
        categories=frozenset({"warp", "l2", "dram"}),
    ),
}


def sim_doc(report) -> dict:
    """Every simulated statistic of a SimReport."""
    return {
        "cycles": report.cycles,
        "kernel_cycles": dict(report.kernel_cycles),
        "instructions": report.instructions,
        "demand_misses": report.demand_misses,
        "replica_transactions": report.replica_transactions,
        "store_transactions": report.store_transactions,
        "l1_accesses": report.l1_accesses,
        "l1_hits": report.l1_hits,
        "l2_accesses": report.l2_accesses,
        "l2_hits": report.l2_hits,
        "dram_requests": report.dram_requests,
        "dram_row_hits": report.dram_row_hits,
        "dram_bank_queue_cycles": report.dram_bank_queue_cycles,
        "dram_bus_queue_cycles": report.dram_bus_queue_cycles,
        "stalls": {
            "memory_wait": report.stalls.memory_wait,
            "mshr_full": report.stalls.mshr_full,
            "compare_queue_full": report.stalls.compare_queue_full,
        },
    }


def _manager(app: str, config=None) -> ReliabilityManager:
    # Four C-NN images at small scale take ~10x the other apps together.
    kwargs = {"batch": 1} if app == "C-NN" else {}
    return ReliabilityManager(create_app(app, scale="small", **kwargs),
                              config=config or fast_config())


def report_docs(app: str, config=None,
                protections=PROTECTIONS) -> dict[str, dict]:
    """``"scheme/protect"`` -> sim_doc of every oracle run of ``app``
    (plus the mixed spec on ``fast_config()``)."""
    manager = _manager(app, config)
    docs = {
        f"{scheme}/{protect}":
            sim_doc(manager.simulate_performance(scheme, protect))
        for scheme, protect in protections
    }
    if config is not None:
        return docs
    if app == MIXED_APP:
        docs[MIXED_SPEC] = sim_doc(
            manager.simulate_performance("baseline", MIXED_SPEC))
    return docs


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_digests(tcfg: TraceConfig) -> dict[str, str]:
    """Digests of a traced P-ATAX detection/``A`` run."""
    tracer = TraceSession(tcfg)
    simulate_app(create_app("P-ATAX", scale="small", seed=7),
                 config=fast_config(), scheme_name="detection",
                 protected_names=("A",), tracer=tracer)
    return {
        "chrome_trace": _sha256(render_chrome_trace(tracer)),
        "object_summary": _sha256(canonical_json(tracer.object_summary())),
        "samples": _sha256(canonical_json(tracer.samples)),
    }


def _oracle() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("app", APPS)
def test_sim_reports_match_oracle(app):
    assert report_docs(app) == _oracle()["reports"][app]


def geometry_docs(name: str) -> dict[str, dict]:
    """app -> report_docs of every app of extra geometry ``name``."""
    config, apps, protections = GEOMETRIES[name]
    return {app: report_docs(app, config, protections) for app in apps}


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_geometry_reports_match_oracle(name):
    assert geometry_docs(name) == _oracle()["geometries"][name]


@pytest.mark.parametrize("run", sorted(TRACE_RUNS))
def test_trace_digests_match_oracle(run):
    assert trace_digests(TRACE_RUNS[run]) == _oracle()["traces"][run]


def test_oracle_covers_every_app():
    assert sorted(_oracle()["reports"]) == sorted(APPS)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({
        "reports": {app: report_docs(app) for app in APPS},
        "geometries": {name: geometry_docs(name) for name in GEOMETRIES},
        "traces": {run: trace_digests(tcfg)
                   for run, tcfg in TRACE_RUNS.items()},
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
