"""Determinism regression: batched campaigns ≡ the per-run path.

The batched engine (:mod:`repro.faults.batch`), the one loop a
campaign's spans run, is an execution strategy, not a semantic variant
— for any (app, scheme, protect, seed, runs) cell it must produce the
same outcome tallies and byte-identical RunRecord JSONL as ``run_one``
per index at every batch size and worker count.  These tests pin that contract on an analytic-heavy
cell (read-only protected objects), cells with writable-object faults
that force the real-execution fallback, mixed per-object schemes and
SECDED-filtered campaigns.
"""

from __future__ import annotations

import pytest

from repro.core.protection import ProtectionSpec
from repro.faults.batch import BatchEngine
from repro.faults.campaign import Campaign, CampaignConfig, CampaignResult
from repro.faults.injector import (
    apply_faults,
    apply_faults_merged,
    merge_fault_masks,
)
from repro.faults.selection import uniform_selection
from repro.kernels.registry import create_app


def make_campaign(app_name, scheme, protect, runs=24, batch=None, jobs=1,
                  seed=20210621, n_bits=2, secded=False):
    """``scheme`` ``"mixed"`` takes ``protect`` as an explicit
    ``object=scheme`` spec string; ``batch=None`` keeps the campaign's
    default."""
    app = create_app(app_name, scale="small")
    memory = app.fresh_memory()
    pool = [a for o in memory.objects for a in o.block_addrs()]
    if scheme == "mixed":
        how = {"protection": ProtectionSpec.parse(protect)}
    else:
        how = {"scheme": scheme, "protect": protect}
    return Campaign(
        app,
        uniform_selection(pool),
        **how,
        config=CampaignConfig(runs=runs, n_blocks=2, n_bits=n_bits,
                              seed=seed, secded=secded),
        keep_runs=True,
        collect_records=True,
        jobs=jobs,
        **({} if batch is None else {"batch": batch}),
    )


def records_jsonl(result) -> str:
    return "\n".join(r.to_json() for r in result.records)


def run_serial(campaign) -> CampaignResult:
    """Every run of ``campaign`` through ``run_one``, index by index:
    the per-run path the engine is checked against."""
    result = CampaignResult(
        app_name=campaign.app.name, scheme_name=campaign.scheme_name,
        selection_name=campaign.selection.name, config=campaign.config)
    provenance = result.provenance if campaign.collect_provenance else None
    for run_index in range(campaign.config.runs):
        run = campaign.run_one(run_index, record_sink=result.records,
                               provenance_sink=provenance)
        result.counts[run.outcome] += 1
        result.runs.append(run)
    return result


CELLS = [
    # Analytic-heavy: read-only protected inputs.
    ("P-BICG", "detection", ("A",)),
    ("P-BICG", "correction", ("A", "r")),
    # Writable outputs in the pool force exec-lane fallback paths.
    ("P-ATAX", "detection", ("A", "x")),
    ("P-GESUMMV", "correction", ("A", "B")),
    ("P-MVT", "correction", ("y1", "y2")),
    # Mixed per-object schemes; P-ATAX's writable tmp/y force exec
    # lanes.
    ("P-BICG", "mixed", "r=detection,p=correction"),
    ("P-ATAX", "mixed", "A=correction,x=detection"),
    # SECDED-filtered baseline at 2 and 3 stuck bits.
    ("P-BICG", "secded", 2),
    ("P-BICG", "secded", 3),
]


def cell_campaign(app_name, scheme, protect, **kwargs):
    """The campaign of one ``CELLS`` entry."""
    if scheme == "secded":
        return make_campaign(app_name, "baseline", (), n_bits=protect,
                             secded=True, **kwargs)
    return make_campaign(app_name, scheme, protect, **kwargs)


class TestBatchedEqualsSerial:
    @pytest.mark.parametrize("app_name,scheme,protect", CELLS)
    @pytest.mark.parametrize("batch", [8, 64])
    def test_batch_sizes_match_serial(self, app_name, scheme, protect,
                                      batch):
        serial = run_serial(cell_campaign(app_name, scheme, protect))
        batched = cell_campaign(
            app_name, scheme, protect, batch=batch
        ).run()
        assert batched.counts == serial.counts
        assert [r.outcome for r in batched.runs] \
            == [r.outcome for r in serial.runs]
        assert records_jsonl(batched) == records_jsonl(serial)

    @pytest.mark.parametrize("app_name,scheme,protect", CELLS)
    @pytest.mark.parametrize("batch", [8, 64])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_spec_runs_batched(self, app_name, scheme, protect,
                                     batch, jobs):
        """Every protection spec takes the batched engine — no scalar
        fallback — and matches both ``run_one`` per index and the
        deep-copy reference flow record for record."""
        serial = run_serial(cell_campaign(app_name, scheme, protect))
        reference = cell_campaign(app_name, scheme, protect)
        sink = []
        for i in range(reference.config.runs):
            reference._run_reference(i, record_sink=sink)
        campaign = cell_campaign(app_name, scheme, protect, batch=batch,
                                 jobs=jobs)
        batched = campaign.run()
        assert records_jsonl(batched) == records_jsonl(serial)
        assert records_jsonl(batched) == "\n".join(
            r.to_json() for r in sink)
        counters = batched.metrics_snapshot["counters"]
        analytic = counters.get("campaign.batch.analytic_lanes", 0)
        assert analytic + counters.get("campaign.batch.exec_lanes", 0) \
            == batched.n_runs
        # SECDED lanes never take the analytic classifier (the kernel
        # sees post-decode data); mixed lanes do.
        if scheme == "secded":
            assert analytic == 0
        elif scheme == "mixed":
            assert analytic > 0

    def test_batch_of_one_is_identity(self):
        serial = run_serial(make_campaign("P-BICG", "detection", ("A",)))
        batched = make_campaign(
            "P-BICG", "detection", ("A",), batch=1
        ).run()
        assert records_jsonl(batched) == records_jsonl(serial)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_parallel_batched_matches_serial(self, jobs):
        serial = run_serial(make_campaign("P-BICG", "detection", ("A",)))
        batched = make_campaign(
            "P-BICG", "detection", ("A",), batch=8, jobs=jobs
        ).run()
        assert batched.counts == serial.counts
        assert records_jsonl(batched) == records_jsonl(serial)

    def test_default_batch_runs_the_engine(self):
        """A campaign that names no batch sweeps through the engine,
        so an analytic-heavy cell classifies lanes without executing
        them."""
        result = make_campaign("P-BICG", "detection", ("A",)).run()
        counters = result.metrics_snapshot["counters"]
        assert counters["campaign.batch.analytic_lanes"] > 0
        serial = run_serial(make_campaign("P-BICG", "detection", ("A",)))
        assert records_jsonl(result) == records_jsonl(serial)


class TestExecutedLanes:
    """Lanes the classifier declines run one at a time through the
    campaign's own lane pipeline."""

    def test_one_executing_lane_at_a_time(self, monkeypatch):
        """Each exec lane's clone is executed before the next clone is
        made: a batch never holds more than one lane's memory."""
        campaign = make_campaign("P-ATAX", "detection", ("A", "x"),
                                 runs=64, batch=64)
        campaign._golden_evidence()
        events = []
        run_memory, execute = campaign._run_memory, campaign.app.execute

        def cloned():
            events.append("clone")
            return run_memory()

        def executed(memory, reader):
            events.append("execute")
            return execute(memory, reader)

        monkeypatch.setattr(campaign, "_run_memory", cloned)
        monkeypatch.setattr(campaign.app, "execute", executed)
        campaign.run_batch(0, 64)
        # Writable tmp/y in the fault pool force executed lanes.
        assert events.count("execute") > 1
        assert events == ["clone", "execute"] * events.count("execute")

    def test_run_ms_is_per_lane(self):
        """One 64-lane batch of analytic and executed lanes records
        each lane's own latency, not the batch mean."""
        result = make_campaign("P-ATAX", "detection", ("A", "x"),
                               runs=64, batch=64).run()
        counters = result.metrics_snapshot["counters"]
        assert counters["campaign.batch.analytic_lanes"] > 0
        assert counters["campaign.batch.exec_lanes"] > 0
        run_ms = [
            h for name, h in result.metrics_snapshot["histograms"].items()
            if name.startswith("campaign.run_ms.")
        ]
        assert sum(h["count"] for h in run_ms) == 64
        assert len({h[edge] for h in run_ms
                    for edge in ("vmin", "vmax")}) > 1


class TestPlanningEquivalence:
    def test_fast_plan_matches_reference(self):
        campaign = make_campaign("P-BICG", "detection", ("A",))
        engine = BatchEngine(campaign)
        campaign._golden_evidence()
        fast = engine._plan(0, 16)
        reference = [campaign._plan(i) for i in range(16)]
        assert [(l.run_index, l.seed, l.faults) for l in fast] \
            == [(l.run_index, l.seed, l.faults) for l in reference]

    def test_cross_check_demotion_stays_correct(self):
        """With the fast path forced off, planning falls back to the
        reference derivation and results are unchanged."""
        campaign = make_campaign("P-BICG", "detection", ("A",), runs=8,
                                 batch=8)
        engine = BatchEngine(campaign)
        engine._fast = False
        campaign._batch_engine = engine
        batched = campaign.run()
        serial = run_serial(make_campaign("P-BICG", "detection", ("A",),
                                          runs=8))
        assert records_jsonl(batched) == records_jsonl(serial)


class TestMergedInjection:
    def test_merged_masks_equal_sequential_overlays(self):
        """apply_faults_merged installs the exact overlays sequential
        apply_faults would, for every lane of a planned batch."""
        campaign = make_campaign("P-BICG", "detection", ("A",))
        engine = BatchEngine(campaign)
        campaign._golden_evidence()
        for lane in engine._plan(0, 12):
            serial_mem = campaign._run_memory()
            merged_mem = campaign._run_memory()
            n_serial = apply_faults(serial_mem, lane.faults)
            masks = merge_fault_masks(lane.faults)
            n_merged = apply_faults_merged(merged_mem, masks)
            assert n_serial == n_merged
            assert serial_mem._overlays == merged_mem._overlays


class TestEquivalencePruning:
    """Outcome-equivalence pruning: lanes classified MASKED from the
    golden timeline alone, without execution — and without perturbing
    the scalar-identical results contract checked above."""

    def test_agrees_prunes_fire_and_results_stay_identical(self):
        serial = run_serial(make_campaign("P-ATAX", "detection",
                                          ("A", "x"), runs=96))
        batched = make_campaign("P-ATAX", "detection", ("A", "x"),
                                runs=96, batch=32)
        result = batched.run()
        assert records_jsonl(result) == records_jsonl(serial)
        counters = result.metrics_snapshot["counters"]
        assert counters.get("campaign.batch.pruned.agrees", 0) > 0
        assert counters["campaign.batch.analytic_lanes"] \
            + counters["campaign.batch.exec_lanes"] == 96

    def test_writable_verdict_classes(self):
        campaign = make_campaign("P-BICG", "detection", ("A",))
        evidence = campaign._golden_evidence()
        timeline = evidence.timeline
        # dead: a name on no read path at all
        assert evidence.writable_verdict("__not_read__", {0: (1, 0)}) \
            == "dead"
        # agrees / must-exec against a real snapshotted object
        name = next(n for n in timeline.read_values
                    if timeline.read_values[n])
        snap = timeline.read_values[name][0]
        raw = snap[0]
        agreeing = ((raw & 1), (~raw) & 1)  # or/and masks matching bit 0
        assert evidence.writable_verdict(name, {0: agreeing}) == "agrees"
        flipping = (((~raw) & 1), (raw & 1))  # stuck opposite to bit 0
        assert evidence.writable_verdict(name, {0: flipping}) is None

    def test_unsnapshotted_read_paths_force_execution(self):
        campaign = make_campaign("P-BICG", "detection", ("A",))
        evidence = campaign._golden_evidence()
        name = next(iter(evidence.timeline.read_values))
        evidence.timeline.read_values[name] = []
        assert evidence.writable_verdict(name, {0: (0, 0)}) is None
