"""Fault-provenance records: schema, determinism, and attribution.

Pins the provenance contract end to end: the wire schema and its
validator, writer/reader round-trips, the cause taxonomy on real
campaigns (including SECDED), byte-identity of the JSONL stream at
any ``--jobs``/``--batch`` — with analytically-classified runs mixed
in — and the per-object vulnerability aggregation behind
``repro vuln``, up to the paper's hot-object story: protecting the
top SDC-attributed objects removes (nearly) all SDCs.
"""

from __future__ import annotations

import pytest

from repro.core.protection import ProtectionSpec
from repro.errors import TelemetryError
from repro.faults.campaign import Campaign, CampaignConfig
from repro.faults.outcomes import Outcome
from repro.faults.selection import uniform_selection
from repro.kernels.registry import create_app
from repro.obs.provenance import (
    EVIDENCE_KINDS,
    LIVENESS_CLASSES,
    PROVENANCE_CAUSES,
    PROVENANCE_RECORD_VERSION,
    ProvenanceRecord,
    ProvenanceSite,
    ProvenanceWriter,
    REGIONS,
    read_provenance,
    top_sdc_objects,
    validate_provenance,
    vulnerability_profiles,
)


def make_campaign(app_name, scheme, protect, runs=24, batch=1, jobs=1,
                  n_blocks=2, n_bits=2, seed=20210621, secded=False,
                  read_only_pool=False):
    """``scheme`` ``"mixed"`` takes ``protect`` as an explicit
    ``object=scheme`` spec string."""
    app = create_app(app_name, scale="small")
    memory = app.fresh_memory()
    pool = [a for o in memory.objects
            if not read_only_pool or o.read_only
            for a in o.block_addrs()]
    if scheme == "mixed":
        how = {"protection": ProtectionSpec.parse(protect)}
    else:
        how = {"scheme": scheme, "protect": protect}
    return Campaign(
        app,
        uniform_selection(pool),
        **how,
        config=CampaignConfig(runs=runs, n_blocks=n_blocks,
                              n_bits=n_bits, seed=seed, secded=secded),
        keep_runs=True,
        collect_provenance=True,
        batch=batch,
        jobs=jobs,
    )


def provenance_jsonl(result) -> str:
    return "\n".join(r.to_json() for r in result.provenance)


def sample_record(**overrides) -> dict:
    """A schema-valid record dict to mutate in validator tests."""
    record = ProvenanceRecord(
        run_index=3,
        seed=1234,
        app="P-BICG",
        scheme="detection",
        selection="uniform",
        n_blocks=1,
        n_bits=2,
        outcome="detected",
        evidence="analytic",
        cause="replica-detected",
        sites=(ProvenanceSite(
            object="A", region="hot", liveness="input",
            block_addr=128, word_index=4, byte_offset=16,
            bit_positions=(3, 17), stuck_values=(1, 0), visible=True,
        ),),
        first_corrupted_read=7,
        corrupted_reads=2,
        consumers=(("A", 2),),
        detection=("A", 7),
    ).to_dict()
    record.update(overrides)
    return record


class TestRecordRoundTrip:
    def test_to_dict_validates_and_rebuilds(self):
        data = sample_record()
        validate_provenance(data)
        rebuilt = ProvenanceRecord.from_dict(data)
        assert rebuilt.to_dict() == data

    def test_to_json_is_canonical(self):
        record = ProvenanceRecord.from_dict(sample_record())
        encoded = record.to_json()
        assert "\n" not in encoded
        assert ": " not in encoded  # compact separators
        import json

        keys = list(json.loads(encoded))
        assert keys == sorted(keys)

    def test_version_is_stamped(self):
        assert sample_record()["version"] == PROVENANCE_RECORD_VERSION


class TestValidation:
    @pytest.mark.parametrize("mutation", [
        {"outcome": "melted"},
        {"evidence": "guessed"},
        {"cause": "gremlins"},
        {"version": 99},
        {"run_index": -1},
        {"corrupted_reads": -2},
        {"first_corrupted_read": -5},
        {"seed": "1234"},
        {"sites": "nope"},
        {"consumers": {"A": 0}},
        {"consumers": {"A": True}},
        {"detection": {"object": "A"}},
    ])
    def test_bad_values_rejected(self, mutation):
        with pytest.raises(TelemetryError):
            validate_provenance(sample_record(**mutation))

    @pytest.mark.parametrize("key", [
        "version", "run_index", "outcome", "evidence", "cause",
        "sites", "first_corrupted_read", "corrupted_reads",
        "consumers", "detection",
    ])
    def test_missing_key_rejected(self, key):
        data = sample_record()
        del data[key]
        with pytest.raises(TelemetryError, match="missing"):
            validate_provenance(data)

    def test_propagation_invariant_enforced(self):
        # first_corrupted_read and corrupted_reads must agree on
        # whether any read consumed corrupted bytes.
        with pytest.raises(TelemetryError, match="disagree"):
            validate_provenance(sample_record(
                first_corrupted_read=None, corrupted_reads=1))
        with pytest.raises(TelemetryError, match="disagree"):
            validate_provenance(sample_record(
                first_corrupted_read=0, corrupted_reads=0))

    def test_bad_site_rejected(self):
        site = sample_record()["sites"][0]
        for mutation in ({"region": "warm"}, {"liveness": "zombie"},
                         {"bit_positions": [1, 2, 3]}):
            data = sample_record(sites=[dict(site, **mutation)])
            with pytest.raises(TelemetryError):
                validate_provenance(data)

    def test_non_dict_rejected(self):
        with pytest.raises(TelemetryError):
            validate_provenance([1, 2, 3])


class TestWriterReader:
    def test_round_trip_through_file(self, tmp_path):
        result = make_campaign("P-BICG", "detection", ("A",)).run()
        path = tmp_path / "prov.jsonl"
        with ProvenanceWriter(str(path)) as writer:
            n = writer.write_result(result)
        assert n == len(result.provenance) == result.n_runs
        loaded = read_provenance(str(path))
        assert [ProvenanceRecord.from_dict(d).to_json() for d in loaded] \
            == [r.to_json() for r in result.provenance]

    def test_writer_rejects_empty_result(self, tmp_path):
        campaign = make_campaign("P-BICG", "detection", ("A",), runs=4)
        campaign.collect_provenance = False
        result = campaign.run()
        with ProvenanceWriter(str(tmp_path / "p.jsonl")) as writer:
            with pytest.raises(TelemetryError, match="no provenance"):
                writer.write_result(result)

    def test_reader_flags_corrupt_line(self, tmp_path):
        path = tmp_path / "prov.jsonl"
        path.write_text('{"version": 1}\n', encoding="utf-8")
        with pytest.raises(TelemetryError, match="prov.jsonl:1:"):
            read_provenance(str(path))


class TestCauseTaxonomy:
    def test_records_use_known_vocabulary(self):
        result = make_campaign("P-ATAX", "detection", ("A", "x"),
                               runs=48).run()
        assert len(result.provenance) == result.n_runs
        for record in result.provenance:
            assert record.cause in PROVENANCE_CAUSES
            assert record.evidence in EVIDENCE_KINDS
            for site in record.sites:
                assert site.region in REGIONS
                assert site.liveness in LIVENESS_CLASSES

    def test_outcome_matches_run_stream(self):
        result = make_campaign("P-BICG", "correction", ("A", "r"),
                               runs=32).run()
        assert [r.outcome for r in result.provenance] \
            == [r.outcome.value for r in result.runs]
        assert [r.run_index for r in result.provenance] \
            == list(range(result.n_runs))

    def test_detected_runs_blame_the_scheme(self):
        result = make_campaign("P-BICG", "detection", ("A",),
                               runs=48).run()
        detected = [r for r in result.provenance
                    if r.outcome == Outcome.DETECTED.value]
        assert detected, "cell expected to produce detections"
        assert all(r.cause == "replica-detected" for r in detected)

    def test_sdc_runs_blame_corrupted_output(self):
        result = make_campaign("P-BICG", "baseline", (), runs=64,
                               n_bits=3).run()
        sdcs = [r for r in result.provenance
                if r.outcome == Outcome.SDC.value]
        assert sdcs, "baseline cell expected to produce SDCs"
        for record in sdcs:
            assert record.cause == "output-corrupted"
            assert record.corrupted_reads > 0
            assert record.first_corrupted_read is not None

    def test_masked_runs_carry_masking_cause(self):
        result = make_campaign("P-GESUMMV", "correction", ("A", "B"),
                               runs=48).run()
        masked = [r for r in result.provenance
                  if r.outcome == Outcome.MASKED.value]
        assert masked
        allowed = {"value-agrees", "dead-word",
                   "overwritten-before-read", "tolerated"}
        assert {r.cause for r in masked} <= allowed


class TestSecdedProvenance:
    def test_secded_causes_and_nulled_propagation(self):
        result = make_campaign("P-BICG", "baseline", (), runs=32,
                               secded=True).run()
        assert len(result.provenance) == result.n_runs
        secded_causes = {"secded-corrected", "secded-due",
                         "value-agrees", "tolerated",
                         "output-corrupted", "crash",
                         "replica-detected", "replica-voted"}
        for record in result.provenance:
            # SECDED filters at the memory interface; the golden
            # read-stream propagation story does not apply.
            assert record.evidence == "executed"
            assert record.cause in secded_causes
            assert record.first_corrupted_read is None
            assert record.corrupted_reads == 0
            assert record.consumers == ()

    def test_secded_sees_corrections(self):
        result = make_campaign("P-BICG", "baseline", (), runs=32,
                               secded=True).run()
        causes = {r.cause for r in result.provenance}
        assert causes & {"secded-corrected", "secded-due"}


#: Byte-identity cells: uniform, mixed per-object (P-ATAX's writable
#: tmp/y force exec lanes) and SECDED-filtered campaigns.
IDENTITY_CELLS = [
    ("P-ATAX", "baseline", (), {}),
    ("P-BICG", "mixed", "r=detection,p=correction", {}),
    ("P-ATAX", "mixed", "A=correction,x=detection", {}),
    ("P-BICG", "baseline", (), {"secded": True, "n_bits": 2}),
    ("P-BICG", "baseline", (), {"secded": True, "n_bits": 3}),
]


class TestByteIdentity:
    """The ISSUE's headline guarantee: the provenance stream is
    byte-identical at any --jobs/--batch, including analytically
    classified (pruned) runs."""

    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_jsonl_identical_across_strategies(self, jobs, batch):
        for app_name, scheme, protect, options in IDENTITY_CELLS:
            serial = make_campaign(app_name, scheme, protect, runs=48,
                                   **options).run()
            other = make_campaign(app_name, scheme, protect, runs=48,
                                  jobs=jobs, batch=batch,
                                  **options).run()
            assert len(serial.provenance) == 48
            assert provenance_jsonl(other) == provenance_jsonl(serial), \
                (app_name, protect, options)

    def test_stream_mixes_analytic_and_executed_evidence(self):
        # The identity above is only meaningful if the batched run
        # actually prunes: this cell must classify some runs
        # analytically and execute others.
        result = make_campaign("P-ATAX", "baseline", (), runs=48,
                               batch=16).run()
        kinds = {r.evidence for r in result.provenance}
        assert kinds == {"analytic", "executed"}

    def test_multi_site_faults_survive_identity(self):
        serial = make_campaign("P-BICG", "detection", ("A",), runs=32,
                               n_blocks=5).run()
        batched = make_campaign("P-BICG", "detection", ("A",), runs=32,
                                n_blocks=5, batch=16, jobs=2).run()
        assert provenance_jsonl(batched) == provenance_jsonl(serial)
        assert any(len(r.sites) > 1 for r in serial.provenance)

    def test_result_dict_round_trip_keeps_provenance(self):
        from repro.faults.campaign import CampaignResult

        result = make_campaign("P-BICG", "detection", ("A",),
                               runs=16).run()
        rebuilt = CampaignResult.from_dict(result.to_dict())
        assert provenance_jsonl(rebuilt) == provenance_jsonl(result)


class TestVulnerabilityProfiles:
    def test_aggregation_counts_and_keys(self):
        result = make_campaign("P-BICG", "detection", ("A",),
                               runs=48).run()
        profiles = vulnerability_profiles(result.provenance)
        assert profiles == sorted(
            profiles, key=lambda p: (p.app, p.scheme, p.object))
        # Every run is attributed to each distinct sited object once.
        sited = sum(
            len({s.object for s in r.sites}) or 0
            for r in result.provenance
        )
        assert sum(p.runs for p in profiles) == sited
        for p in profiles:
            assert sum(p.outcome_counts.values()) == p.runs
            assert sum(p.cause_counts.values()) == p.runs

    def test_accepts_plain_dicts(self, tmp_path):
        result = make_campaign("P-BICG", "detection", ("A",),
                               runs=24).run()
        path = tmp_path / "prov.jsonl"
        with ProvenanceWriter(str(path)) as writer:
            writer.write_result(result)
        from_dicts = vulnerability_profiles(read_provenance(str(path)))
        from_records = vulnerability_profiles(result.provenance)
        assert [p.to_dict() for p in from_dicts] \
            == [p.to_dict() for p in from_records]

    def test_top_sdc_objects_ranking(self):
        result = make_campaign("P-BICG", "baseline", (), runs=64,
                               n_bits=3).run()
        profiles = vulnerability_profiles(result.provenance)
        ranked = top_sdc_objects(profiles)
        counts = [p.sdc_count for p in ranked]
        assert counts == sorted(counts, reverse=True)
        assert top_sdc_objects(profiles, 2) == ranked[:2]

    def test_interval_margin_shrinks_with_runs(self):
        result = make_campaign("P-BICG", "baseline", (), runs=64).run()
        for p in vulnerability_profiles(result.provenance):
            assert 0.0 <= p.sdc_rate <= 1.0
            assert p.sdc_interval().margin <= 1.0


class TestHotObjectStory:
    """Acceptance: the objects `repro vuln` ranks worst are the ones
    whose protection removes (almost) all SDCs — the paper's
    data-centric claim, reproduced from provenance alone."""

    @pytest.mark.parametrize("app_name", ["P-BICG", "A-Laplacian"])
    def test_protecting_top_objects_removes_sdcs(self, app_name):
        # Faults over protectable (read-only) data — the schemes
        # replicate read-only input objects only, so that is the
        # space the attribution's protection advice applies to.
        baseline = make_campaign(app_name, "baseline", (), runs=800,
                                 n_blocks=1, n_bits=4, batch=32,
                                 read_only_pool=True).run()
        assert baseline.sdc_count >= 5, "need a meaningful SDC base"
        profiles = vulnerability_profiles(baseline.provenance)
        ranked = top_sdc_objects(profiles)
        total = sum(p.sdc_count for p in ranked)
        protect, covered = [], 0
        for p in ranked:
            if covered >= 0.95 * total:
                break
            protect.append(p.object)
            covered += p.sdc_count
        protected = make_campaign(
            app_name, "correction", tuple(protect), runs=800,
            n_blocks=1, n_bits=4, batch=32, read_only_pool=True,
        ).run()
        drop = (baseline.sdc_count - protected.sdc_count) \
            / baseline.sdc_count
        assert drop >= 0.95, (
            f"protecting {protect} dropped SDCs only {100 * drop:.1f}%"
        )
