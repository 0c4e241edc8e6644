"""A/B determinism suite for the design-space exploration engine.

The contracts pinned here are the ones ``repro optimize`` advertises:
the search trail and Pareto front are byte-identical at any
``jobs``/``batch`` setting, an interrupted search resumes to the
exact same outcome, and vulnerability-seeded greedy search reaches
the front in fewer evaluations than random sampling.
"""

import json

import pytest

from repro.core.manager import ReliabilityManager
from repro.core.request import EvaluationRequest
from repro.errors import (
    CheckpointError,
    SessionInterrupted,
    SpecError,
)
from repro.kernels.registry import create_app
from repro.obs.search import read_search_trail
from repro.search import engine, optimize
from repro.utils.canonical import canonical_digest

APP = "P-BICG"
#: Small but non-trivial baseline: P-BICG small with this grid shows
#: SDCs at the baseline point, so reduction percentages are exercised.
KW = dict(app=APP, runs=60, seed=11, scale="small")


def run(tmp_path, name, **kwargs):
    trail = tmp_path / f"{name}.jsonl"
    merged = {**KW, "strategy": "greedy", "trail": str(trail)}
    merged.update(kwargs)
    result = optimize(**merged)
    return result, trail.read_bytes()


def stored_reports(store) -> list:
    """Every timing report file of a search store's rounds."""
    return sorted(store.glob("round-*/reports/*.json"))


@pytest.fixture()
def sim_calls(monkeypatch):
    """Count in-process ``simulate_performance`` calls (jobs=1)."""
    calls = []
    real = ReliabilityManager.simulate_performance

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ReliabilityManager, "simulate_performance",
                        counted)
    return calls


class TestSearchOutcome:
    def test_exhaustive_front_contains_optimum(self, tmp_path):
        result, _ = run(tmp_path, "x", strategy="exhaustive",
                        objects=2)
        assert len(result.evaluations) == 9
        assert result.rounds == 1
        assert result.baseline is not None
        assert result.baseline.sdc_count > 0
        best_sdc = min(e.sdc_count for e in result.evaluations)
        assert any(e.sdc_count == best_sdc for e in result.front)

    def test_budget_pick_removes_most_sdcs(self, tmp_path):
        result, _ = run(tmp_path, "b", max_overhead=0.02)
        assert result.best is not None
        assert result.best.overhead <= 0.02
        assert result.sdc_reduction(result.best) >= 90.0

    def test_front_is_mutually_non_dominated(self, tmp_path):
        from repro.search.pareto import dominates

        result, _ = run(tmp_path, "nd", strategy="exhaustive",
                        objects=2)
        for a in result.front:
            assert not any(dominates(b, a) for b in result.front)

    def test_stats_account_for_every_evaluation(self, tmp_path):
        result, _ = run(tmp_path, "s")
        assert result.stats["evaluations"] == len(result.evaluations)
        assert result.stats["proposed"] == (
            result.stats["evaluations"] + result.stats["cache_hits"])
        assert result.stats["chunks_executed"] > 0
        assert result.stats["chunks_resumed"] == 0


class TestJobsAndBatchInvariance:
    def test_trail_and_front_identical_across_jobs(self, tmp_path):
        base, trail_1 = run(tmp_path, "j1", jobs=1)
        jobs2, trail_2 = run(tmp_path, "j2", jobs=2)
        assert trail_1 == trail_2
        assert [e.digest for e in base.front] == \
            [e.digest for e in jobs2.front]

    def test_trail_identical_across_batch(self, tmp_path):
        _, scalar = run(tmp_path, "b1", batch=1)
        _, batched = run(tmp_path, "b4", batch=4)
        assert scalar == batched

    def test_evolutionary_deterministic_across_jobs(self, tmp_path):
        kwargs = dict(strategy="evolutionary", population=6,
                      generations=2, search_seed=3)
        _, a = run(tmp_path, "e1", jobs=1, **kwargs)
        _, b = run(tmp_path, "e2", jobs=2, batch=4, **kwargs)
        assert a == b


class TestResume:
    def test_interrupt_then_resume_replays_identically(self, tmp_path,
                                                       sim_calls):
        full, complete = run(tmp_path, "full", store=str(tmp_path / "a"))
        with pytest.raises(SessionInterrupted):
            run(tmp_path, "cut", store=str(tmp_path / "b"),
                stop_after_chunks=20)
        kept = len(stored_reports(tmp_path / "b"))
        assert 0 < kept < full.stats["simulations_executed"]
        del sim_calls[:]
        resumed, replayed = run(tmp_path, "cut",
                                store=str(tmp_path / "b"),
                                resume=True)
        assert replayed == complete
        assert resumed.stats["chunks_resumed"] > 0
        assert resumed.stats["chunks_executed"] < \
            resumed.stats["chunks_resumed"] + \
            resumed.stats["chunks_executed"] + 1
        # Only the points whose reports were missing are simulated.
        missing = full.stats["simulations_executed"] - kept
        assert resumed.stats["simulations_loaded"] == kept
        assert resumed.stats["simulations_executed"] == missing
        assert len(sim_calls) == missing

    def test_resume_of_finished_search_simulates_nothing(
            self, tmp_path, sim_calls, monkeypatch):
        store = str(tmp_path / "s")
        cold, trail = run(tmp_path, "cold", store=store)
        assert len(sim_calls) == cold.stats["simulations_executed"] == 7

        def no_ranking(*_args, **_kwargs):
            raise AssertionError("the stored ranking was recomputed")

        monkeypatch.setattr(engine, "_vulnerability_ranking",
                            no_ranking)
        monkeypatch.setattr(ReliabilityManager, "evaluate", no_ranking)
        del sim_calls[:]
        warm, replayed = run(tmp_path, "warm", store=store, resume=True)
        assert replayed == trail
        assert sim_calls == []
        assert warm.stats["simulations_executed"] == 0
        assert warm.stats["simulations_loaded"] == 7
        assert warm.stats["chunks_executed"] == 0
        assert [e.to_dict() for e in warm.evaluations] == \
            [e.to_dict() for e in cold.evaluations]

    def test_foreign_stored_report_raises(self, tmp_path):
        store = tmp_path / "s"
        run(tmp_path, "one", store=str(store))
        first, second = stored_reports(store)[:2]
        second.write_bytes(first.read_bytes())
        with pytest.raises(CheckpointError, match="labeled"):
            run(tmp_path, "two", store=str(store), resume=True)

    def test_round_written_before_request_cells_raises(self, tmp_path):
        # Rewrite round 0's manifest as the ("spec",)-grid body a
        # round's SweepSpec wrote for the same points: the search
        # manifest still matches, the round names a different sweep.
        store = tmp_path / "s"
        run(tmp_path, "one", store=str(store))
        path = store / "round-0000" / "MANIFEST.json"
        manifest = json.loads(path.read_text())
        cells = manifest["spec"]["cells"]
        old = {
            "apps": [APP], "schemes": ["spec"],
            "protects": [cell["protect"] for cell in cells],
            "runs": 60, "n_blocks": 1, "n_bits": 2, "seed": 11,
            "selection": "access-weighted", "scale": "small",
            "app_seed": 1234, "secded": False, "keep_runs": False,
            "collect_records": True,
            "chunk_runs": cells[0]["chunk_runs"],
        }
        manifest.update(spec=old, digest=canonical_digest(old))
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="different sweep"):
            run(tmp_path, "two", store=str(store), resume=True)

    def test_torn_search_manifest_raises(self, tmp_path):
        store = tmp_path / "s"
        run(tmp_path, "one", store=str(store))
        manifest = store / engine.SEARCH_MANIFEST
        manifest.write_bytes(manifest.read_bytes()[:25])
        with pytest.raises(CheckpointError, match="unreadable"):
            run(tmp_path, "two", store=str(store), resume=True)

    def test_existing_store_requires_resume_flag(self, tmp_path):
        store = str(tmp_path / "s")
        run(tmp_path, "one", store=store)
        with pytest.raises(CheckpointError, match="resume"):
            run(tmp_path, "two", store=store)

    def test_store_pins_search_identity(self, tmp_path):
        store = str(tmp_path / "s")
        run(tmp_path, "one", store=store)
        with pytest.raises(CheckpointError, match="different search"):
            run(tmp_path, "two", store=store, resume=True,
                search_seed=99, strategy="random")


class TestSearchTrail:
    def test_trail_parses_and_matches_result(self, tmp_path):
        result, _ = run(tmp_path, "t")
        lines = read_search_trail(str(tmp_path / "t.jsonl"))
        header, rounds = lines[0], lines[1:]
        assert header["app"] == APP
        assert header["strategy"] == "greedy"
        assert len(rounds) == result.rounds
        assert sum(r["new"] for r in rounds) == len(result.evaluations)
        assert rounds[-1]["front"] == [e.digest for e in result.front]


class TestGreedySeeding:
    def test_greedy_beats_random_in_evaluations_to_front(
            self, tmp_path):
        """The vulnerability-seeded hill climb reaches a zero-SDC
        front configuration in fewer evaluations than uniform random
        sampling — the paper's protect-what-matters argument."""
        def evals_to_zero_sdc(trail_path):
            seen = 0
            for line in read_search_trail(str(trail_path))[1:]:
                for ev in line["evaluations"]:
                    seen += 1
                    if ev["sdc"] == 0:
                        return seen
            return float("inf")

        run(tmp_path, "greedy")
        run(tmp_path, "rand", strategy="random", search_seed=4,
            population=12)
        greedy_cost = evals_to_zero_sdc(tmp_path / "greedy.jsonl")
        random_cost = evals_to_zero_sdc(tmp_path / "rand.jsonl")
        assert greedy_cost < random_cost


class TestVulnerabilityRanking:
    def test_ranking_identical_across_batch(self):
        manager = ReliabilityManager(create_app(APP, scale="small"))
        candidates = tuple(manager.app.object_importance)

        def ranking(batch):
            return engine._vulnerability_ranking(
                manager, candidates, EvaluationRequest(**KW, batch=batch))

        assert ranking(1) == ranking(64)


class TestRequestSurface:
    def test_request_supplies_the_experiment(self, tmp_path):
        request = EvaluationRequest(app=APP, runs=60, seed=11,
                                    scale="small", batch=4)
        via_request = optimize(request=request, strategy="exhaustive",
                               objects=2)
        direct, _ = run(tmp_path, "d", strategy="exhaustive",
                        objects=2)
        assert [e.to_dict() for e in via_request.evaluations] == \
            [e.to_dict() for e in direct.evaluations]

    def test_request_and_fields_rejected(self):
        request = EvaluationRequest(app=APP, runs=8, scale="small")
        with pytest.raises(SpecError, match="runs"):
            optimize(request=request, runs=4, strategy="exhaustive",
                     objects=1)

    @pytest.mark.parametrize("fixed", [
        dict(protect="all"), dict(scheme="detection"),
        dict(collect_provenance=True)])
    def test_search_fields_rejected(self, fixed):
        with pytest.raises(SpecError, match="fixes"):
            optimize(**KW, strategy="exhaustive", objects=1, **fixed)

    def test_app_required(self):
        with pytest.raises(SpecError, match="application"):
            optimize(strategy="exhaustive")

    def test_unknown_object_count_rejected(self):
        with pytest.raises(SpecError, match="objects"):
            optimize(**KW, objects=99)

    def test_max_evals_caps_the_search(self, tmp_path):
        result, _ = run(tmp_path, "cap", strategy="random",
                        max_evals=3, population=5)
        assert len(result.evaluations) <= 3

    @pytest.mark.parametrize("max_evals", [0, -3])
    def test_max_evals_below_one_rejected(self, tmp_path, max_evals):
        store = tmp_path / "search"
        with pytest.raises(SpecError, match="max_evals"):
            optimize(**KW, strategy="exhaustive", max_evals=max_evals,
                     store=str(store))
        assert not store.exists()

    @pytest.mark.parametrize("settings", [
        dict(strategy="random", population=0),
        dict(strategy="evolutionary", population=2),
        dict(strategy="evolutionary", generations=0),
        dict(strategy="annealing"),
    ])
    def test_rejected_strategy_settings_write_no_manifest(
            self, tmp_path, settings):
        store = tmp_path / "search"
        with pytest.raises(SpecError):
            optimize(**KW, store=str(store), **settings)
        assert not (store / "SEARCH.json").exists()
        # The corrected call is a fresh search, not "a different one".
        result = optimize(**KW, store=str(store), strategy="random",
                          population=2, max_evals=1)
        assert len(result.evaluations) == 1

    def test_request_target_margin_rejected(self):
        # Every configuration runs its full budget; an adaptive request
        # must not silently evaluate at all of its runs.
        request = EvaluationRequest(app=APP, runs=400, scale="small",
                                    target_margin=0.1, batch=64)
        with pytest.raises(SpecError, match="target_margin"):
            optimize(request=request, strategy="exhaustive", objects=1)

    def test_request_secded_rejected(self):
        request = EvaluationRequest(app=APP, runs=16, scale="small",
                                    secded=True, n_bits=3)
        with pytest.raises(SpecError, match="secded"):
            optimize(request=request, strategy="exhaustive", objects=1)
