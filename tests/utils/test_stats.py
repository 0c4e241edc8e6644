"""Tests for statistics helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import (
    ConfidenceInterval,
    confidence_interval,
    geometric_mean,
    runs_for_margin,
    stratified_interval,
    zero_run_interval,
)

LEVELS = (0.90, 0.95, 0.99)
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


class TestConfidenceInterval:
    def test_paper_margin_at_1000_runs(self):
        # The paper: 1000 runs give 95% CI with ~3% margins.  Wilson
        # and the normal approximation agree at p=0.5, n=1000.
        ci = confidence_interval(500, 1000)
        assert 0.030 <= ci.margin <= 0.032
        legacy = confidence_interval(500, 1000, method="normal")
        assert 0.030 <= legacy.margin <= 0.032

    def test_zero_successes_has_nonzero_margin(self):
        # The degenerate-CI bug: the normal approximation collapses to
        # a zero-width interval at p=0; Wilson must not.
        ci = confidence_interval(0, 100)
        assert ci.proportion == 0.0
        assert ci.low == 0.0
        assert ci.margin > 0.0
        # Exact Wilson upper bound at p=0: z^2 / (n + z^2).
        z2 = _Z[0.95] ** 2
        assert ci.high == pytest.approx(z2 / (100 + z2))
        # Rule-of-three sanity: the bound is the right order of 3/n.
        assert 0.0 < ci.high <= 2 * 3.0 / 100

    def test_all_successes_has_nonzero_margin(self):
        ci = confidence_interval(100, 100)
        assert ci.proportion == 1.0
        assert ci.high == pytest.approx(1.0)
        assert ci.margin > 0.0
        z2 = _Z[0.95] ** 2
        assert ci.low == pytest.approx(100 / (100 + z2))

    def test_normal_method_keeps_degenerate_boundary(self):
        # Documented legacy behavior, kept behind method="normal".
        ci = confidence_interval(0, 100, method="normal")
        assert ci.margin == 0.0

    def test_boundary_margins_nonzero_at_all_levels(self):
        for level in LEVELS:
            for successes in (0, 100):
                ci = confidence_interval(successes, 100, level=level)
                assert ci.margin > 0.0, (level, successes)

    def test_asymmetric_bounds_near_boundary(self):
        # Near p=0 the Wilson interval is asymmetric: the upper arm is
        # longer than the lower, and margin is the longer arm.
        ci = confidence_interval(2, 100)
        assert ci.low > 0.0
        assert ci.high - ci.proportion > ci.proportion - ci.low
        assert ci.margin == pytest.approx(ci.high - ci.proportion)

    def test_str_prints_actual_bounds(self):
        ci = confidence_interval(0, 100)
        text = str(ci)
        assert f"[{ci.low:.4f}, {ci.high:.4f}]" in text
        assert "+/-" not in text

    def test_to_dict_includes_bounds(self):
        ci = confidence_interval(3, 50)
        d = ci.to_dict()
        assert d["low"] == ci.low and d["high"] == ci.high
        assert set(d) == {"proportion", "margin", "low", "high",
                          "level", "runs"}

    def test_legacy_two_field_construction_defaults_bounds(self):
        ci = ConfidenceInterval(0.5, 0.1, 0.95, 100)
        assert ci.low == pytest.approx(0.4)
        assert ci.high == pytest.approx(0.6)
        clamped = ConfidenceInterval(0.05, 0.1, 0.95, 10)
        assert clamped.low == 0.0

    def test_bounds_clamped(self):
        ci = confidence_interval(99, 100)
        assert ci.high <= 1.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            confidence_interval(5, 0)
        with pytest.raises(ValueError):
            confidence_interval(11, 10)
        with pytest.raises(ValueError):
            confidence_interval(5, 10, level=0.5)
        with pytest.raises(ValueError):
            confidence_interval(5, 10, method="agresti")

    def test_runs_for_margin_inverse(self):
        runs = runs_for_margin(0.031, method="normal")
        assert 990 <= runs <= 1010
        # Wilson needs z^2 (~4) fewer runs for the same p=0.5 margin.
        wilson_runs = runs_for_margin(0.031)
        assert runs - 6 <= wilson_runs < runs
        ci = confidence_interval(wilson_runs // 2, wilson_runs)
        assert ci.margin <= 0.031 + 1e-9

    def test_zero_run_interval(self):
        ci = zero_run_interval()
        assert (ci.low, ci.high) == (0.0, 1.0)
        assert ci.runs == 0 and ci.margin == 1.0
        with pytest.raises(ValueError):
            zero_run_interval(level=0.5)


class TestStratifiedInterval:
    def test_single_stratum_matches_plain_wilson(self):
        plain = confidence_interval(10, 100)
        combined = stratified_interval([(1.0, 10, 100)])
        assert combined.proportion == pytest.approx(plain.proportion)
        assert combined.margin == pytest.approx(plain.margin)

    def test_weighted_mean_of_proportions(self):
        combined = stratified_interval(
            [(0.25, 0, 100), (0.75, 100, 100)])
        assert combined.proportion == pytest.approx(0.75)
        assert combined.runs == 200

    def test_weights_are_normalized(self):
        a = stratified_interval([(1.0, 5, 50), (3.0, 10, 50)])
        b = stratified_interval([(0.25, 5, 50), (0.75, 10, 50)])
        assert a.proportion == pytest.approx(b.proportion)
        assert a.margin == pytest.approx(b.margin)

    def test_empty_stratum_widens_interval(self):
        sampled = stratified_interval([(0.5, 5, 100), (0.5, 5, 100)])
        gapped = stratified_interval([(0.5, 5, 100), (0.5, 0, 0)])
        assert gapped.margin > sampled.margin
        assert gapped.margin >= 0.5  # vacuous stratum at weight 0.5

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            stratified_interval([])
        with pytest.raises(ValueError):
            stratified_interval([(0.0, 0, 0)])
        with pytest.raises(ValueError):
            stratified_interval([(-1.0, 0, 10), (2.0, 0, 10)])


class TestGeometricMean:
    def test_identity(self):
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])


@given(st.lists(st.floats(min_value=0.01, max_value=100.0),
                min_size=1, max_size=20))
def test_geomean_between_min_and_max(values):
    gm = geometric_mean(values)
    assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


@given(st.integers(min_value=1, max_value=5_000))
def test_ci_margin_shrinks_with_runs(half_runs):
    runs = 2 * half_runs  # keep the proportion exactly 0.5
    small = confidence_interval(runs // 2, runs)
    bigger = confidence_interval(runs * 2, runs * 4)
    assert bigger.margin <= small.margin + 1e-12


@given(st.integers(min_value=0, max_value=200),
       st.integers(min_value=1, max_value=200),
       st.sampled_from(LEVELS))
def test_wilson_bounds_contain_estimate(successes, runs, level):
    successes = min(successes, runs)
    ci = confidence_interval(successes, runs, level)
    assert 0.0 <= ci.low <= ci.proportion <= ci.high <= 1.0
    assert ci.margin == pytest.approx(
        max(ci.proportion - ci.low, ci.high - ci.proportion))
    assert ci.margin > 0.0


@given(st.floats(min_value=0.01, max_value=0.2),
       st.sampled_from(LEVELS))
def test_runs_for_margin_round_trip(margin, level):
    # confidence_interval(n/2, runs_for_margin(m)) has margin <= m.
    # (Margins below ~0.2 keep n large enough that p=0.5 really is the
    # Wilson worst case; at tiny n the p=0 arm is wider.)
    runs = runs_for_margin(margin, level)
    ci = confidence_interval(runs // 2, runs, level)
    assert ci.margin <= margin + 1e-9


@given(st.lists(st.tuples(st.floats(min_value=0.1, max_value=10.0),
                          st.integers(min_value=0, max_value=50),
                          st.integers(min_value=1, max_value=50)),
                min_size=1, max_size=6))
def test_stratified_interval_is_convex_combination(strata):
    strata = [(w, min(s, n), n) for w, s, n in strata]
    combined = stratified_interval(strata)
    props = [s / n for _, s, n in strata]
    assert min(props) - 1e-9 <= combined.proportion \
        <= max(props) + 1e-9
    assert 0.0 <= combined.low <= combined.high <= 1.0
