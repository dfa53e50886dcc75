"""Core measure functions against hand-computed values."""

import math

import numpy as np
import pytest

from dcx.errors import (
    DegenerateInput,
    InvalidDistribution,
    InvalidParameter,
    InvalidValue,
    ResourceLimit,
)
from dcx.measures import (
    MeasureResult,
    Power,
    Provenance,
    attribute_diversity,
    bin_indices,
    distance_diversity,
    gini,
    gtc_power,
    histogram,
    log10_int,
    log10_product,
    normalized_entropy,
    shannon_entropy,
    variance_diversity,
)


class TestGini:
    def test_uniform_vector_is_zero(self):
        assert gini([5.0] * 10) == pytest.approx(0.0, abs=1e-12)

    def test_single_spike_is_one_minus_reciprocal(self):
        values = np.zeros(1024)
        values[100] = 3.7
        assert gini(values) == pytest.approx(1 - 1 / 1024, abs=1e-12)

    def test_two_values(self):
        # mean absolute difference 2, mean 2 -> G = 2 / (2 * 2) = 0.5
        assert gini([1.0, 3.0]) == pytest.approx(0.25)

    def test_rejects_negative_values(self):
        with pytest.raises(InvalidValue):
            gini([1.0, -0.5])

    def test_rejects_all_zero(self):
        with pytest.raises(DegenerateInput):
            gini([0.0, 0.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(DegenerateInput):
            gini([])


class TestEntropy:
    def test_uniform_is_log2_n(self):
        for n in (2, 4, 7, 16):
            assert shannon_entropy([1 / n] * n) == pytest.approx(math.log2(n))

    def test_certain_outcome_is_zero(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("probs", [[1.0], [0.0, 1.0, 0.0]])
    def test_certain_outcome_is_positive_zero(self, probs):
        # -0.0 == 0.0, so the sign is checked on its own; a report showed -0
        assert math.copysign(1.0, shannon_entropy(probs)) == 1.0

    def test_zero_probability_events_contribute_nothing(self):
        assert shannon_entropy([0.5, 0.5, 0.0]) == pytest.approx(1.0)

    def test_permutation_invariant(self):
        probs = [0.1, 0.2, 0.3, 0.4]
        assert shannon_entropy(probs) == pytest.approx(
            shannon_entropy(list(reversed(probs)))
        )

    def test_dominant_player_four_way(self):
        # one 80% winner, remainder split exactly three ways
        probs = [0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3]
        assert shannon_entropy(probs) == pytest.approx(1.0389, abs=1e-4)
        assert normalized_entropy(probs, 4) == pytest.approx(0.5195, abs=1e-4)

    def test_even_player_four_way(self):
        probs = [0.5, 1 / 6, 1 / 6, 1 / 6]
        assert shannon_entropy(probs) == pytest.approx(1.7925, abs=1e-4)
        assert normalized_entropy(probs, 4) == pytest.approx(0.8962, abs=1e-4)

    def test_normalized_uniform_is_one(self):
        assert normalized_entropy([0.25] * 4, 4) == pytest.approx(1.0)

    def test_rejects_sum_off_by_more_than_tolerance(self):
        with pytest.raises(InvalidDistribution):
            shannon_entropy([0.8, 0.0667, 0.0667, 0.0667])

    def test_rejects_negative_probability(self):
        with pytest.raises(InvalidDistribution):
            shannon_entropy([1.2, -0.2])

    def test_normalized_needs_integer_event_count(self):
        with pytest.raises(InvalidParameter):
            normalized_entropy([0.5, 0.5], 2.0)
        with pytest.raises(InvalidParameter):
            normalized_entropy([0.5, 0.5], True)

    def test_normalized_needs_at_least_two_events(self):
        with pytest.raises(InvalidParameter):
            normalized_entropy([1.0], 1)


class TestHistogram:
    def test_counts_and_probabilities(self):
        h = histogram([0.0, 0.5, 1.0, 1.5, 3.9], 4, (0.0, 4.0))
        assert h.counts == (2, 2, 0, 1)
        assert h.total == 5
        assert h.probabilities() == pytest.approx([0.4, 0.4, 0.0, 0.2])

    def test_top_edge_lands_in_last_bin(self):
        h = histogram([4.0], 4, (0.0, 4.0))
        assert h.counts == (0, 0, 0, 1)

    def test_out_of_range_clamps(self):
        h = histogram([-10.0, 10.0], 2, (0.0, 1.0))
        assert h.counts == (1, 1)

    def test_rejects_empty(self):
        with pytest.raises(DegenerateInput):
            histogram([], 4, (0.0, 1.0))

    def test_rejects_bad_range(self):
        with pytest.raises(InvalidParameter):
            histogram([1.0], 4, (1.0, 1.0))

    @pytest.mark.parametrize("bin_count", [7, 256, (1 << 16) + 5])
    def test_runs_count_as_one_bincount(self, bin_count):
        # 2**16 + 3 values span two runs, the last three values long, unless
        # the bins outnumber a run; out-of-range values clamp in either
        values = np.random.default_rng(4).uniform(-0.1, 1.1, (1 << 16) + 3)
        want = np.bincount(bin_indices(values, bin_count, 0.0, 1.0), minlength=bin_count)
        assert histogram(values, bin_count, (0.0, 1.0)).counts == tuple(want.tolist())


class TestDiversity:
    def test_variance_population_convention(self):
        assert variance_diversity([1.0, 3.0]) == pytest.approx(1.0)
        assert variance_diversity([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.25)

    def test_attribute_count_distinct_values(self):
        entities = [("red", "small"), ("red", "large"), ("blue", "small")]
        assert attribute_diversity(entities) == 4

    def test_distance_euclidean_triangle(self):
        # 3-4-5 right triangle: pair distances 3, 4, 5 -> mean 4
        points = [(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]
        assert distance_diversity(points) == pytest.approx(4.0)

    def test_distance_manhattan(self):
        points = [(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]
        # pair distances 3, 7, 4 -> mean 14/3
        assert distance_diversity(points, metric="manhattan") == pytest.approx(14 / 3)

    def test_distance_needs_two_points(self):
        with pytest.raises(DegenerateInput):
            distance_diversity([(1.0, 2.0)])

    def test_distance_rejects_ragged_points(self):
        with pytest.raises(InvalidValue):
            distance_diversity([(1.0, 2.0), (1.0,)])

    def test_distance_rejects_unknown_metric(self):
        with pytest.raises(InvalidParameter):
            distance_diversity([(0.0,), (1.0,)], metric="chebyshev")

    def test_distance_refuses_pairwise_arrays_past_the_budget(self):
        # 20,000 points of 10 coordinates need a 30 GiB difference array
        with pytest.raises(ResourceLimit, match="pairwise distances of 20000 points"):
            distance_diversity(np.zeros((20_000, 10)))


class TestLogScaleHelpers:
    def test_gtc_power_exact_base_ten(self):
        assert gtc_power(10, 5) == pytest.approx(5.0)

    def test_gtc_power_binary(self):
        assert gtc_power(2, 10) == pytest.approx(math.log10(1024))

    def test_gtc_power_rejects_degenerate_branching(self):
        with pytest.raises(InvalidParameter):
            gtc_power(1, 10)

    def test_log10_product_mixed_factors(self):
        assert log10_product([100, 10]) == pytest.approx(3.0)
        assert log10_product([Power(10, 6), 100]) == pytest.approx(8.0)

    def test_log10_product_rejects_nonpositive(self):
        with pytest.raises(InvalidValue):
            log10_product([10, 0])

    def test_log10_int_matches_math_log10_in_float_range(self):
        for n in (1, 2, 97, 10**15, 2**52 + 1):
            assert log10_int(n) == pytest.approx(math.log10(n), rel=1e-14)

    def test_log10_int_beyond_float_range(self):
        assert log10_int(10**400) == pytest.approx(400.0, abs=1e-10)

    def test_log10_int_rejects_nonpositive(self):
        with pytest.raises(InvalidValue):
            log10_int(0)

    def test_power_log10(self):
        assert Power(5, 28).log10() == pytest.approx(28 * math.log10(5))


class TestMeasureResult:
    def test_requires_name_and_convention(self):
        with pytest.raises(InvalidParameter):
            MeasureResult("", 1.0, "stated", Provenance("analytic"))
        with pytest.raises(InvalidParameter):
            MeasureResult("x", 1.0, "", Provenance("analytic"))
