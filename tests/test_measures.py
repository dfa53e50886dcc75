"""Core measure functions against hand-computed values, and the plain-Python
sums, Gini and entropy against numpy oracles, bit for bit."""

import math
import warnings
from fractions import Fraction

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
    distance_diversity,
    gini,
    gtc_power,
    histogram,
    log10_int,
    log10_product,
    normalized_entropy,
    pairwise_sum,
    shannon_entropy,
    variance_diversity,
)


def oracle_gini(values) -> float:
    """The numpy Gini that measures.gini replaced, kept as its oracle."""
    c = np.asarray(values, dtype=float).ravel()
    with np.errstate(over="ignore"):
        total = float(c.sum())
    if math.isinf(total):
        c = c / c.max()
        total = float(c.sum())
    c = np.sort(c)
    n = c.size
    ranks = np.arange(1, n + 1)
    return float(1.0 - 2.0 * np.sum((c / total) * ((n - ranks + 0.5) / n)))


def bits(x: float) -> str:
    """x exactly, as hex; unlike ==, it tells -0.0 from 0.0."""
    return float(x).hex()


def mixed_vector(rng, n: int) -> list[float]:
    """n values of both signs and of magnitudes from 1e-8 to 1e8."""
    return (rng.choice([-1.0, 1.0], n) * rng.random(n) * 10.0 ** rng.uniform(-8, 8, n)).tolist()


# pairwise_sum's block edges: the 8-term loop, the 128-term block and the
# first splits of a longer sum
BLOCK_EDGES = (7, 8, 9, 127, 128, 129, 255, 256, 257)


class TestPairwiseSum:
    def test_matches_numpy_add_reduce_at_every_length_to_1100(self):
        rng = np.random.default_rng(23)
        for n in range(1101):
            x = mixed_vector(rng, n)
            assert bits(pairwise_sum(x)) == bits(np.add.reduce(np.array(x, dtype=float))), n

    @pytest.mark.parametrize("n", [*BLOCK_EDGES, 2047, 2048, 2049, 4096, 10_000])
    def test_matches_numpy_add_reduce_at_block_edges(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = mixed_vector(rng, n)
            assert bits(pairwise_sum(x)) == bits(np.add.reduce(np.array(x, dtype=float)))

    @pytest.mark.parametrize(
        "x", [[], [-0.0], [-0.0] * 9, [-0.0] * 200, [0.0, -0.0], [1e308, 1e308], [5.0]],
        ids=repr,
    )
    def test_matches_numpy_on_signed_zeros_and_overflow(self, x):
        with np.errstate(over="ignore"):
            want = np.add.reduce(np.array(x, dtype=float))
        assert bits(pairwise_sum(x)) == bits(want)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        # NaN came back as the index, and inf raised numpy's RuntimeWarning
        with pytest.raises(InvalidValue, match="finite"):
            gini([bad, 2.0, 3.0, 4.0])

    def test_values_whose_sum_overflows_keep_their_index(self):
        # the index is scale-free; the overflowing sum gave 1.0 here
        assert gini([1e308] * 3) == 0.0
        assert gini([1.7e308, 1.7e308, 0.0]) == pytest.approx(gini([1.0, 1.0, 0.0]), rel=1e-15)

    def test_rejects_all_zero(self):
        with pytest.raises(DegenerateInput):
            gini([0.0, 0.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(DegenerateInput):
            gini([])

    def test_matches_the_numpy_oracle_bit_for_bit(self):
        rng = np.random.default_rng(7)
        lengths = [*range(1, 300), *BLOCK_EDGES, 1024, 1025, 5000]
        for i, n in enumerate(lengths):
            kind = i % 4
            if kind == 0:
                v = rng.random(n) * 10.0 ** rng.uniform(-8, 8, n)
            elif kind == 1:
                v = rng.lognormal(0.0, 1.0, n)
            elif kind == 2:  # ties and zeros
                v = rng.integers(0, 4, n).astype(float)
            else:
                v = rng.integers(0, 256, n).astype(float)
            if not v.any():
                continue
            assert bits(gini(v)) == bits(oracle_gini(v)), n
            assert bits(gini(v.tolist())) == bits(oracle_gini(v)), n

    def test_matches_the_numpy_oracle_when_the_sum_overflows(self):
        for v in ([1e308] * 3, [1.7e308, 1.7e308, 0.0], [1e308, 5e307, 1.0] * 50):
            assert bits(gini(v)) == bits(oracle_gini(v))

    def test_reads_an_array_of_any_shape_in_row_major_order(self):
        image = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        assert gini(image) == gini(image.ravel().tolist())

    @pytest.mark.parametrize("bad", [5.0, ["x", 1.0], [[1.0, 2.0]], [10**400]], ids=repr)
    def test_rejects_what_is_not_a_flat_sequence_of_numbers(self, bad):
        with pytest.raises(InvalidValue):
            gini(bad)


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

    @pytest.mark.parametrize(
        "probs", [[math.nan, 1.0], [1.0, math.nan], [0.5, 0.5, math.nan], [math.inf, 0.0]],
        ids=repr,
    )
    def test_rejects_non_finite_probabilities(self, probs):
        # NaN passed the [0, 1] checks: [nan, 1.0] gave 0.0 bits
        with pytest.raises(InvalidDistribution, match="finite"):
            shannon_entropy(probs)
        with pytest.raises(InvalidDistribution, match="finite"):
            normalized_entropy(probs, len(probs))

    def test_matches_numpys_sum_of_the_same_terms(self):
        # the terms take log2 from math, so numpy only sums them here: its
        # own log2 may differ in the last bit
        rng = np.random.default_rng(11)
        for n in [*range(1, 300), *BLOCK_EDGES, 1024, 4096]:
            counts = rng.integers(0, 1000, n) * (rng.random(n) < 0.8)
            if not counts.any():
                continue
            p = counts / counts.sum()
            terms = np.array([x * math.log2(x) for x in p.tolist() if x > 0.0])
            assert bits(shannon_entropy(p)) == bits(0.0 - np.add.reduce(terms)), n
            assert bits(shannon_entropy(p.tolist())) == bits(0.0 - np.add.reduce(terms)), n

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

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400, True, np.True_, "1.5", "a", None, 1j],
        ids=repr,
    )
    def test_refuses_values_that_are_no_finite_real_number(self, value):
        # NaN and inf went to the first bin with a numpy RuntimeWarning, a
        # string raised a bare ValueError, and "1.5" was read as 1.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values in ([value, 0.5], np.array([0.5, value], dtype=object)):
                with pytest.raises(InvalidParameter, match="histogram value"):
                    histogram(values, 4, (0.0, 1.0))
        if isinstance(value, float):  # the same from the float array's chunks
            with pytest.raises(InvalidParameter, match="histogram value"):
                histogram(np.r_[np.zeros(1 << 16), value], 4, (0.0, 1.0))

    @pytest.mark.parametrize("value", [np.float32(0.5), np.int64(3), Fraction(1, 2), 2**70],
                             ids=repr)
    def test_real_numbers_bin_as_their_float(self, value):
        assert histogram([value], 4, (0.0, 4.0)) == histogram([float(value)], 4, (0.0, 4.0))

    @pytest.mark.parametrize("values", [[[1.0, 2.0], [3.0]], [[1.0], np.zeros((1, 2))]],
                             ids=["ragged", "unbroadcastable"])
    def test_refuses_nestings_that_are_no_array(self, values):
        with pytest.raises(InvalidParameter):
            histogram(values, 4, (0.0, 4.0))

    def test_quotients_past_the_integer_range_clamp_to_the_last_bin(self):
        # the quotient overflows to inf, which is clamped before the cast
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert histogram([1e300], 4, (0.0, 1e-320)).counts == (0, 0, 0, 1)
            assert histogram([-1e300, 1e300], 2, (0.0, 1.0)).counts == (1, 1)

    @pytest.mark.parametrize("value_range", [None, (1.0,), (0.0, 1.0, 2.0), 1.0, "ab"], ids=repr)
    def test_range_must_be_a_pair_of_real_numbers(self, value_range):
        # None raised TypeError, (1.0,) IndexError, and (0, 1, 2) was read as (0, 1)
        with pytest.raises(InvalidParameter):
            histogram([0.5], 4, value_range)

    @pytest.mark.parametrize("value_range", [(-1e308, 1e308), (0.0, 5e-324)], ids=repr)
    def test_range_needs_a_finite_nonzero_width_per_bin(self, value_range):
        # the width overflows to inf or underflows to 0, so no value bins
        with pytest.raises(InvalidParameter, match="width per bin"):
            histogram([0.0], 4, value_range)

    @pytest.mark.parametrize("bin_count", [7, 256, (1 << 16) + 5])
    def test_runs_count_as_one_bincount(self, bin_count):
        # 2**16 + 3 values span two runs, the last three values long, unless
        # the bins outnumber a run; out-of-range values clamp in either
        values = np.random.default_rng(4).uniform(-0.1, 1.1, (1 << 16) + 3)
        bins = np.clip(np.floor(values / (1.0 / bin_count)).astype(np.int64), 0, bin_count - 1)
        want = np.bincount(bins, minlength=bin_count)
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
        with pytest.raises(InvalidParameter, match="^factor must be a finite number above 0$"):
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
