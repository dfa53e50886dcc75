"""Core scalar measures: Gini sparsity, Shannon entropy, histograms,
diversity statistics, and log10-space products for counts too large to form.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    DegenerateInput,
    InvalidDistribution,
    InvalidParameter,
    InvalidValue,
    Record,
    check_budget,
    check_count,
    check_real,
)

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that compute with it, so the
# closed forms below (log10_product, log10_int, gtc_power, Power), gini, the
# entropies and the result types load without it.

# Probability vectors must sum to 1 within this tolerance.
PROB_TOLERANCE = 1e-9

# values histogram bins at a time
_HISTOGRAM_CHUNK = 1 << 16


def _floats(values, error: type) -> list[float]:
    """values as a flat list of Python floats; an array of any shape is
    read in row-major order. error is raised for anything else."""
    if hasattr(values, "ravel"):  # an array, so numpy is loaded already
        values = values.ravel().tolist()
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise error("expected an array or a flat sequence of numbers") from exc


def real_array(values, name: str) -> np.ndarray:
    """values as a float array of their own shape. An integer or float
    ndarray is converted as it is, its values left for the caller to check;
    anything else goes item by item through check_real, as numpy would read
    True as 1.0 and "1.5" as 1.5. name starts the InvalidParameter message.
    """
    import numpy as np

    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(float, copy=False)
    try:
        items = np.asarray(values, dtype=object)
    except ValueError:  # nested arrays that do not broadcast
        raise InvalidParameter(f"{name} values must be an array of numbers") from None
    reals = [check_real(x, f"each {name} value") for x in items.flat]
    return np.array(reals, dtype=float).reshape(items.shape)


def _pairwise(x: list[float], lo: int, n: int) -> float:
    if n < 8:
        total = -0.0
        for v in x[lo : lo + n]:
            total += v
        return total
    if n <= 128:
        end = lo + n - n % 8
        r = []
        for j in range(lo, lo + 8):
            acc = x[j]
            for v in x[j + 8 : end : 8]:
                acc += v
            r.append(acc)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in x[end : lo + n]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(x, lo, half) + _pairwise(x, lo + half, n - half)


def pairwise_sum(x: list[float]) -> float:
    """Sum of a list of floats in the order of numpy's float64 add.reduce,
    so that it equals numpy's sum of the same terms bit for bit: fewer than
    8 terms are added left to right from -0.0; up to 128 go to 8 strided
    accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    leftover terms in order; longer lists split at n/2 rounded down to a
    multiple of 8. The reduction starts from 0.0, so an empty sum is 0.0 and
    a sum of -0.0 terms is 0.0. Pairwise summation's error grows with
    log n, not n (Higham, SIAM J. Sci. Comput. 14, 1993)."""
    return 0.0 + _pairwise(x, 0, len(x))


def gini(values: Sequence[float]) -> float:
    """Gini index of an array of finite, non-negative values: with the N
    values sorted ascending, sum_k (2k - N - 1) x_(k) / (N sum_k x_k)
    (Hurley and Rickard, IEEE Trans. Inf. Theory 55, 2009). Both sums are
    exact, over the values scaled to integers by one power of two, and
    their ratio is rounded once. 0 for an even array; approaches 1 - 1/N
    when one element holds all the mass.
    """
    c = _floats(values, InvalidValue)
    if not c:
        raise DegenerateInput("gini needs at least one value")
    if not all(map(math.isfinite, c)):
        raise InvalidValue("gini is defined for finite values only")
    c.sort()
    if c[0] < 0:
        raise InvalidValue("gini is defined for non-negative values only")
    # num / d, d a power of two, times the largest d is num << (its bits - d's)
    ratios = list(map(float.as_integer_ratio, c))
    shift = max(d for _, d in ratios).bit_length()
    x = [num << (shift - d.bit_length()) for num, d in ratios]
    total = sum(x)
    if total == 0:
        raise DegenerateInput("gini is undefined for an all-zero array")
    n = len(x)
    return sum(map(operator.mul, range(1 - n, n, 2), x)) / (n * total)


def _check_distribution(p: list[float]) -> None:
    if not p:
        raise InvalidDistribution("empty probability vector")
    if not all(0.0 <= x <= 1.0 for x in p):  # also refuses NaN
        raise InvalidDistribution("probabilities must be finite and lie in [0, 1]")
    total = pairwise_sum(p)
    if abs(total - 1.0) > PROB_TOLERANCE:
        raise InvalidDistribution(f"probabilities sum to {total!r}, not 1")


def shannon_entropy(probabilities: Sequence[float]) -> float:
    """Shannon entropy in bits; 0 * log2(0) is taken as 0."""
    p = _floats(probabilities, InvalidDistribution)
    _check_distribution(p)
    # 0.0 - s, not -s: a point mass gives 0.0, not -0.0; all else is -s
    return 0.0 - pairwise_sum([x * math.log2(x) for x in p if x > 0.0])


def normalized_entropy(probabilities: Sequence[float], event_count: int) -> float:
    """Entropy divided by log2(event_count).

    Equals 1 only for the uniform distribution over event_count events, so
    the caller must state how many events the normalization assumes.
    """
    event_count = check_count(event_count, "event_count", 2)
    return shannon_entropy(probabilities) / math.log2(event_count)


class Histogram(Record):
    """Equal-width bin counts over an inclusive [lo, hi] range."""

    lo: float
    hi: float
    counts: tuple[int, ...]

    @property
    def bin_count(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def probabilities(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.counts, dtype=float) / self.total


def histogram(
    values: Sequence[float], bin_count: int, value_range: tuple[float, float]
) -> Histogram:
    """Bin values into bin_count equal-width bins over value_range.

    A value v maps to bin min(floor((v - lo) / width), bin_count - 1);
    values outside the range clamp to the boundary bins. Every value must
    be a finite real number, and value_range a pair of them, hi above lo.
    """
    import numpy as np

    bin_count = check_count(bin_count, "bin_count")
    try:
        lo, hi = value_range
    except (TypeError, ValueError):
        raise InvalidParameter("value_range must be a pair (lo, hi)") from None
    lo = check_real(lo, "value range lo")
    hi = check_real(hi, "value range hi", lo, above=True)
    width = (hi - lo) / bin_count
    if not 0.0 < width < math.inf:
        raise InvalidParameter("value range has no finite, nonzero width per bin")
    v = real_array(values, "histogram").ravel()
    if v.size == 0:
        raise DegenerateInput("histogram needs at least one value")
    # A run at a time, so the temporaries do not grow with the values; a run
    # is at least bin_count long, as each run's bincount spans every bin.
    run = max(_HISTOGRAM_CHUNK, bin_count)
    counts = np.zeros(bin_count, dtype=np.int64)
    for start in range(0, v.size, run):
        chunk = v[start : start + run]
        if not np.isfinite(chunk).all():
            raise InvalidParameter("each histogram value must be a finite number")
        # a value far outside the range overflows to an infinite quotient,
        # which is clamped while still a float, before any integer cast
        with np.errstate(over="ignore"):
            idx = np.clip(np.floor((chunk - lo) / width), 0, bin_count - 1)
        counts += np.bincount(idx.astype(np.intp), minlength=bin_count)
    return Histogram(lo=lo, hi=hi, counts=tuple(int(c) for c in counts))


def variance_diversity(values: Sequence[float]) -> float:
    """Population variance (divides by N, not N - 1)."""
    import numpy as np

    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise DegenerateInput("variance needs at least one value")
    return float(v.var())


def attribute_diversity(entities: Iterable[Iterable]) -> int:
    """Number of distinct attribute values across all entities."""
    distinct: set = set()
    for attributes in entities:
        distinct.update(attributes)
    return len(distinct)


def distance_diversity(points: Sequence[Sequence[float]], metric: str = "euclidean") -> float:
    """Mean pairwise distance over unordered point pairs."""
    import numpy as np

    try:
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidValue("points must share one dimensionality") from exc
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise InvalidValue("points must be a flat list of coordinate vectors")
    count, dims = pts.shape
    if count < 2:
        raise DegenerateInput("distance diversity needs at least two points")
    # float64 temporaries: the N x N x D differences and their squares or
    # absolute values, the N x N distances, and the upper triangle's two
    # index arrays and values
    check_budget(8 * (2 * count * count * dims + count * count + 3 * (count * (count - 1) // 2)),
                 f"pairwise distances of {count} points")
    diff = pts[:, None, :] - pts[None, :, :]
    if metric == "euclidean":
        dists = np.sqrt((diff**2).sum(axis=2))
    elif metric == "manhattan":
        dists = np.abs(diff).sum(axis=2)
    else:
        raise InvalidParameter(f"unknown metric {metric!r}")
    iu = np.triu_indices(count, k=1)
    return float(dists[iu].mean())


def gtc_power(branching_factor: float, depth: float) -> float:
    """log10 of branching_factor ** depth, computed in log space."""
    branching_factor = check_real(branching_factor, "branching factor", 1, above=True)
    return check_real(depth, "depth", 0, above=True) * math.log10(branching_factor)


class Power(Record):
    """A factor kept as base ** exp so huge products never materialize."""

    base: int
    exp: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", check_count(self.base, "power base"))
        object.__setattr__(self, "exp", check_count(self.exp, "power exponent", 0))
        try:
            finite = math.isfinite(self.log10())
        except OverflowError:  # an exponent beyond the float range
            finite = False
        if not finite:
            raise InvalidValue("power exponent puts log10 of the power past the float range")

    def log10(self) -> float:
        return self.exp * math.log10(self.base)


def log10_product(factors: Iterable) -> float:
    """Sum log10 over plain factors and Power factors.

    The product itself is never formed, so a Power factor like 20000 ** 5
    may lie past the float range; each plain factor must be a positive
    finite number. An empty sequence gives log10(1) = 0.
    """
    total = 0.0
    for factor in factors:
        if isinstance(factor, Power):
            total += factor.log10()
        else:
            total += math.log10(check_real(factor, "factor", 0, above=True))
    return total


def log10_int(n: int) -> float:
    """log10 of a positive big integer, safe far beyond float range."""
    if n <= 0:
        raise InvalidValue("log10 needs a positive integer")
    shift = max(n.bit_length() - 53, 0)
    # drop bits below float precision; the truncation error is ~1 ulp
    return math.log10(n >> shift) + shift * math.log10(2.0)


class Provenance(Record):
    """How a value was obtained: closed form, exhaustive count, sampling
    (with its seed and sample count), or deterministic quadrature (with the
    points it evaluated as samples)."""

    kind: str
    seed: int | None = None
    samples: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("analytic", "enumerated", "monte_carlo", "quadrature"):
            raise InvalidParameter(f"unknown provenance kind {self.kind!r}")
        if self.kind == "monte_carlo" and (self.seed is None or self.samples is None):
            raise InvalidParameter("monte_carlo provenance records seed and samples")
        if self.kind == "quadrature" and (self.seed is not None or self.samples is None):
            raise InvalidParameter("quadrature provenance records samples and no seed")
        # stored as Python ints, so that a numpy integer reaches no report
        for name, least in (("seed", 0), ("samples", 1)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_count(getattr(self, name), name, least))


ANALYTIC = Provenance("analytic")
ENUMERATED = Provenance("enumerated")


def monte_carlo(seed: int, samples: int) -> Provenance:
    return Provenance("monte_carlo", seed=seed, samples=samples)


def quadrature(samples: int) -> Provenance:
    return Provenance("quadrature", samples=samples)


class MeasureResult(Record):
    """A named measure value plus the convention and provenance behind it."""

    measure_name: str
    value: float
    convention: str
    provenance: Provenance

    def __post_init__(self) -> None:
        if not self.measure_name:
            raise InvalidParameter("measure_name must be non-empty")
        if not self.convention:
            raise InvalidParameter("every result must record its convention")
        # stored as a Python float, so no format prints NaN or infinity,
        # which JSON could not hold anyway
        try:
            value = check_real(self.value, f"measure {self.measure_name} value")
        except InvalidParameter:
            if isinstance(self.value, float):  # the measure's arithmetic overflowed or failed
                raise InvalidValue(
                    f"measure {self.measure_name} came out {self.value}, not a finite number"
                ) from None
            raise
        object.__setattr__(self, "value", value)
