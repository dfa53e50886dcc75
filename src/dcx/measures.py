"""Core scalar measures: Gini sparsity, Shannon entropy, histograms,
diversity statistics, and log10-space products for counts too large to form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    DegenerateInput,
    InvalidDistribution,
    InvalidParameter,
    InvalidValue,
    check_budget,
    check_count,
)

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that compute with it, so the
# closed forms below (log10_product, log10_int, gtc_power, Power) and the
# result types load without it.

# Probability vectors must sum to 1 within this tolerance.
PROB_TOLERANCE = 1e-9

# values histogram bins at a time
_HISTOGRAM_CHUNK = 1 << 16


def gini(values: Sequence[float]) -> float:
    """Gini index of an array of finite, non-negative values.

    Sorts ascending and weights each normalized value by (N - k + 1/2) / N.
    Returns 0 for a perfectly even array and approaches 1 - 1/N when a
    single element holds all the mass.
    """
    import numpy as np

    c = np.asarray(values, dtype=float).ravel()
    if c.size == 0:
        raise DegenerateInput("gini needs at least one value")
    if not np.isfinite(c).all():
        raise InvalidValue("gini is defined for finite values only")
    if np.any(c < 0):
        raise InvalidValue("gini is defined for non-negative values only")
    with np.errstate(over="ignore"):
        total = float(c.sum())
    if math.isinf(total):  # the index is scale-free, so sum a scaled copy
        c = c / c.max()
        total = float(c.sum())
    if total == 0.0:
        raise DegenerateInput("gini is undefined for an all-zero array")
    c = np.sort(c)
    n = c.size
    ranks = np.arange(1, n + 1)
    return float(1.0 - 2.0 * np.sum((c / total) * ((n - ranks + 0.5) / n)))


def _check_distribution(p: np.ndarray) -> None:
    import numpy as np

    if p.size == 0:
        raise InvalidDistribution("empty probability vector")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise InvalidDistribution("probabilities must lie in [0, 1]")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_TOLERANCE:
        raise InvalidDistribution(f"probabilities sum to {total!r}, not 1")


def shannon_entropy(probabilities: Sequence[float]) -> float:
    """Shannon entropy in bits; 0 * log2(0) is taken as 0."""
    import numpy as np

    p = np.asarray(probabilities, dtype=float).ravel()
    _check_distribution(p)
    nz = p[p > 0.0]
    # 0.0 - s, not -s: a point mass gives 0.0, not -0.0; all else is -s
    return float(0.0 - (nz * np.log2(nz)).sum())


def normalized_entropy(probabilities: Sequence[float], event_count: int) -> float:
    """Entropy divided by log2(event_count).

    Equals 1 only for the uniform distribution over event_count events, so
    the caller must state how many events the normalization assumes.
    """
    event_count = check_count(event_count, "event_count", 2)
    return shannon_entropy(probabilities) / math.log2(event_count)


@dataclass(frozen=True)
class Histogram:
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
    values outside the range clamp to the boundary bins.
    """
    import numpy as np

    bin_count = check_count(bin_count, "bin_count")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not hi > lo:
        raise InvalidParameter("value range must satisfy hi > lo")
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise DegenerateInput("histogram needs at least one value")
    # A run at a time, so the temporaries do not grow with the values; a run
    # is at least bin_count long, as each run's bincount spans every bin.
    run = max(_HISTOGRAM_CHUNK, bin_count)
    width = (hi - lo) / bin_count
    counts = np.zeros(bin_count, dtype=np.int64)
    for start in range(0, v.size, run):
        idx = np.floor((v[start : start + run] - lo) / width).astype(np.int64)
        counts += np.bincount(np.clip(idx, 0, bin_count - 1), minlength=bin_count)
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
    if branching_factor <= 1:
        raise InvalidParameter("branching factor must exceed 1")
    if depth <= 0:
        raise InvalidParameter("depth must be positive")
    return depth * math.log10(branching_factor)


@dataclass(frozen=True)
class Power:
    """A factor kept as base ** exp so huge products never materialize."""

    base: int
    exp: int

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise InvalidValue("power base must be positive")
        if self.exp < 0:
            raise InvalidValue("power exponent must be non-negative")
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

    The product itself is never formed, so factors like 20000 ** 5 stay
    exact; an empty sequence gives log10(1) = 0.
    """
    total = 0.0
    for factor in factors:
        if isinstance(factor, Power):
            total += factor.log10()
            continue
        if factor <= 0:
            raise InvalidValue(f"factor {factor!r} is not positive")
        total += math.log10(factor)
    return total


def log10_int(n: int) -> float:
    """log10 of a positive big integer, safe far beyond float range."""
    if n <= 0:
        raise InvalidValue("log10 needs a positive integer")
    shift = max(n.bit_length() - 53, 0)
    # drop bits below float precision; the truncation error is ~1 ulp
    return math.log10(n >> shift) + shift * math.log10(2.0)


@dataclass(frozen=True)
class Provenance:
    """How a value was obtained: closed form, exhaustive count, or sampling."""

    kind: str
    seed: int | None = None
    samples: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("analytic", "enumerated", "monte_carlo"):
            raise InvalidParameter(f"unknown provenance kind {self.kind!r}")
        if self.kind == "monte_carlo" and (self.seed is None or self.samples is None):
            raise InvalidParameter("monte_carlo provenance records seed and samples")


ANALYTIC = Provenance("analytic")
ENUMERATED = Provenance("enumerated")


def monte_carlo(seed: int, samples: int) -> Provenance:
    return Provenance("monte_carlo", seed=seed, samples=samples)


@dataclass(frozen=True)
class MeasureResult:
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
