"""Deterministic cart-pole simulator in three variants: the standard planar
benchmark (2d), a high-gravity copy (2dg), and a simplified 3d version built
from two independent planar systems.

Supports the empirical measures on top: constant-action limit, Monte Carlo
band-survival sparsity, and random-rollout feature/action entropy. One
formula, bound to a variant's constants by _planar, holds the dynamics: the
rollout steps Python floats with math's sine and cosine, the constant-action
trials step numpy columns with numpy's. The two are not bit-interchangeable:
a Python float's ** 2 is libm's pow and a numpy array's is x * x, which
differ in the last bit on about one uniform double in a thousand. So each
is pinned to its own oracle in the tests. Each measure refuses work whose
arrays would exceed MEMORY_BUDGET before it allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MEMORY_BUDGET,  # noqa: F401 (importable from here too)
    InvalidAction,
    InvalidParameter,
    ResourceLimit,
    check_budget,
)
from .measures import ANALYTIC, MeasureResult, histogram, monte_carlo, shannon_entropy

VARIANTS = ("2d", "2dg", "3d")

# initial state components are drawn uniformly from this interval
INIT_BOUND = 0.05

# Most random-walk steps analytic_sparsity may draw, so that no request
# runs for days: about 16 s on a 2-vCPU x86-64 machine, 27 times the 3d
# default of 100k walks of 200 steps on each of two axes.
WALK_STEP_BUDGET = 1 << 30


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InvalidParameter(f"seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class CartPoleParams:
    """Physical constants for one cart-pole variant.

    Gravity may be zero so integrator sanity checks can switch it off;
    everything else must be positive.
    """

    gravity: float = 9.8
    cart_mass: float = 1.0
    pole_mass: float = 0.1
    pole_half_length: float = 0.5
    force_magnitude: float = 10.0
    timestep: float = 0.02
    position_threshold: float = 2.4
    angle_threshold: float = 12 * 2 * math.pi / 360
    variant: str = "2d"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise InvalidParameter(f"variant must be one of {VARIANTS}")
        if self.gravity < 0:
            raise InvalidParameter("gravity cannot be negative")
        for name in (
            "cart_mass",
            "pole_mass",
            "pole_half_length",
            "force_magnitude",
            "timestep",
            "position_threshold",
            "angle_threshold",
        ):
            if getattr(self, name) <= 0:
                raise InvalidParameter(f"{name} must be positive")

    @property
    def action_count(self) -> int:
        return 4 if self.variant == "3d" else 2

    @property
    def axis_count(self) -> int:
        return 2 if self.variant == "3d" else 1

    @property
    def state_size(self) -> int:
        # one (x, x_dot, theta, theta_dot) block per axis
        return 4 * self.axis_count


def params_for_variant(variant: str) -> CartPoleParams:
    if variant == "2d":
        return CartPoleParams(variant="2d")
    if variant == "2dg":
        return CartPoleParams(gravity=250.0, variant="2dg")
    if variant == "3d":
        return CartPoleParams(variant="3d")
    raise InvalidParameter(f"variant must be one of {VARIANTS}")


def _planar(p: CartPoleParams):
    """The planar dynamics with p's constants bound once.

    Returns update(x, x_dot, theta, theta_dot, sin, cos, force), one
    semi-implicit Euler step that works elementwise on Python floats and
    numpy arrays alike; sin and cos are sin(theta) and cos(theta), computed
    by the caller. The squares stay ** 2: on a Python float that calls
    libm's pow, which can differ from v * v in the last bit, while on a
    numpy array it is np.square, that is x * x. So scalar and array steps
    of one state need not agree to the bit; each is checked against its
    own oracle.
    """
    gravity, pole_mass, half_length, dt = p.gravity, p.pole_mass, p.pole_half_length, p.timestep
    total_mass = p.cart_mass + pole_mass
    pole_ml = pole_mass * half_length

    def update(x, x_dot, theta, theta_dot, sin, cos, force):
        temp = (force + pole_ml * theta_dot**2 * sin) / total_mass
        theta_acc = (gravity * sin - cos * temp) / (
            half_length * (4.0 / 3.0 - pole_mass * cos**2 / total_mass)
        )
        x_acc = temp - pole_ml * theta_acc * cos / total_mass
        return (
            x + dt * x_dot,
            x_dot + dt * x_acc,
            theta + dt * theta_dot,
            theta_dot + dt * theta_acc,
        )

    return update


def _advance(state, forces: tuple[float, ...], update, sin, cos) -> list:
    """Step every axis block of a flat state under its force.

    state holds Python floats (stepped with math.sin/math.cos) or one numpy
    column per component (stepped with np.sin/np.cos); update is _planar's
    step; returns a list of the same kind.
    """
    out = []
    for axis, force in enumerate(forces):
        x, x_dot, theta, theta_dot = state[4 * axis : 4 * axis + 4]
        out += update(x, x_dot, theta, theta_dot, sin(theta), cos(theta), force)
    return out


def _axis_forces(action: int, params: CartPoleParams, magnitude: float):
    """Force applied to each axis for one discrete action.

    Planar variants: 0 pushes left, 1 pushes right. 3d: 0/1 push the x axis
    left/right, 2/3 push the y axis left/right; the other axis coasts.
    """
    if not isinstance(action, (int, np.integer)) or isinstance(action, bool):
        raise InvalidAction(f"action must be an integer, got {action!r}")
    if not 0 <= action < params.action_count:
        raise InvalidAction(
            f"action {action} outside the {params.variant} action set "
            f"0..{params.action_count - 1}"
        )
    direction = 1.0 if action % 2 else -1.0
    if params.variant != "3d":
        return (direction * magnitude,)
    if action < 2:
        return (direction * magnitude, 0.0)
    return (0.0, direction * magnitude)


def step(
    state: tuple[float, ...],
    action: int,
    params: CartPoleParams,
    force_override: float | None = None,
) -> tuple[float, ...]:
    """Advance one timestep; returns a new flat state tuple.

    force_override replaces the push magnitude (0.0 gives unforced dynamics)
    and exists for equilibrium and integrator tests.
    """
    if len(state) != params.state_size:
        raise InvalidParameter(
            f"{params.variant} state has {params.state_size} components"
        )
    magnitude = params.force_magnitude if force_override is None else force_override
    forces = _axis_forces(action, params, magnitude)
    return tuple(
        float(v) for v in _advance(state, forces, _planar(params), math.sin, math.cos)
    )


def is_failed(state: tuple[float, ...], params: CartPoleParams) -> bool:
    """True when any axis leaves the track or drops the pole."""
    x_limit, theta_limit = params.position_threshold, params.angle_threshold
    if abs(state[0]) > x_limit or abs(state[2]) > theta_limit:
        return True
    return params.axis_count == 2 and (abs(state[4]) > x_limit or abs(state[6]) > theta_limit)


def _columns_failed(columns: list, p: CartPoleParams) -> np.ndarray:
    failed = np.zeros(len(columns[0]), dtype=bool)
    for axis in range(p.axis_count):
        failed |= np.abs(columns[4 * axis]) > p.position_threshold
        failed |= np.abs(columns[4 * axis + 2]) > p.angle_threshold
    return failed


def constant_action_limit(params: CartPoleParams, trials: int, seed: int) -> float:
    """Mean number of identical pushes a fresh episode survives.

    Every trial starts from a uniform [-0.05, 0.05] state and repeats the
    positive x push until the failure predicate fires; the failing step is
    included in the count. The live trials are kept as one numpy column per
    state component; trials that fail are dropped after each step, and the
    step count lands at their original index, so the mean sums the same
    array in the same order whatever the order of failure.
    """
    if trials < 1:
        raise InvalidParameter("trials must be at least 1")
    _check_seed(seed)
    # two sets of state columns plus about eight per-trial temporaries
    check_budget(
        trials * (2 * params.state_size + 8) * 8,
        f"constant_action_limit with {trials} {params.variant} trials",
    )
    rng = np.random.default_rng(seed)
    start = rng.uniform(-INIT_BOUND, INIT_BOUND, size=(trials, params.state_size))
    columns = list(start.T)
    del start  # the draw is freed once the first step replaces these views
    forces = _axis_forces(1, params, params.force_magnitude)
    update = _planar(params)
    steps = np.zeros(trials)
    live = np.arange(trials)
    count = 0
    while live.size:
        count += 1
        columns = _advance(columns, forces, update, np.sin, np.cos)
        failed = _columns_failed(columns, params)
        if failed.any():
            steps[live[failed]] = count
            kept = ~failed
            live = live[kept]
            columns = [column[kept] for column in columns]
    return float(steps.mean())


# chunk size for Monte Carlo walks; fixed so results never depend on memory
_WALK_CHUNK = 16384


def analytic_sparsity(
    limit: float,
    episode_length: int = 200,
    samples: int = 100_000,
    seed: int = 0,
    axes: int = 1,
) -> float:
    """Monte Carlo fraction of random action walks that stay near balance.

    Each sample is one ±1 random walk per axis, all of episode_length steps;
    the sample survives when every axis's running sum stays within its band.
    Fractional limits round stochastically per sample, band = floor(limit + U),
    which is unbiased, reduces to the plain integer band at integer limits,
    and keeps survival strictly monotone in the limit under a shared seed.
    """
    if not 0 < limit < math.inf:  # also refuses NaN
        raise InvalidParameter(f"limit must be a positive finite number, got {limit}")
    if episode_length < 1 or samples < 1:
        raise InvalidParameter("episode_length and samples must be positive")
    if axes not in (1, 2):
        raise InvalidParameter("axes must be 1 or 2")
    _check_seed(seed)
    if limit >= episode_length:
        return 1.0
    # one chunk's int64 draws and int32 walks; the budget also keeps
    # 2 * episode_length far inside int32
    check_budget(
        min(_WALK_CHUNK, samples) * episode_length * 12,
        f"analytic_sparsity with episode_length {episode_length}",
    )
    if samples * episode_length * axes > WALK_STEP_BUDGET:
        raise ResourceLimit(
            f"analytic_sparsity with {samples} samples of {episode_length} steps "
            f"on {axes} axes draws over the {WALK_STEP_BUDGET}-step budget"
        )
    rng = np.random.default_rng(seed)
    # after k steps a +/-1 walk sits at 2 * heads - k, heads the 1-draws so far
    offsets = np.arange(1, episode_length + 1, dtype=np.int32)
    survived = 0
    done = 0
    while done < samples:
        block = min(_WALK_CHUNK, samples - done)
        bands = np.floor(limit + rng.random(block)).astype(np.int64)
        ok = np.ones(block, dtype=bool)
        for _ in range(axes):
            draws = rng.integers(0, 2, size=(block, episode_length))
            walk = np.cumsum(draws, axis=1, dtype=np.int32)
            walk *= 2
            walk -= offsets
            np.abs(walk, out=walk)
            ok &= walk.max(axis=1) <= bands
        survived += int(ok.sum())
        done += block
    return survived / samples


@dataclass(frozen=True)
class RolloutConfig:
    """Sampling plan for random-rollout entropy."""

    seed: int
    sample_count: int = 20_000
    bin_count: int = 256
    max_steps: int = 500

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        if self.sample_count < 1:
            raise InvalidParameter("sample_count must be at least 1")
        if self.bin_count < 1:
            raise InvalidParameter("bin_count must be at least 1")
        if self.max_steps < 1:
            raise InvalidParameter("max_steps must be at least 1")


# raw PCG64 words the rollout draws at a time; fixed, so its memory is too
_WORD_BLOCK = 4096


def _raw_words(bits):
    """The bit generator's 64-bit outputs in order, drawn a block at a time."""
    while True:
        yield from bits.random_raw(_WORD_BLOCK).tolist()


def _rollout(params: CartPoleParams, cfg: RolloutConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (pre-step state, action) samples of random play.

    Actions are drawn one at a time, interleaved with the initial-state
    draws of each restart, so the sample depends only on the seed. The
    draws are read from the PCG64 words behind np.random.default_rng(seed)
    and replay, bit for bit, what rng.integers(action_count) and
    rng.uniform(-INIT_BOUND, INIT_BOUND, n) would return:
    - an action takes the low 32 bits of a new word and keeps the high 32
      for the next action, as PCG64's next_uint32 does; action counts are
      powers of two, so Lemire's bounded draw never rejects and is the top
      log2(action_count) bits of the half;
    - a restart takes n whole words, w -> (w >> 11) * 2**-53 as in
      next_double, scaled onto the interval, and leaves a kept half in place.
    """
    n = params.state_size
    action_count = params.action_count
    assert action_count & (action_count - 1) == 0, "the replay needs 2**k actions"
    # the samples and a column's histogram temporaries, about eight words
    # per bin (the counts, their Python-int tuple, the probabilities) and
    # seven per raw word (the uint64 block and its Python ints)
    check_budget(
        (cfg.sample_count * (n + 4) + cfg.bin_count * 8 + _WORD_BLOCK * 7) * 8,
        f"rollout_entropy with {cfg.sample_count} {params.variant} samples "
        f"and {cfg.bin_count} bins",
    )
    words = _raw_words(np.random.default_rng(cfg.seed).bit_generator)
    features = np.empty((cfg.sample_count, n))
    actions = np.empty(cfg.sample_count, dtype=np.int64)
    feature_out, action_out = memoryview(features.reshape(-1)), memoryview(actions)
    # per action, (offset of the axis block, force) for every axis
    pushes = [
        tuple(zip(range(0, n, 4), _axis_forces(a, params, params.force_magnitude)))
        for a in range(action_count)
    ]
    update = _planar(params)
    sin, cos = math.sin, math.cos
    x_limit, theta_limit = params.position_threshold, params.angle_threshold
    max_steps = cfg.max_steps
    shift = 32 - (action_count.bit_length() - 1)  # 32 - log2(action_count)
    mask = action_count - 1
    # Generator.uniform(low, high) is low + (high - low) * next_double
    low, width = -INIT_BOUND, INIT_BOUND - -INIT_BOUND

    def fresh() -> list[float]:
        return [low + width * ((next(words) >> 11) * 2.0**-53) for _ in range(n)]

    state = fresh()
    age = 0
    kept = -1  # the high half of the last action word, or -1 once used
    k = 0
    for i in range(cfg.sample_count):
        if kept < 0:
            word = next(words)
            action = (word >> shift) & mask
            kept = word >> 32
        else:
            action = kept >> shift
            kept = -1
        action_out[i] = action
        age += 1
        failed = age >= max_steps
        for j, force in pushes[action]:
            x, x_dot, theta, theta_dot = state[j : j + 4]
            feature_out[k + j] = x
            feature_out[k + j + 1] = x_dot
            feature_out[k + j + 2] = theta
            feature_out[k + j + 3] = theta_dot
            # the step lands in the locals, for the failure test, and in state
            x, x_dot, theta, theta_dot = state[j : j + 4] = update(
                x, x_dot, theta, theta_dot, sin(theta), cos(theta), force
            )
            if abs(x) > x_limit or abs(theta) > theta_limit:
                failed = True
        k += n
        if failed:
            state = fresh()
            age = 0
    return features, actions


def rollout_entropy(
    params: CartPoleParams, cfg: RolloutConfig
) -> tuple[float, float]:
    """Entropy of feature and action distributions under random play.

    Collects (pre-step state, action) pairs from uniformly random actions,
    restarting the episode on failure or after max_steps. Each feature is
    min-max normalized over the collected sample and histogrammed into
    bin_count bins; returns (sum of per-feature bits, action bits).
    """
    features, actions = _rollout(params, cfg)
    feature_bits = 0.0
    for j in range(params.state_size):
        column = features[:, j]
        lo, hi = float(column.min()), float(column.max())
        if hi == lo:
            continue
        hist = histogram(column, cfg.bin_count, (lo, hi))
        feature_bits += shannon_entropy(hist.probabilities())
    counts = np.bincount(actions, minlength=params.action_count)
    action_bits = shannon_entropy(counts / counts.sum())
    return feature_bits, float(action_bits)


# One function per cart-pole report: each returns its measures and notes.
def limit_measures(
    params: CartPoleParams, trials: int = 10_000, seed: int = 0
) -> tuple[list[MeasureResult], list[str]]:
    return [
        MeasureResult(
            "constant_action_limit",
            constant_action_limit(params, trials, seed),
            "mean repeated identical pushes until failure; uniform "
            "[-0.05, 0.05] inits; the failing step is counted",
            monte_carlo(seed, trials),
        )
    ], []


def sparsity_measures(
    params: CartPoleParams, limit: float | None = None, trials: int = 10_000,
    samples: int | None = None, episode_length: int = 200, seed: int = 0,
) -> tuple[list[MeasureResult], list[str]]:
    """Band-survival sparsity; without a limit, the band is measured with
    constant_action_limit over trials. samples defaults to 100,000."""
    samples = samples if samples is not None else 100_000
    if limit is not None:
        limit_source, band_provenance = "user-provided action limit", ANALYTIC
    else:
        limit = constant_action_limit(params, trials, seed)
        limit_source = "measured constant-action limit"
        band_provenance = monte_carlo(seed, trials)
    value = analytic_sparsity(
        limit, episode_length=episode_length, samples=samples, seed=seed, axes=params.axis_count
    )
    return [
        MeasureResult(
            "analytic_sparsity",
            value,
            "fraction of random +/-1 walks staying inside the action-limit "
            f"band; one full-length walk per axis; band from {limit_source}; "
            f"episode_length={episode_length}; fractional limits "
            "dither the integer band per sample",
            monte_carlo(seed, samples),
        ),
        MeasureResult("action_limit_band", limit, limit_source, band_provenance),
    ], []


def entropy_measures(
    params: CartPoleParams, samples: int | None = None, bins: int = 256, seed: int = 0
) -> tuple[list[MeasureResult], list[str]]:
    """Random-rollout feature and action entropy; samples defaults to 20,000."""
    samples = samples if samples is not None else 20_000
    cfg = RolloutConfig(seed=seed, sample_count=samples, bin_count=bins)
    feature_bits, action_bits = rollout_entropy(params, cfg)
    measures = [
        MeasureResult(
            "feature_entropy_sum_bits",
            feature_bits,
            "uniform random actions, restart on failure; pre-step states; "
            f"per-feature min-max then {bins} bins; bits summed over features",
            monte_carlo(seed, samples),
        ),
        MeasureResult(
            "action_entropy_bits",
            action_bits,
            "empirical entropy of the uniform random action stream",
            monte_carlo(seed, samples),
        ),
    ]
    notes = [] if params.variant != "3d" else [
        "published 3d action entropy 2.322 bits equals log2(5); this "
        "action set has 4 pushes, so 2.0 bits is the ceiling here"
    ]
    return measures, notes
