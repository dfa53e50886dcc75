"""Deterministic cart-pole simulator (Barto, Sutton & Anderson, 1983) in
three variants: the standard planar benchmark (2d), a high-gravity copy
(2dg), and a simplified 3d version built from two independent planar systems.

The dynamics have one path: _planar binds a variant's constants into one
in-place semi-implicit Euler step of every episode and axis, which also
tests the new state for failure, under the forces _force_table gives each
action. _lockstep steps a block of episodes from the initial states its
caller chose, in a _workspace the measure allocates once, and drops the
episodes that end. Two measures run on it: the constant-action limit, a
deterministic quadrature over a grid of start states, and the
random-rollout feature/action entropy, the one Monte Carlo measure. Their
memory therefore does not grow with the state or sample count, and their
steps reuse the workspace's buffers rather than allocate their own.
Band-survival sparsity is counted exactly.
Each measure refuses oversized work before it starts: past MEMORY_BUDGET
for the rollout's arrays, past WORK_BUDGET for the band and the limit's
cap on start states. _lockstep charges each step to WORK_BUDGET too, so
episodes that never fail end in ResourceLimit rather than run on.
"""

from __future__ import annotations

import math
import sys
from operator import add

import numpy as np

from .errors import (
    InvalidParameter,
    Record,
    ResourceLimit,
    check_budget,
    check_count,
    check_real,
    count_text,
    replace,
)
from .measures import (
    ANALYTIC,
    MeasureResult,
    Provenance,
    histogram,
    monte_carlo,
    quadrature,
    shannon_entropy,
)

VARIANTS = ("2d", "2dg", "3d")

# initial state components are drawn uniformly from this interval
INIT_BOUND = 0.05

# Most work analytic_sparsity, constant_action_limit or the rollout may do,
# so that no request runs for days, in modelled ns on a 2-vCPU x86-64
# machine: per band counted, 400 per step plus, per band cell and step, 30
# and 1 more per 64 steps of episode (the counts grow to episode_length
# bits); 750 per start state and axis of the limit's cap before it starts,
# and _STEP_NS and _ROW_NS per _lockstep step, and _CLIP_NS per clipped
# start state and step, as they run. 2**34 ns is about 17 s (a loaded host
# took up to twice the model): 38,000 times the 3d sparsity default, or a
# cap of 22.9M planar start states.
WORK_BUDGET = 1 << 34

# constant_action_limit's quadrature ends once two successive grid levels
# agree within this; its first level has _FIRST_LEVEL points per axis
LIMIT_TOLERANCE = 1e-4
_FIRST_LEVEL = 16
# the limit's grid states stepped at a time; fixed, so its memory is too
_TRIAL_BLOCK = 1 << 15
# rounding allowed for in the limit's affine x rule, in metres
_X_MARGIN = 1e-9
# the uniform (x_0, x_dot_0) box the rule clips, as a polygon
_BOX = [(-INIT_BOUND, -INIT_BOUND), (INIT_BOUND, -INIT_BOUND), (INIT_BOUND, INIT_BOUND),
        (-INIT_BOUND, INIT_BOUND)]
# rollout episodes stepped at a time; fixed, since the samples depend on it
_EPISODE_BLOCK = 1 << 10
# modelled ns of one _lockstep step per axis: the ufunc calls', and 70 per
# live episode, so the 9.4 steps of a 2d episode come to about 680 of the
# 750 per start state
_STEP_NS = 30_000
_ROW_NS = 70
# modelled ns of the limit's x rule per clipped start state and step
_CLIP_NS = 10_000


def _check_work(ns: int, work: str, *args) -> None:
    """Raise ResourceLimit when ns, work's modelled cost, is past WORK_BUDGET;
    only then is work formatted with args, each int as count_text."""
    if ns > WORK_BUDGET:
        work = work.format(*(count_text(a) if isinstance(a, int) else a for a in args))
        raise ResourceLimit(f"{work} is over the {WORK_BUDGET} ns work budget")


class CartPoleParams(Record):
    """Physical constants for one cart-pole variant.

    Every constant must be finite. Gravity may be zero so integrator sanity
    checks can switch it off; everything else must be positive.
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
        for name in ("gravity", "cart_mass", "pole_mass", "pole_half_length", "force_magnitude",
                     "timestep", "position_threshold", "angle_threshold"):
            value = check_real(getattr(self, name), name, 0, above=name != "gravity")
            object.__setattr__(self, name, value)

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
    if variant == "2dg":
        return CartPoleParams(gravity=250.0, variant="2dg")
    return CartPoleParams(variant=variant)  # refuses a variant outside VARIANTS


def _workspace(p: CartPoleParams, rows: int) -> tuple:
    """Buffers for stepping up to rows episodes of p's variant, allocated
    once and reused for every block: two state buffers of 4 x axes x rows
    floats, 5 x axes x rows floats of scratch for _planar's step, and
    (2 x axes + 1) x rows booleans for its failure test."""
    n = p.axis_count * rows
    return np.empty((2, 4 * n)), np.empty(5 * n), np.empty((2 * p.axis_count + 1) * rows, bool)


def _planar(p: CartPoleParams):
    """The planar dynamics with p's constants bound once.

    Returns step(state, out, force, scratch, flags), one semi-implicit Euler
    step of every live episode and axis. state holds them component-major
    and flat: x, theta, x_dot and theta_dot, in that order, each one run of
    axes x live values in which one axis's live episodes follow another's.
    step writes the next state to out, a buffer of state's size, with
    positional-out ufuncs; force is each axis's force, an axes x 1 or
    axes x live array; scratch and flags are a _workspace's. The float
    operations are those of the expressions in the comments, in their
    order, so each value is what those give on numpy columns; a square is
    x * x, as a numpy array's ** 2 is. step returns, as a view into flags,
    which live episodes the new state has off the track or with the pole
    dropped.
    """
    # as 0-d arrays, which numpy takes faster than Python floats of equal value
    gravity, pole_mass, half_length, dt, total_mass, pole_ml, four_thirds = map(np.array, (
        p.gravity, p.pole_mass, p.pole_half_length, p.timestep, p.cart_mass + p.pole_mass,
        p.pole_mass * p.pole_half_length, 4.0 / 3.0,
    ))
    axes = p.axis_count
    thresholds = np.array([[p.position_threshold], [p.angle_threshold]])

    def step(state, out, force, scratch, flags):
        n = state.size // 4
        theta, theta_dot = state[n : 2 * n], state[3 * n :]
        sin, cos, temp, x_acc, theta_acc = scratch[: 5 * n].reshape(5, n)
        np.sin(theta, sin)
        np.cos(theta, cos)
        # temp = (force + pole_ml * theta_dot**2 * sin) / total_mass
        np.square(theta_dot, temp)
        np.multiply(temp, pole_ml, temp)
        np.multiply(temp, sin, temp)
        by_axis = temp.reshape(axes, -1)
        np.add(force, by_axis, by_axis)
        np.divide(temp, total_mass, temp)
        # theta_acc = (gravity * sin - cos * temp)
        #     / (half_length * (4 / 3 - pole_mass * cos**2 / total_mass))
        np.multiply(sin, gravity, theta_acc)
        np.multiply(cos, temp, x_acc)
        np.subtract(theta_acc, x_acc, theta_acc)
        np.square(cos, x_acc)
        np.multiply(x_acc, pole_mass, x_acc)
        np.divide(x_acc, total_mass, x_acc)
        np.subtract(four_thirds, x_acc, x_acc)
        np.multiply(x_acc, half_length, x_acc)
        np.divide(theta_acc, x_acc, theta_acc)
        # x_acc = temp - pole_ml * theta_acc * cos / total_mass
        np.multiply(theta_acc, pole_ml, x_acc)
        np.multiply(x_acc, cos, x_acc)
        np.divide(x_acc, total_mass, x_acc)
        np.subtract(temp, x_acc, x_acc)
        # (x, theta) + dt * (x_dot, theta_dot), (x_dot, theta_dot) + dt * (x_acc, theta_acc)
        positions, velocities = out[: 2 * n], out[2 * n :]
        np.multiply(state[2 * n :], dt, positions)
        np.add(positions, state[: 2 * n], positions)
        np.multiply(scratch[3 * n : 5 * n], dt, velocities)
        np.add(velocities, state[2 * n :], velocities)
        # failed: |x| or |theta| past its threshold on any axis
        magnitudes = scratch[: 2 * n]
        np.abs(positions, magnitudes)
        past = flags[: 2 * n]
        np.greater(magnitudes.reshape(2, n), thresholds, past.reshape(2, n))
        live = n // axes
        failed = flags[2 * n : 2 * n + live]
        return np.logical_or.reduce(past.reshape(2 * axes, live), 0, None, failed)

    return step


def _force_table(p: CartPoleParams) -> np.ndarray:
    """Each axis's force under each action: axis_count x action_count.

    Planar variants: 0 pushes left, 1 pushes right. 3d: 0/1 push the x axis
    left/right, 2/3 push the y axis left/right; the other axis coasts.
    """
    table = np.zeros((p.axis_count, p.action_count))
    for axis in range(p.axis_count):
        table[axis, 2 * axis : 2 * axis + 2] = (-p.force_magnitude, p.force_magnitude)
    return table


def _lockstep(p: CartPoleParams, states, workspace, push, end, spent: int,
              horizon: float = math.inf) -> tuple[list, int]:
    """Step the episodes that start at states, a rows x state_size array,
    together in workspace (a _workspace for at least rows) until each has
    ended, at step horizon at the latest.

    ids holds the live episodes' rows of states, in order; _lockstep never
    writes to it. Before each step push(state, ids) returns each axis's
    force for the live episodes, given their state in _planar's layout;
    after step t, end(t, failed, ids) returns which of them end there,
    given those that left the track or dropped the pole, or all of them at
    step horizon, and _lockstep may overwrite what it returns. Each step is
    charged to spent, the modelled ns so far; past WORK_BUDGET it raises
    ResourceLimit. Returns (the live episodes at each step, spent), so the
    episodes' steps come to the sum of the first.
    """
    buffers, scratch, flags = workspace
    step = _planar(p)
    axes, live = p.axis_count, len(states)
    ids = np.arange(live)
    state, out = buffers[:, : 4 * axes * live]
    # each row's x, x_dot, theta, theta_dot per axis into the x, theta,
    # x_dot and theta_dot runs
    state.reshape(2, 2, axes, live)[...] = states.reshape(live, axes, 2, 2).T
    lives = []
    while live:
        spent += axes * (_STEP_NS + _ROW_NS * live)
        _check_work(spent, "stepping {} episodes past step {}", p.variant, len(lives))
        lives.append(live)
        t = len(lives)
        failed = step(state, out, push(state, ids), scratch, flags)
        if t >= horizon:
            failed[:] = True
        done = end(t, failed, ids)
        state, out = out, state
        ended = int(np.count_nonzero(done))
        if ended:
            kept = live - ended
            # the episodes that go on, in order, into the other buffer; take's
            # clip mode writes straight to out, where compress and take's
            # default mode first copy it
            kept_rows = np.logical_not(done, done).nonzero()[0]
            state.reshape(4 * axes, live).take(
                kept_rows, 1, out[: 4 * axes * kept].reshape(4 * axes, kept), "clip"
            )
            ids, live = ids[kept_rows], kept
            state, out = out[: 4 * axes * live], state[: 4 * axes * live]
    return lives, spent


def _clip(polygon: list, a: float, b: float, c: float) -> list:
    """The part of a convex polygon, a list of (u, v) vertices in order,
    where a * u + b * v <= c (one Sutherland-Hodgman pass)."""
    out = []
    u0, v0 = polygon[-1]
    d0 = a * u0 + b * v0 - c
    for u1, v1 in polygon:
        d1 = a * u1 + b * v1 - c
        if (d0 <= 0) != (d1 <= 0):
            s = d0 / (d0 - d1)
            out.append((u0 + s * (u1 - u0), v0 + s * (v1 - v0)))
        if d1 <= 0:
            out.append((u1, v1))
        u0, v0, d0 = u1, v1, d1
    return out


def _area(polygon: list) -> float:
    """The shoelace area of a polygon's vertex list."""
    edges = zip(polygon, polygon[1:] + polygon[:1])
    return abs(sum(u0 * v1 - u1 * v0 for (u0, v0), (u1, v1) in edges)) / 2


def _axis_survival(params: CartPoleParams, force: float, n: int, horizon: float,
                   workspace, starts, spent: int) -> tuple[list, int]:
    """One axis of constant_action_limit's level n: (S, spent), where S[k]
    sums, over the n x n midpoint grid of (theta_0, theta_dot_0), the
    probability over the uniform (x_0, x_dot_0) box that the axis is still
    up before step k + 1 under a constant force.

    Each grid state starts at x = x_dot = 0 and is stepped by _lockstep in
    blocks of starts' rows until its pole falls or for horizon steps. The cart's acceleration does not read x or x_dot, so
    from another start x_t = x_0 + t * dt * x_dot_0 + D_t, where D_t is
    the grid state's own x. Where |D_t| + INIT_BOUND * (1 + t * dt) stays
    below the position threshold less _X_MARGIN, no start in the box
    leaves the track by step t; else the (x_0, x_dot_0) that stay are a
    convex polygon, clipped by each such step's strip, and its area is
    their share. A state ends once its polygon is empty.
    """
    # the failure test sees the pole only; the track edge is the polygon's
    stepped = replace(params, variant="2d", position_threshold=sys.float_info.max)
    threshold, dt = params.position_threshold - _X_MARGIN, params.timestep
    forces = np.array([[force]])
    nodes = -INIT_BOUND + (np.arange(n) + 0.5) * (2 * INIT_BOUND / n)
    box = 4 * INIT_BOUND * INIT_BOUND
    survival: list = []
    rows = min(_TRIAL_BLOCK, n * n)
    for first in range(0, n, rows // n):
        block = starts[:rows].reshape(rows // n, n, 4)
        block[:, :, 2] = nodes[first : first + rows // n, None]
        block[:, :, 3] = nodes
        # per step, the share the clipped states lost; a clipped state's
        # [polygon, share] by its episode id, in the order it was clipped
        lost, clipped = [], {}
        clip_ns = 0

        def push(state, ids):
            nonlocal clip_ns
            t = len(lost)
            x = state[: ids.size]
            slack = threshold - INIT_BOUND * (1 + t * dt)
            if t and max(float(x.max()), -float(x.min())) >= slack:
                for row in np.flatnonzero(np.abs(x) >= slack).tolist():
                    entry = clipped.setdefault(int(ids[row]), [_BOX, 1.0])
                    d = float(x[row])
                    polygon = _clip(entry[0], 1.0, t * dt, threshold - d)
                    polygon = _clip(polygon, -1.0, -t * dt, threshold + d) if polygon else polygon
                    entry[:] = polygon, _area(polygon) / box if polygon else 0.0
            if clipped:
                clip_ns += _CLIP_NS * len(clipped)
                _check_work(spent + clip_ns, "clipping {} x starts past step {}", params.variant, t)
            lost.append(sum(1.0 - share for _, share in clipped.values()))
            return forces

        def end(t, failed, ids):
            # a state ends once its polygon is empty, and leaves clipped as it ends
            keys = list(clipped)
            for key, row in zip(keys, ids.searchsorted(keys).tolist()):
                failed[row] |= clipped[key][1] == 0.0
                if failed[row]:
                    del clipped[key]
            return failed

        lives, spent = _lockstep(stepped, starts[:rows], workspace, push, end, spent, horizon)
        spent += clip_ns
        for k, (live, share) in enumerate(zip(lives, lost)):
            # an int while no state is clipped, so that the sums stay exact
            live = live - share if share else live
            if k < len(survival):
                survival[k] += live
            else:
                survival.append(live)
    return survival, spent


def constant_action_limit(
    params: CartPoleParams, trials: int, *, levels: list | None = None
) -> float:
    """Mean number of identical pushes a fresh episode survives.

    Every episode starts from a uniform [-0.05, 0.05] state and repeats the
    positive x push until the failure predicate fires; the failing step is
    included in the count. Under that push the pole's motion reads only its
    own (theta, theta_dot), so the mean is an integral over those two (see
    _axis_survival for x), taken by midpoint grids of n x n start states:
    n = 16 first, then doubled until two successive levels agree within
    LIMIT_TOLERANCE or the next level would take the start states stepped
    past trials. The 16 x 16 level always runs. For 3d the axes are
    independent, so E[T] = sum over k of P(T_push >= k) * P(T_coast >= k);
    the coasting axis steps the same grid, only as far as the pushed axis's
    longest episode at that level, and a start state counts once for both.
    A cap past WORK_BUDGET is refused before any step, and stepping past
    it, which only thresholds the push never reaches allow, is refused as
    it happens. levels, when given, receives each level's (n, value, start
    states stepped so far).
    """
    trials = check_count(trials, "trials")
    _check_work(trials * params.axis_count * 750,
                "constant_action_limit with {} {} start states", trials, params.variant)
    # every level runs only while its n * n start states fit in trials
    rows = min(max(trials, _FIRST_LEVEL**2), _TRIAL_BLOCK)
    workspace = _workspace(replace(params, variant="2d"), rows)
    starts = np.zeros((rows, 4))  # x and x_dot stay 0
    force = params.force_magnitude
    done, spent, n, previous = 0, 0, _FIRST_LEVEL, None
    while True:
        pushed, spent = _axis_survival(params, force, n, math.inf, workspace, starts, spent)
        survivals = [pushed]
        if params.variant == "3d":
            coast, spent = _axis_survival(params, 0.0, n, len(pushed), workspace, starts, spent)
            survivals.append(coast)
        # exact while no state was clipped: a sum of ints over n**2 per axis
        value = sum(map(math.prod, zip(*survivals))) / n ** (2 * len(survivals))
        done += n * n
        if levels is not None:
            levels.append((n, value, done))
        converged = previous is not None and abs(value - previous) <= LIMIT_TOLERANCE
        if converged or done + (2 * n) ** 2 > trials:
            return value
        previous, n = value, 2 * n


def _surviving_walks(band: int, length: int) -> int:
    """How many of the 2**length +/-1 walks of length steps stay within
    [-band, band], counted exactly by dynamic programming over positions."""
    if band >= length:
        return 1 << length
    # walks ending at each position, with an absorbing cell past either edge
    counts = [0] * (band + 1) + [1] + [0] * (band + 1)
    for _ in range(length):
        counts = [0, *map(add, counts, counts[2:]), 0]
    return sum(counts)


def analytic_sparsity(limit: float, episode_length: int = 200, axes: int = 1) -> float:
    """Probability that random action walks stay near balance: each axis
    takes one independent +/-1 walk of episode_length steps, and the episode
    survives when every running sum stays within [-band, band]. With P(b)
    one walk's survival, a fractional limit L = b + f is interpolated between
    its neighbouring integer bands, (1 - f) * P(b)**axes + f * P(b + 1)**axes:
    the expectation when each episode draws its band as floor(L + U), U
    uniform on [0, 1). The walks are counted exactly, so the value is that
    number correctly rounded and never decreases as the limit grows.
    """
    limit = check_real(limit, "limit", 0, above=True)
    episode_length = check_count(episode_length, "episode_length")
    axes = check_count(axes, "axes")
    if axes > 2:
        raise InvalidParameter("axes must be 1 or 2")
    if limit >= episode_length:
        return 1.0
    band = math.floor(limit)
    # both bands' cells, including the absorbing ones, as for a fractional limit
    _check_work(episode_length * (800 + (4 * band + 8) * (30 + episode_length // 64)),
                "analytic_sparsity with limit {} over {} steps", limit, episode_length)
    num, den = (limit - band).as_integer_ratio()  # f = num / den, exactly
    low = _surviving_walks(band, episode_length) ** axes
    high = _surviving_walks(band + 1, episode_length) ** axes if num else 0
    return (low * (den - num) + high * num) / (den << episode_length * axes)


class RolloutConfig(Record):
    """Sampling plan for random-rollout entropy."""

    seed: int
    sample_count: int = 20_000
    bin_count: int = 256
    max_steps: int = 500

    def __post_init__(self) -> None:
        for name, least in (("seed", 0), ("sample_count", 1), ("bin_count", 1), ("max_steps", 1)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, least))


def _rollout(params: CartPoleParams, cfg: RolloutConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (pre-step state, action) samples of random play.

    Episodes run in blocks through _lockstep, all from one PCG64 stream: a
    block draws its initial states as one block x state_size call, then
    before each step one action per live episode, in episode order, as
    floor(u * action_count) of a uniform double u, which is exactly uniform
    over 2 or 4 actions. The first block holds _EPISODE_BLOCK episodes, or
    sample_count if fewer; each later one as many as the samples still
    needed take at the mean episode length so far, up to _EPISODE_BLOCK,
    so that the last block steps few episodes past the cut. The samples
    are the episodes laid end to end in order, block after block, and cut
    at sample_count; an episode stops being stepped once none of its later
    samples could fall before the cut. Features come back as the transpose
    of a state_size x sample_count array, so each feature's column is
    contiguous, and actions as uint8.
    """
    n, samples = params.state_size, cfg.sample_count
    # A block records at most block x max_steps samples, and at most
    # block + 8 x samples: after t steps fewer than samples / t episodes are
    # still stepped, and 1 + ln(block) < 8.
    bound = min(_EPISODE_BLOCK * cfg.max_steps, _EPISODE_BLOCK + 8 * samples)
    # the samples and a column's histogram temporaries, about eight words
    # per bin (the counts, their Python-int tuple, the probabilities), and
    # twice the records' n + 2 words: a block's per-step records, and them
    # joined once
    check_budget(
        (samples * (n + 4) + cfg.bin_count * 8 + bound * 2 * (n + 2)) * 8,
        f"rollout_entropy with {count_text(samples)} {params.variant} samples "
        f"and {count_text(cfg.bin_count)} bins",
    )
    rng = np.random.default_rng(cfg.seed)
    # each feature's samples contiguous, and a spare slot past the cut
    features = np.empty((n, samples + 1))
    actions = np.empty(samples + 1, dtype=np.uint8)
    table = _force_table(params)
    axes = params.axis_count
    workspace = _workspace(params, _EPISODE_BLOCK)

    # push and end read and update the block's state, set in the loop below
    def push(state, ids):
        drawn = (rng.random(ids.size) * params.action_count).astype(np.intp)
        # the state in state_size order, from _planar's x, theta, x_dot, theta_dot
        seen.append(state.reshape(2, 2, axes, ids.size).transpose(2, 1, 0, 3).copy())
        taken.append(drawn)
        who.append(ids)
        return table[:, drawn]

    def end(t, failed, ids):
        # An episode also ends once the episodes up to and including it fill
        # the samples still needed, as none of its later samples could then
        # fall before the cut.
        if lengths.sum() + t * ids.size >= samples - filled:
            current = lengths.copy()
            current[ids] = t
            failed |= np.cumsum(current)[ids] >= samples - filled
        lengths[ids[failed]] = t
        return failed

    filled = spent = episodes = stepped = 0
    rows = min(_EPISODE_BLOCK, samples)  # each episode gives at least one sample
    while filled < samples:
        # the steps of the ended episodes, and each step's records
        lengths, seen, taken, who = np.zeros(rows, np.int64), [], [], []
        states = rng.uniform(-INIT_BOUND, INIT_BOUND, size=(rows, n))
        lives, spent = _lockstep(params, states, workspace, push, end, spent, cfg.max_steps)
        steps = sum(lives)
        starts = filled + np.cumsum(lengths) - lengths
        at = starts[np.concatenate(who)]
        at += np.repeat(np.arange(len(lives)), lives)  # the step
        np.minimum(at, samples, out=at)
        features[:, at] = np.concatenate(seen, axis=-1).reshape(n, -1)
        actions[at] = np.concatenate(taken)
        filled = min(samples, filled + steps)
        # a block short of the cut ended every episode by itself, so its
        # steps per episode are the mean length
        episodes, stepped = episodes + rows, stepped + steps
        rows = min(_EPISODE_BLOCK, -(-(samples - filled) * episodes // stepped))
    return features[:, :samples].T, actions[:samples]


def rollout_entropy(
    params: CartPoleParams, cfg: RolloutConfig
) -> tuple[float, float]:
    """Entropy of feature and action distributions under random play.

    Collects the (pre-step state, action) pairs of episodes under uniformly
    random actions, each ending on failure or after max_steps, laid end to
    end and cut at sample_count (see _rollout). Each feature is min-max
    normalized over the collected sample and histogrammed into bin_count
    bins; returns (sum of per-feature bits, action bits). Only the occupied
    bins reach shannon_entropy, which drops empty ones from its sum anyway,
    so a large bin_count costs no per-bin Python work beyond the histogram.
    """
    features, actions = _rollout(params, cfg)
    feature_bits = 0.0
    for j in range(params.state_size):
        column = features[:, j]
        lo, hi = float(column.min()), float(column.max())
        if hi == lo:
            continue
        counts = np.array(histogram(column, cfg.bin_count, (lo, hi)).counts)
        occupied = counts[counts > 0]
        feature_bits += shannon_entropy(occupied / occupied.sum())
    counts = np.bincount(actions, minlength=params.action_count)
    action_bits = shannon_entropy(counts / counts.sum())
    return feature_bits, float(action_bits)


# One function per cart-pole report: each returns its measures and notes.
_LIMIT_CONVENTION = (
    "mean repeated identical pushes until failure; uniform [-0.05, 0.05] inits; "
    "the failing step is counted; midpoint-grid quadrature over the pole's start "
    f"(theta, theta_dot), {_FIRST_LEVEL}^2 points first, doubled until two levels agree "
    f"within {LIMIT_TOLERANCE:g} or the next would pass the trials cap; the cart's x "
    "by the exact polygon area of the (x, x_dot) starts that stay on the track"
)


def _measured_limit(params: CartPoleParams, trials: int) -> tuple[float, Provenance, str]:
    """constant_action_limit over trials, its provenance and a note that
    names its levels."""
    levels: list = []
    value = constant_action_limit(params, trials, levels=levels)
    n, _, states = levels[-1]
    note = f"limit quadrature levels {_FIRST_LEVEL}^2 to {n}^2, {states} start states"
    if len(levels) > 1:
        note += f"; the last two levels differ by {abs(value - levels[-2][1]):.2g}"
    return value, quadrature(states), note


def limit_measures(
    params: CartPoleParams, trials: int = 10_000
) -> tuple[list[MeasureResult], list[str]]:
    value, provenance, note = _measured_limit(params, trials)
    return [MeasureResult("constant_action_limit", value, _LIMIT_CONVENTION, provenance)], [note]


def sparsity_measures(
    params: CartPoleParams, limit: float | None = None, trials: int = 10_000,
    episode_length: int = 200,
) -> tuple[list[MeasureResult], list[str]]:
    """Band-survival sparsity; without a limit, the band is measured with
    constant_action_limit capped at trials start states."""
    notes = []
    if limit is not None:
        limit_source, band_provenance = "user-provided action limit", ANALYTIC
    else:
        limit, band_provenance, note = _measured_limit(params, trials)
        limit_source = "constant-action limit by quadrature"
        notes.append(note)
    value = analytic_sparsity(limit, episode_length=episode_length, axes=params.axis_count)
    return [
        MeasureResult(
            "analytic_sparsity",
            value,
            "exact probability that random +/-1 walks stay inside the "
            f"action-limit band; one full-length walk per axis; band from {limit_source}; "
            f"episode_length={episode_length}; a fractional band is interpolated "
            "linearly between the two neighbouring integer bands",
            ANALYTIC,
        ),
        MeasureResult("action_limit_band", limit, limit_source, band_provenance),
    ], notes


def entropy_measures(
    params: CartPoleParams, samples: int = 20_000, bins: int = 256, seed: int = 0
) -> tuple[list[MeasureResult], list[str]]:
    """Random-rollout feature and action entropy."""
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
