"""Cart-pole simulator: physics sanity, measured action limits, and the
exact random-walk sparsity count checked against enumeration and sampling.
The simulation kernels are checked bit for bit against straightforward
masked loops: the limit's quadrature against the masked loop over its grid,
and also against that loop's Monte Carlo mean by distribution; the
rollout's block layout also against the restarting chain it replaced, by
distribution. The last tests check count arguments across the package,
most of which are the cart-pole measures'."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dcx import cartpole
from dcx.cartpole import (
    INIT_BOUND,
    VARIANTS,
    WORK_BUDGET,
    CartPoleParams,
    RolloutConfig,
    _force_table,
    _lockstep,
    _planar,
    _rollout,
    _surviving_walks,
    _workspace,
    analytic_sparsity,
    constant_action_limit,
    limit_measures,
    params_for_variant,
    rollout_entropy,
)
from dcx.dataset_metrics import channel_gini
from dcx.datasets import TabularDataset
from dcx.descriptors import (
    BreakdownElement,
    Component,
    DomainDescriptor,
    bundled_descriptor,
    path_sparsity_bound,
    tree_complexity,
)
from dcx.errors import MEMORY_BUDGET, DcxError, InvalidParameter, ResourceLimit, replace
from dcx.games import TIC_TAC_TOE, GridGameSpec, gtc_factorial
from dcx.measures import (
    ANALYTIC,
    MeasureResult,
    Power,
    gtc_power,
    histogram,
    log10_product,
    normalized_entropy,
    shannon_entropy,
)
from dcx.report import ComplexityReport, ReferenceTarget, to_json

# thresholds no episode reaches, so only max_steps or the cut ends one
ENDLESS = {"position_threshold": 1e300, "angle_threshold": 1e300}


def brute_force_band_survival(band: int, length: int) -> float:
    """Enumerate all 2^length walks; feasible for length <= 20."""
    count = 2**length
    codes = np.arange(count, dtype=np.int64)[:, None]
    steps = ((codes >> np.arange(length)) & 1) * 2 - 1
    walks = np.cumsum(steps, axis=1)
    ok = (np.abs(walks) <= band).all(axis=1)
    return float(ok.mean())


def oracle_planar_update(x, x_dot, theta, theta_dot, force, p):
    """The planar step as it was written before the kernels were tuned,
    trigonometry included; an independent copy, so that the oracles below
    also check dcx.cartpole._planar."""
    total_mass = p.cart_mass + p.pole_mass
    pole_ml = p.pole_mass * p.pole_half_length
    sin = np.sin(theta)
    cos = np.cos(theta)
    temp = (force + pole_ml * theta_dot**2 * sin) / total_mass
    theta_acc = (p.gravity * sin - cos * temp) / (
        p.pole_half_length * (4.0 / 3.0 - p.pole_mass * cos**2 / total_mass)
    )
    x_acc = temp - pole_ml * theta_acc * cos / total_mass
    return (
        x + p.timestep * x_dot,
        x_dot + p.timestep * x_acc,
        theta + p.timestep * theta_dot,
        theta_dot + p.timestep * theta_acc,
    )


def oracle_forces(action, p):
    """Each axis's force under one action, written out from the action set
    so that the oracles below also check dcx.cartpole._force_table: planar
    0 pushes left and 1 right; 3d 0/1 push the x axis left/right and 2/3
    the y axis, while the other axis coasts."""
    push = p.force_magnitude if action % 2 else -p.force_magnitude
    if p.variant != "3d":
        return (push,)
    return (push, 0.0) if action < 2 else (0.0, push)


def oracle_step(state, action, p):
    """The tuple step with numpy's sine and cosine on scalars."""
    out = []
    for axis, force in enumerate(oracle_forces(action, p)):
        out.extend(oracle_planar_update(*state[4 * axis : 4 * axis + 4], force, p))
    return tuple(float(v) for v in out)


def oracle_rollout(p, cfg):
    """The restarting chain the block layout replaced, one tuple step and
    one Generator call at a time: (features, actions). Its draws are laid
    out differently, so it is a distributional check, not a bit oracle."""
    rng = np.random.default_rng(cfg.seed)
    n = p.state_size
    features = np.empty((cfg.sample_count, n))
    actions = np.empty(cfg.sample_count, dtype=np.int64)

    def fresh():
        return tuple(rng.uniform(-INIT_BOUND, INIT_BOUND, size=n))

    state = fresh()
    age = 0
    for i in range(cfg.sample_count):
        action = int(rng.integers(p.action_count))
        features[i] = state
        actions[i] = action
        state = oracle_step(state, action, p)
        age += 1
        if age >= cfg.max_steps or oracle_batch_failed(np.array([state]), p)[0]:
            state = fresh()
            age = 0
    return features, actions


def oracle_batch_step(states, forces, p):
    out = np.empty_like(states)
    for axis, force in enumerate(forces):
        i = 4 * axis
        out[:, i], out[:, i + 1], out[:, i + 2], out[:, i + 3] = oracle_planar_update(
            states[:, i], states[:, i + 1], states[:, i + 2], states[:, i + 3], force, p
        )
    return out


def oracle_batch_failed(states, p):
    failed = np.zeros(len(states), dtype=bool)
    for axis in range(p.axis_count):
        i = 4 * axis
        failed |= np.abs(states[:, i]) > p.position_threshold
        failed |= np.abs(states[:, i + 2]) > p.angle_threshold
    return failed


def oracle_limit_steps(p, states):
    """The masked loop: every step gathers the live rows of one
    trials x state_size array, writes them back and tests every trial.
    Returns (each trial's failing step, the live trials before each step)."""
    states = states.copy()
    forces = oracle_forces(1, p)
    steps = np.zeros(len(states))
    alive = np.ones(len(states), dtype=bool)
    live = []
    count = 0
    while alive.any():
        live.append(int(alive.sum()))
        count += 1
        states[alive] = oracle_batch_step(states[alive], forces, p)
        failed_now = alive & oracle_batch_failed(states, p)
        steps[failed_now] = count
        alive &= ~failed_now
    return steps, live


def oracle_block_rollout(p, cfg):
    """The block layout as a masked loop: (features, actions, most records
    one block kept). Each block's episodes are
    rows of one block x state_size array: the first block has
    _EPISODE_BLOCK rows or sample_count if fewer, each later one the
    samples still needed over the mean episode length so far, rounded up
    and at most _EPISODE_BLOCK. Every step draws one action per live row in
    row order, floor(u * action_count) of a uniform u, steps the live rows
    and tests every row, and an episode ends on failure, at max_steps, or
    once the rows up to and including it hold the samples still needed.
    The records are then sorted by (episode, step) and cut."""
    rng = np.random.default_rng(cfg.seed)
    need = cfg.sample_count
    block = min(cartpole._EPISODE_BLOCK, need)
    features, actions = [], []
    most = episodes = steps_so_far = 0
    while need > 0:
        states = rng.uniform(-INIT_BOUND, INIT_BOUND, size=(block, p.state_size))
        alive = np.ones(block, dtype=bool)
        lengths = np.zeros(block, dtype=np.int64)
        rows, steps, seen, drawn = [], [], [], []
        t = 0
        while alive.any():
            live = np.flatnonzero(alive)
            a = np.floor(rng.random(live.size) * p.action_count).astype(np.int64)
            rows.append(live)
            steps.append(np.full(live.size, t))
            seen.append(states[live])
            drawn.append(a)
            pushes = [oracle_forces(int(action), p) for action in a]
            forces = [np.array(axis_forces) for axis_forces in zip(*pushes)]
            states[alive] = oracle_batch_step(states[alive], forces, p)
            t += 1
            lengths[alive] = t
            ended = oracle_batch_failed(states, p) | (t >= cfg.max_steps)
            ended |= np.cumsum(lengths) >= need
            alive &= ~ended
        rows, steps = np.concatenate(rows), np.concatenate(steps)
        most = max(most, rows.size)
        order = np.lexsort((steps, rows))[:need]
        features.append(np.concatenate(seen)[order])
        actions.append(np.concatenate(drawn)[order])
        need -= int(lengths.sum())
        episodes += block
        steps_so_far += int(lengths.sum())
        block = min(cartpole._EPISODE_BLOCK, -(-need * episodes // steps_so_far))
    return np.concatenate(features), np.concatenate(actions), most


def per_feature_entropy(features, bins):
    """Each column's min-max binned entropy, as rollout_entropy sums them."""
    bits = []
    for column in features.T:
        lo, hi = float(column.min()), float(column.max())
        bits.append(shannon_entropy(histogram(column, bins, (lo, hi)).probabilities()))
    return bits


def oracle_sparsity(limit, episode_length, samples, seed, axes):
    """Monte Carlo survival of int64 +/-1 walks, the band drawn per sample
    as floor(limit + U): the estimator whose expectation analytic_sparsity
    computes."""
    rng = np.random.default_rng(seed)
    survived = 0
    done = 0
    while done < samples:
        block = min(16384, samples - done)
        bands = np.floor(limit + rng.random(block))[:, None]
        ok = np.ones(block, dtype=bool)
        for _ in range(axes):
            walk = np.cumsum(rng.integers(0, 2, size=(block, episode_length)) * 2 - 1, axis=1)
            ok &= (np.abs(walk) <= bands).all(axis=1)
        survived += int(ok.sum())
        done += block
    return survived / samples


def pack(states, p):
    """_planar's layout of a rows x state_size array, written out: x, theta,
    x_dot, theta_dot, each one run in which axis 0's rows come first."""
    states = np.asarray(states, dtype=float)
    return np.concatenate([
        states[:, 4 * axis + component]
        for component in (0, 2, 1, 3)
        for axis in range(p.axis_count)
    ])


def unpack(flat, p):
    """The rows x state_size array that pack(states, p) laid out as flat."""
    rows = flat.size // p.state_size
    states = np.empty((rows, p.state_size))
    runs = iter(flat.reshape(-1, rows))
    for component in (0, 2, 1, 3):
        for axis in range(p.axis_count):
            states[:, 4 * axis + component] = next(runs)
    return states


def kernel_step(states, p, forces):
    """One step of _planar's kernel in a fresh NaN-filled _workspace, so that
    a value it failed to write shows: (the next states, which failed).
    forces is each axis's force, one value or one per row."""
    rows = len(states)
    buffers, scratch, flags = _workspace(p, rows)
    buffers.fill(np.nan)
    scratch.fill(np.nan)
    state, out = buffers
    state[:] = pack(states, p)
    failed = _planar(p)(state, out, np.reshape(forces, (p.axis_count, -1)), scratch, flags)
    return unpack(out, p), failed.copy()


def advance(states, p, forces):
    after, failed = kernel_step(states, p, forces)
    assert failed.tolist() == oracle_batch_failed(after, p).tolist()
    return after


def same(a, b):
    return a.tobytes() == b.tobytes()


# one-row and many-row blocks
ROWS = (1, 257)


class TestPhysics:
    """The kernel the measures run: _planar's in-place step with its failure
    test, under _force_table's forces, and _lockstep's repacking."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_force_table_is_the_action_set(self, variant):
        p = params_for_variant(variant)
        table = _force_table(p)
        assert table.shape == (p.axis_count, p.action_count)
        for action in range(p.action_count):
            assert table[:, action].tolist() == list(oracle_forces(action, p))
        assert not np.signbit(table[table == 0]).any()

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_step_matches_the_expressions(self, variant, rows):
        # bit for bit the planar expressions, from states inside and outside
        # the thresholds, under each action, under a drawn action per row and
        # under a force of its own for each axis of each row; fast poles, so
        # no term's last bit is lost in the force's
        p = params_for_variant(variant)
        rng = np.random.default_rng(rows)
        states = rng.uniform(-1.0, 1.0, (rows, p.state_size)) * np.tile([3, 50, 3, 50], p.axis_count)
        table = _force_table(p)
        forces = [table[:, [action]] for action in range(p.action_count)]
        forces.append(table[:, rng.integers(p.action_count, size=rows)])
        forces.append(rng.uniform(-20.0, 20.0, (p.axis_count, rows)))
        for force in forces:
            after, failed = kernel_step(states, p, force)
            want = oracle_batch_step(states, list(force), p)
            assert same(after, want)
            assert failed.tolist() == oracle_batch_failed(want, p).tolist()

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_equilibrium_is_fixed_point(self, variant, rows):
        p = params_for_variant(variant)
        states = np.zeros((rows, p.state_size))
        for _ in range(50):
            states = advance(states, p, np.zeros(p.axis_count))
        assert (states == 0.0).all()

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_mirror_symmetry_is_exact(self, variant, rows):
        # pushing each axis right from a state, and left from its mirror
        # image, keeps the two trajectories exact mirror images
        p = params_for_variant(variant)
        table = _force_table(p)
        start = np.random.default_rng(rows).uniform(-INIT_BOUND, INIT_BOUND, (rows, p.state_size))
        for right in range(1, p.action_count, 2):
            states, mirrored = start, -start
            for _ in range(30):
                states = advance(states, p, table[:, right])
                mirrored = advance(mirrored, p, table[:, right - 1])
                assert same(mirrored, -states), right

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_zero_gravity_holds_tilt(self, variant, rows):
        p = CartPoleParams(gravity=0.0, variant=variant)
        states = np.zeros((rows, p.state_size))
        states[:, 2::4] = np.linspace(-0.1, 0.1, rows * p.axis_count).reshape(rows, -1)
        after = advance(states, p, np.zeros(p.axis_count))
        assert after[:, 2::4].tolist() == states[:, 2::4].tolist()
        assert (after[:, 3::4] == 0.0).all()

    @pytest.mark.parametrize("rows", ROWS)
    def test_high_gravity_tips_faster(self, rows):
        normal, heavy = params_for_variant("2d"), params_for_variant("2dg")
        tilts = np.zeros((rows, 4))
        tilts[:, 2] = np.linspace(0.05, 0.001, rows)
        after_normal = advance(tilts, normal, _force_table(normal)[:, 1])
        after_heavy = advance(tilts, heavy, _force_table(heavy)[:, 1])
        assert (after_heavy[:, 3] > after_normal[:, 3]).all()

    @pytest.mark.parametrize("rows", ROWS)
    def test_spatial_variant_runs_two_planes(self, rows):
        # each 3d push moves one axis as the planar push along it would and
        # leaves the other axis coasting, force-free
        p, planar = params_for_variant("3d"), params_for_variant("2d")
        start = np.random.default_rng(rows).uniform(-INIT_BOUND, INIT_BOUND, (rows, 8))
        for action in range(p.action_count):
            states = start
            for _ in range(20):
                states = advance(states, p, _force_table(p)[:, action])
            for axis in (0, 1):
                force = _force_table(planar)[:, action % 2] if axis == action // 2 else [0.0]
                alone = start[:, 4 * axis : 4 * axis + 4]
                for _ in range(20):
                    alone = advance(alone, planar, force)
                assert same(states[:, 4 * axis : 4 * axis + 4], alone), (action, axis)

    def test_rejects_an_unknown_variant(self):
        for variant in ("4d", "", None):
            with pytest.raises(InvalidParameter, match="variant"):
                params_for_variant(variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_failure_predicate(self, variant):
        # a row fails once any axis's cart or pole passes its threshold;
        # velocities and a value at the threshold itself do not fail it. The
        # step tests the state it makes, so a 1e-300 s step leaves positions
        # and angles where they are, those at a threshold exactly.
        p = replace(params_for_variant(variant), timestep=1e-300)
        cases = [(np.zeros(p.state_size), False)]
        for axis in range(p.axis_count):
            for component, value, failed in (
                (0, 2.5, True), (0, -2.5, True), (2, 0.3, True), (2, -0.3, True),
                (0, p.position_threshold, False), (2, -p.angle_threshold, False),
                (1, 1e9, False), (3, -1e9, False),
            ):
                state = np.zeros(p.state_size)
                state[4 * axis + component] = value
                cases.append((state, failed))
        states = np.array([state for state, _ in cases])
        want = [failed for _, failed in cases]
        after, failed = kernel_step(states, p, np.zeros(p.axis_count))
        assert np.abs(after[:, 0::2] - states[:, 0::2]).max() < 1e-280
        assert failed.tolist() == want
        for state, failed in cases:
            assert kernel_step([state], p, np.zeros(p.axis_count))[1].tolist() == [failed]

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_from_rest_trajectory(self, variant, rows):
        # episodes from the exact origin under one repeated push
        p = params_for_variant(variant)
        for action in range(p.action_count):
            states = np.zeros((rows, p.state_size))
            count = 0
            failed = np.zeros(rows, dtype=bool)
            while not failed.any():
                states, failed = kernel_step(states, p, _force_table(p)[:, action])
                count += 1
                assert count < 50
            assert failed.all()
            assert 8 <= count <= 11, (action, count)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_steps_after_a_repack(self, variant):
        # _lockstep moves the episodes that go on into its other buffer; the
        # state push sees after that, and the step taken from it, are those
        # episodes' own, under per-row forces, and the ids push and end see
        # are their rows of states. At the horizon every live episode fails.
        p = params_for_variant(variant)
        rng = np.random.default_rng(3)
        states = rng.uniform(-INIT_BOUND, INIT_BOUND, (257, p.state_size))
        table = _force_table(p)
        seen, pushed, pushed_ids, ended_ids = [], [], [], []

        def push(state, ids):
            seen.append(unpack(state, p))
            pushed.append(table[:, rng.integers(p.action_count, size=len(seen[-1]))])
            pushed_ids.append(ids.tolist())
            return pushed[-1]

        def end(t, failed, ids):
            # nothing fails within three steps of rest, but the horizon is 3
            assert failed.all() if t == 3 else not failed.any()
            ended_ids.append(ids.tolist())
            if t == 1:
                return np.arange(failed.size) % 3 == 0  # every third episode ends
            return failed

        workspace = _workspace(p, 300)
        lives, _ = _lockstep(p, states, workspace, push, end, 0, horizon=3)
        assert lives == [257, 171, 171]
        kept = [row for row in range(257) if row % 3]
        assert pushed_ids == ended_ids == [list(range(257)), kept, kept]
        want = states
        for t, got in enumerate(seen):
            assert same(got, want), t
            want = oracle_batch_step(want, list(pushed[t]), p)
            if t == 0:
                want = want[np.arange(len(want)) % 3 != 0]
        assert len(seen) == 3

    @pytest.mark.parametrize("variant", ["2d", "3d"])
    def test_work_charge_counts_each_step_and_live_episode(self, variant):
        # spent grows by axes x (_STEP_NS + _ROW_NS x live) per step, with
        # live the masked loop's count before the step, so the refusals the
        # README counts do not drift; two partial blocks share one workspace
        p = params_for_variant(variant)
        rng = np.random.default_rng(5)
        workspace = _workspace(p, 3000)
        forces = _force_table(p)[:, 1:2]
        spent = want = 0
        for rows in (3000, 1234):
            states = rng.uniform(-INIT_BOUND, INIT_BOUND, (rows, p.state_size))
            lives, spent = _lockstep(
                p, states, workspace, lambda state, ids: forces, lambda t, failed, ids: failed,
                spent,
            )
            failing_steps, live = oracle_limit_steps(p, states)
            want += sum(p.axis_count * (cartpole._STEP_NS + cartpole._ROW_NS * n) for n in live)
            assert lives == live
            assert sum(lives) == failing_steps.sum()
            assert spent == want

    def test_rejects_nonpositive_physical_constants(self):
        with pytest.raises(InvalidParameter):
            CartPoleParams(cart_mass=0.0)
        with pytest.raises(InvalidParameter):
            CartPoleParams(gravity=-1.0)
        # nan compares false with everything, and an infinite force or
        # threshold makes constant_action_limit loop forever
        fields = ("gravity", "cart_mass", "pole_mass", "pole_half_length", "force_magnitude",
                  "timestep", "position_threshold", "angle_threshold")
        for name in fields:
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(InvalidParameter, match=name):
                    CartPoleParams(**{name: value})

    @pytest.mark.parametrize(
        "value", ["9.8", None, True, False, pytest.param(10**400, id="1e400"),
                  pytest.param(-(10**400), id="-1e400"), 1j],
    )
    @pytest.mark.parametrize("name", ["gravity", "cart_mass", "angle_threshold"])
    def test_rejects_constants_that_are_not_finite_real_numbers(self, name, value):
        # as analytic_sparsity refuses them for a limit: a string no longer
        # ends in a bare TypeError, True no longer runs as 1.0, and 10**400
        # no longer reaches constant_action_limit's OverflowError
        with pytest.raises(InvalidParameter, match=f"^{name} must be"):
            CartPoleParams(**{name: value})

    def test_constants_are_stored_as_python_floats(self):
        p = CartPoleParams(gravity=10, cart_mass=np.float64(2.0), pole_mass=np.float32(0.5),
                           force_magnitude=np.int64(12))
        assert (p.gravity, p.cart_mass, p.pole_mass, p.force_magnitude) == (10.0, 2.0, 0.5, 12.0)
        assert {type(getattr(p, name)) for name in p._fields[:-1]} == {float}
        assert p == CartPoleParams(gravity=10.0, cart_mass=2.0, pole_mass=0.5,
                                   force_magnitude=12.0)


def grid_states(p, n):
    """The start states of constant_action_limit's level n: x = x_dot = 0
    and (theta, theta_dot) on the n x n midpoint grid over the start box,
    for every axis; for 3d, every pair of an x-axis and a y-axis point."""
    nodes = -INIT_BOUND + (np.arange(n) + 0.5) * (2 * INIT_BOUND / n)
    theta, theta_dot = (g.ravel() for g in np.meshgrid(nodes, nodes, indexing="ij"))
    planar = np.zeros((n * n, 4))
    planar[:, 2], planar[:, 3] = theta, theta_dot
    if p.axis_count == 1:
        return planar
    return np.hstack([np.repeat(planar, n * n, axis=0), np.tile(planar, (n * n, 1))])


def oracle_monte_carlo(p, trials, seed, chunk=1 << 17):
    """The masked loop from uniform starts: (mean failing step, its
    standard error), drawn chunk trials at a time from one stream."""
    rng = np.random.default_rng(seed)
    total = squares = 0.0
    for done in range(0, trials, chunk):
        rows = min(chunk, trials - done)
        states = rng.uniform(-INIT_BOUND, INIT_BOUND, size=(rows, p.state_size))
        steps = oracle_limit_steps(p, states)[0]
        total += steps.sum()
        squares += (steps * steps).sum()
    mean = total / trials
    return mean, math.sqrt((squares / trials - mean * mean) / trials)


def levels_of(p, trials):
    levels = []
    value = constant_action_limit(p, trials, levels=levels)
    assert value == levels[-1][1]
    return levels


# caller-set params under which the cart often reaches the track edge
# before the pole falls, so the x rule clips many grid states
EDGE_PARAMS = {
    "2d": {"position_threshold": 0.12},
    "2dg": {"position_threshold": 0.5},
    "3d": {"position_threshold": 0.1, "force_magnitude": 3.0},
}


class TestConstantActionLimit:
    def test_planar_limit_matches_published_window(self):
        p = params_for_variant("2d")
        assert constant_action_limit(p, 10_000) == pytest.approx(9.37, abs=1.0)

    def test_high_gravity_limit(self):
        p = params_for_variant("2dg")
        assert constant_action_limit(p, 10_000) == pytest.approx(9.22, abs=1.0)

    def test_deterministic(self):
        p = params_for_variant("2dg")
        assert constant_action_limit(p, 100_000) == constant_action_limit(p, 100_000)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_within_four_standard_errors_of_monte_carlo(self, variant):
        # the masked loop over a million uniform starts; at the default cap
        # and at the benchmark's, the quadrature lies within 4 SE of it
        p = params_for_variant(variant)
        mean, se = oracle_monte_carlo(p, 1_000_000, 7)
        for trials in (10_000, 1_000_000):
            assert abs(constant_action_limit(p, trials) - mean) < 4 * se, trials

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_x_rule_within_four_standard_errors_of_monte_carlo(self, variant):
        # near the track edge the (x, x_dot) share that stays is a polygon
        # area; the x rule moves these limits by more than 10 SE of the
        # sampled mean, and the quadrature still lands within 4 SE of it
        p = replace(params_for_variant(variant), **EDGE_PARAMS[variant])
        mean, se = oracle_monte_carlo(p, 250_000, 11)
        pole_only = constant_action_limit(replace(p, position_threshold=1e300), 100_000)
        assert abs(pole_only - mean) > 10 * se
        assert abs(constant_action_limit(p, 100_000) - mean) < 4 * se

    @pytest.mark.parametrize("variant", ["2d", "3d"])
    def test_failing_step_ignores_the_cart_at_default_params(self, variant):
        # the pushed pole falls before the cart nears the edge, so zeroing
        # every axis's x and x_dot changes no failing step
        p = params_for_variant(variant)
        states = np.random.default_rng(4).uniform(-INIT_BOUND, INIT_BOUND, (50_000, p.state_size))
        centred = states.copy()
        centred[:, 0::4] = centred[:, 1::4] = 0.0
        assert (oracle_limit_steps(p, states)[0] == oracle_limit_steps(p, centred)[0]).all()

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("block", [None, 64])
    def test_levels_are_the_masked_loop_over_the_grid(self, variant, block, monkeypatch):
        # at the default params no grid state nears the track edge, so each
        # level is the masked loop's mean failing step over its grid, bit
        # for bit, whether a level is one block or many; for 3d the grid is
        # every pair of the two axes' points, which the product form sums
        if block is not None:
            monkeypatch.setattr(cartpole, "_TRIAL_BLOCK", block)
        p = params_for_variant(variant)
        sizes = (16,) if variant == "3d" else (16, 32, 64)
        levels = levels_of(p, 5376 if variant != "3d" else 256)
        assert [n for n, _, _ in levels] == list(sizes)
        for n, value, _ in levels:
            steps = oracle_limit_steps(p, grid_states(p, n))[0]
            assert value.hex() == float(steps.mean()).hex(), n

    def test_spatial_product_form_where_the_coasting_pole_falls_first(self):
        # under high gravity the coasting pole can fall before the pushed
        # one; the product of the two axes' survival still gives the masked
        # loop over every pair of grid points exactly
        p = replace(params_for_variant("3d"), gravity=250.0)
        (n, value, _), = levels_of(p, 256)
        steps = oracle_limit_steps(p, grid_states(p, n))[0]
        planar = constant_action_limit(replace(p, variant="2d"), 256)
        assert value.hex() == float(steps.mean()).hex()
        assert value < planar

    @pytest.mark.parametrize("trials", [10_000, 1_000_000])
    def test_spatial_limit_equals_planar_at_default_params(self, trials):
        # the coasting pole outlasts every pushed episode from the start box
        assert constant_action_limit(params_for_variant("3d"), trials) == \
            constant_action_limit(params_for_variant("2d"), trials)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_states_stepped_never_pass_the_cap(self, variant):
        # the 16 x 16 level always runs; after it, a level runs only if its
        # states fit under the cap, and the levels stop at the first two
        # that agree within LIMIT_TOLERANCE
        p = params_for_variant(variant)
        for trials in (1, 255, 256, 1279, 1280, 5375, 5376, 21_759, 21_760, 100_000, 10**6):
            levels = levels_of(p, trials)
            assert levels[0][0] == 16 and levels[0][2] == 256
            assert max(256, trials) >= levels[-1][2]
            for (n, _, done), (m, _, after) in zip(levels, levels[1:]):
                assert m == 2 * n and after == done + m * m
            for (_, a, _), (_, b, _) in zip(levels, levels[1:-1]):
                assert abs(a - b) > cartpole.LIMIT_TOLERANCE
            last_n, last, done = levels[-1]
            converged = len(levels) > 1 and abs(last - levels[-2][1]) <= cartpole.LIMIT_TOLERANCE
            assert converged or done + 4 * last_n**2 > trials, (trials, levels)

    def test_planar_levels_converge_by_512(self):
        levels = levels_of(params_for_variant("2d"), 10**6)
        assert levels[-1][0] == 512
        assert abs(levels[-1][1] - levels[-2][1]) <= cartpole.LIMIT_TOLERANCE

    def test_clip_and_area(self):
        square = cartpole._BOX
        assert cartpole._area(square) == pytest.approx(4 * INIT_BOUND**2, rel=1e-15)
        half = cartpole._clip(square, 1.0, 1.0, 0.0)  # u + v <= 0
        assert cartpole._area(half) == pytest.approx(2 * INIT_BOUND**2, rel=1e-15)
        corner = cartpole._clip(square, 1.0, 0.0, -INIT_BOUND / 2)  # u <= -0.025
        assert cartpole._area(corner) == pytest.approx(INIT_BOUND**2, rel=1e-15)
        assert cartpole._clip(square, 1.0, 0.0, -1.0) == []
        assert cartpole._clip(square, 1.0, 0.0, 1.0) == square

    @pytest.mark.parametrize("variant", ["2d", "3d"])
    def test_memory_does_not_grow_with_the_trial_count(self, variant):
        # the grid holds one block's arrays whatever its size, so four times
        # the states need no more memory than allocator noise
        p = params_for_variant(variant)
        constant_action_limit(p, 1000)  # numpy's first-call allocations
        peaks = []
        for trials in (100_000, 400_000):
            tracemalloc.start()
            try:
                constant_action_limit(p, trials)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + (256 << 10), peaks

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_minflt is Linux's minor fault count")
    def test_trials_step_without_page_faulting(self):
        # In a fresh interpreter, so that no earlier test's heap hides them:
        # arrays allocated and freed at every step went back to the OS and
        # faulted in again, 14,033 minor faults for 400,000 Monte Carlo
        # trials; the grid's 349,440 states, stepped in one reused
        # workspace, take about 1,450.
        code = (
            "import resource\n"
            "from dcx.cartpole import constant_action_limit, params_for_variant\n"
            "p = params_for_variant('2dg')\n"
            "constant_action_limit(p, 1000)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "constant_action_limit(p, 400_000)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(cartpole.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 4000

    def test_refuses_trials_past_the_work_budget_before_drawing(self, monkeypatch):
        # with numpy out of reach, a refusal shows that the budget check
        # comes before any draw, and a count that fits gets past it: the
        # largest counts the earlier 2 GiB array check accepted, and the
        # largest the 750 ns per trial and axis model accepts
        monkeypatch.setattr(cartpole, "np", None)
        for variant, accepted in (("2d", 16_777_216), ("3d", 11_184_810)):
            p = params_for_variant(variant)
            fits = WORK_BUDGET // (750 * p.axis_count)
            for trials in (fits + 1, 10**9, 10**12):
                with pytest.raises(ResourceLimit, match="work budget"):
                    constant_action_limit(p, trials)
            for trials in (accepted, fits):
                with pytest.raises(AttributeError):
                    constant_action_limit(p, trials)

    @pytest.mark.parametrize("variant", ["2d", "3d"])
    def test_endless_trials_run_into_the_work_budget(self, variant, monkeypatch):
        # a trial that never fails passes the count check, and its steps are
        # charged as it runs: 10**8 modelled ns is a few thousand steps
        monkeypatch.setattr(cartpole, "WORK_BUDGET", 10**8)
        p = CartPoleParams(**ENDLESS, variant=variant)
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="work budget"):
            constant_action_limit(p, 1)
        assert time.perf_counter() - start < 5.0

    def test_clipping_is_charged_to_the_work_budget(self, monkeypatch):
        # a cart that hovers at the track edge while its pole never falls
        # keeps its polygon clipped at every step; that work is charged too
        monkeypatch.setattr(cartpole, "WORK_BUDGET", 10**8)
        p = CartPoleParams(angle_threshold=1e300, position_threshold=0.05, force_magnitude=1e-9)
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="^clipping 2d x starts past step .* work budget"):
            constant_action_limit(p, 1)
        assert time.perf_counter() - start < 5.0


class TestAnalyticSparsity:
    def test_band_wider_than_episode_is_certain(self):
        assert analytic_sparsity(250.0, episode_length=200) == 1.0

    def test_matches_brute_force_enumeration(self):
        for length in range(1, 17):
            for band in range(length + 2):
                assert _surviving_walks(band, length) / 2**length == pytest.approx(
                    brute_force_band_survival(band, length), abs=1e-12
                ), (band, length)

    @pytest.mark.parametrize("axes", [1, 2])
    def test_fractional_limit_interpolates_neighboring_bands(self, axes):
        for limit in (0.5, 3.25, 9.37, 10.6, 199.9):
            band = math.floor(limit)
            f = limit - band
            low = (_surviving_walks(band, 200) / 2**200) ** axes
            high = (_surviving_walks(band + 1, 200) / 2**200) ** axes
            assert analytic_sparsity(limit, episode_length=200, axes=axes) == pytest.approx(
                (1 - f) * low + f * high, rel=1e-14
            ), limit

    def test_integer_limit_is_the_exact_fraction(self):
        # the value is the exact count over 2**(200 * axes), correctly rounded
        count = _surviving_walks(9, 200)
        assert analytic_sparsity(9.0) == count / 2**200
        assert analytic_sparsity(9.0, axes=2) == count**2 / 2**400

    @pytest.mark.parametrize("length", [7, 200])
    def test_never_decreases_as_the_limit_grows(self, length):
        # near certainty, a float DP would wander by an ulp around 1.0
        limits = np.linspace(0.01, length - 0.01, 133)
        for axes in (1, 2):
            values = [analytic_sparsity(x, episode_length=length, axes=axes) for x in limits]
            assert values == sorted(values), axes
            assert 0.0 <= values[0] and values[-1] <= 1.0

    @pytest.mark.parametrize(("limit", "axes", "seed"), [(9.37, 1, 0), (10.6, 2, 1)])
    def test_sampled_walks_agree_at_full_length(self, limit, axes, seed):
        # the int64 walk loop, a statistical cross-check rather than a bit oracle
        exact = analytic_sparsity(limit, episode_length=200, axes=axes)
        samples = 100_000
        sampled = oracle_sparsity(limit, 200, samples, seed, axes)
        assert abs(sampled - exact) < 4 * (exact * (1 - exact) / samples) ** 0.5

    def test_planar_beats_high_gravity_at_published_limits(self):
        assert analytic_sparsity(9.37) > analytic_sparsity(9.22)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            analytic_sparsity(0.0)
        with pytest.raises(InvalidParameter):
            analytic_sparsity(float("nan"))
        with pytest.raises(InvalidParameter):
            analytic_sparsity(-float("inf"))
        with pytest.raises(InvalidParameter, match="finite"):
            analytic_sparsity(float("inf"))
        with pytest.raises(InvalidParameter):
            analytic_sparsity(9.0, axes=3)
        with pytest.raises(InvalidParameter):
            analytic_sparsity(9.0, episode_length=0)

    @pytest.mark.parametrize("limit", [True, np.True_, -10**5000, "9", None],
                             ids=["True", "numpy True", "-10^5000", "str", "None"])
    def test_rejects_a_limit_that_is_no_positive_real_number(self, limit):
        # True ran as limit 1.0, and the message for -10**5000 raised
        # ValueError, as str() refuses an integer past 4,300 digits
        with pytest.raises(InvalidParameter, match="^limit must be a finite number above 0$"):
            analytic_sparsity(limit, 200)

    def test_refuses_work_past_the_budget_before_counting(self):
        # a counting call would run for hours at these sizes, so refusing
        # promptly shows the check comes first; the estimate is integer
        # arithmetic, so an episode length past float range is refused too
        for limit, length in ((5.0, 10**8), (5000.5, 100_000), (9.0, 10**400)):
            with pytest.raises(ResourceLimit, match="budget"):
                analytic_sparsity(limit, episode_length=length)


class TestRolloutEntropy:
    def test_action_stream_is_nearly_uniform(self):
        p = params_for_variant("2d")
        _, action_bits = rollout_entropy(p, RolloutConfig(seed=0, sample_count=20_000))
        assert action_bits == pytest.approx(1.0, abs=0.01)

    def test_feature_bits_within_structural_bounds(self):
        p = params_for_variant("2d")
        cfg = RolloutConfig(seed=0, sample_count=20_000, bin_count=256)
        feature_bits, _ = rollout_entropy(p, cfg)
        # 4 features, 8 bits each at 256 bins; random play has been observed
        # in the 15-28 bit range under this convention
        assert 0.0 < feature_bits <= 4 * 8
        assert 15.0 <= feature_bits <= 28.0

    def test_spatial_variant_bounds(self):
        p = params_for_variant("3d")
        cfg = RolloutConfig(seed=0, sample_count=5_000, bin_count=256)
        feature_bits, action_bits = rollout_entropy(p, cfg)
        assert 0.0 < feature_bits <= 8 * 8
        assert action_bits == pytest.approx(2.0, abs=0.05)

    def test_refuses_a_negative_seed(self):
        with pytest.raises(InvalidParameter, match="seed"):
            RolloutConfig(seed=-1)

    @pytest.mark.parametrize("bins", [256, 65536])
    def test_occupied_bins_give_the_full_histograms_entropy(self, bins):
        # only the occupied bins reach shannon_entropy, which drops the
        # empty ones from its sum anyway: the same bits to the last one
        p = params_for_variant("3d")
        cfg = RolloutConfig(seed=4, sample_count=20_000, bin_count=bins)
        features, _ = _rollout(p, cfg)
        want = 0.0
        for column in features.T:
            hist = histogram(column, bins, (float(column.min()), float(column.max())))
            want += shannon_entropy(hist.probabilities())
        assert rollout_entropy(p, cfg)[0].hex() == want.hex()

    def test_deterministic_under_seed(self):
        p = params_for_variant("2d")
        cfg = RolloutConfig(seed=9, sample_count=3_000)
        assert rollout_entropy(p, cfg) == rollout_entropy(p, cfg)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_blocks_match_masked_loop(self, variant, monkeypatch):
        p = params_for_variant(variant)
        configs = [
            RolloutConfig(seed=0, sample_count=3000),  # cut inside the first block
            RolloutConfig(seed=1, sample_count=30_000),  # past the first block
            RolloutConfig(seed=5, sample_count=9000, max_steps=7),
            RolloutConfig(seed=6, sample_count=2500, max_steps=1),  # 1024 a block
        ]
        for block in (cartpole._EPISODE_BLOCK, 1, 7):
            monkeypatch.setattr(cartpole, "_EPISODE_BLOCK", block)
            for cfg in configs if block > 7 else configs[::2]:
                features, actions = _rollout(p, cfg)
                want_features, want_actions, _ = oracle_block_rollout(p, cfg)
                assert features.tobytes() == want_features.tobytes(), (block, cfg)
                assert actions.tolist() == want_actions.tolist(), (block, cfg)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_later_blocks_step_few_episodes_past_the_cut(self, variant, monkeypatch):
        # every full block steps 1,024 episodes; a later block steps as many
        # as the samples still needed take at the mean length so far. At
        # 60,000 samples and seed 51, 2d took 21,322 steps in a last block
        # of 1,024 episodes for the 15,219 it needed
        stepped = []
        lockstep = cartpole._lockstep

        def counted(p, states, *args):
            lives, spent = lockstep(p, states, *args)
            stepped.append((len(states), sum(lives)))
            return lives, spent

        monkeypatch.setattr(cartpole, "_lockstep", counted)
        p = params_for_variant(variant)
        for seed in range(51, 56):
            stepped.clear()
            _rollout(p, RolloutConfig(seed=seed, sample_count=60_000))
            assert len(stepped) > 1 and stepped[0][0] == cartpole._EPISODE_BLOCK
            mean = stepped[0][1] / stepped[0][0]
            assert sum(steps for _, steps in stepped) - 60_000 < 50 * mean, stepped

    def test_actions_are_the_floor_of_uniform_draws(self):
        # one double per live episode and step, times the action count and
        # floored: exactly uniform over 2 or 4 actions
        p = params_for_variant("3d")
        cfg = RolloutConfig(seed=3, sample_count=700, max_steps=1)
        _, actions = _rollout(p, cfg)
        rng = np.random.default_rng(3)
        rng.uniform(size=(700, p.state_size))  # the block's initial states
        assert actions.tolist() == np.floor(rng.random(700) * 4).astype(int).tolist()

    @pytest.mark.parametrize("variant", ["2d", "3d"])
    def test_endless_episodes_are_cut_within_the_record_bound(self, variant):
        # episode 0 alone fills the sample; the others stop being stepped
        # once their samples cannot land, so a block records at most
        # block + 8 x samples, as the memory budget assumes, and here more
        # than 32 x block
        p = CartPoleParams(**ENDLESS, variant=variant)
        block = cartpole._EPISODE_BLOCK
        assert 1 + math.log(block) < 8
        cfg = RolloutConfig(seed=2, sample_count=6000, max_steps=10**9)
        features, actions = _rollout(p, cfg)
        want_features, want_actions, most = oracle_block_rollout(p, cfg)
        assert features.tobytes() == want_features.tobytes()
        assert actions.tolist() == want_actions.tolist()
        assert 32 * block < most <= block + 8 * cfg.sample_count

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_feature_entropy_agrees_with_the_restarting_chain(self, variant):
        # i.i.d. episodes laid end to end and cut have the distribution of
        # one chain that restarts on failure; over ten seeds a side, each
        # feature's mean entropy agrees within four standard errors
        p = params_for_variant(variant)
        seeds = range(10)
        blocks = np.array([
            per_feature_entropy(_rollout(p, RolloutConfig(seed=s, sample_count=2000))[0], 32)
            for s in seeds
        ])
        chain = np.array([
            per_feature_entropy(
                oracle_rollout(p, RolloutConfig(seed=100 + s, sample_count=2000))[0], 32
            )
            for s in seeds
        ])
        se = np.sqrt((blocks.var(axis=0, ddof=1) + chain.var(axis=0, ddof=1)) / len(seeds))
        z = (blocks.mean(axis=0) - chain.mean(axis=0)) / se
        assert np.all(np.abs(z) < 4), z

    @pytest.mark.parametrize("variant", ["2d", "3d"])
    def test_a_short_sample_of_endless_episodes_is_prompt(self, variant):
        p = CartPoleParams(**ENDLESS, variant=variant)
        start = time.perf_counter()
        features, actions = _rollout(p, RolloutConfig(seed=0, sample_count=5, max_steps=10**9))
        assert time.perf_counter() - start < 1.0
        assert features.shape == (5, p.state_size) and actions.shape == (5,)

    def test_endless_episodes_run_into_the_work_budget(self, monkeypatch):
        # 10**8 modelled ns is a few thousand steps; episode 0 alone would
        # take 20,000
        monkeypatch.setattr(cartpole, "WORK_BUDGET", 10**8)
        p = CartPoleParams(**ENDLESS)
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="work budget"):
            _rollout(p, RolloutConfig(seed=0, sample_count=20_000, max_steps=10**9))
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("variant", ["2d", "3d"])
    def test_memory_besides_the_samples_does_not_grow_with_their_count(self, variant):
        # one block's records whatever the count: ten times the samples need
        # no more memory beyond the returned arrays than allocator noise
        p = params_for_variant(variant)
        _rollout(p, RolloutConfig(seed=0, sample_count=1000))  # numpy's first-call allocations
        extra = []
        for samples in (20_000, 200_000):
            tracemalloc.start()
            try:
                features, actions = _rollout(p, RolloutConfig(seed=0, sample_count=samples))
                extra.append(tracemalloc.get_traced_memory()[1] - features.nbytes - actions.nbytes)
            finally:
                tracemalloc.stop()
        assert extra[1] <= extra[0] + (256 << 10), extra

    def test_refuses_an_oversized_rollout_before_drawing(self, monkeypatch):
        # with numpy out of reach, a refusal shows that the budget check
        # comes before any draw or allocation, and a config that fits gets
        # past it; a block's records, at most block x max_steps of them,
        # held per step and then joined, add a constant to the budget
        p = params_for_variant("3d")
        n = p.state_size
        fixed = 256 * 8 + cartpole._EPISODE_BLOCK * 500 * 2 * (n + 2)
        fits = (MEMORY_BUDGET // 8 - fixed) // (n + 4)
        monkeypatch.setattr(cartpole, "np", None)
        for samples in (fits + 1, 10**12):
            with pytest.raises(ResourceLimit, match="budget"):
                _rollout(p, RolloutConfig(seed=0, sample_count=samples, bin_count=256))
        with pytest.raises(AttributeError):
            _rollout(p, RolloutConfig(seed=0, sample_count=fits, bin_count=256))


_P2 = params_for_variant("2d")
_IMAGE = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)


def _call_id(call) -> str:
    func, *args = call
    shown = ("p" if a is _P2 else "image" if a is _IMAGE else repr(a) for a in args)
    return f"{func.__name__}({', '.join(shown)})"


@pytest.mark.parametrize(
    "call",
    [
        (constant_action_limit, _P2, 10.5),
        (constant_action_limit, _P2, True),
        (constant_action_limit, _P2, np.True_),
        (analytic_sparsity, 3.0, 200.5),
        (analytic_sparsity, 3.0, True),
        (analytic_sparsity, 3.0, 200, 1.0),
        (RolloutConfig, 0, 2.5),
        (RolloutConfig, np.True_),
        (RolloutConfig, 0, 100, 256, True),
        (gtc_factorial, 9.5, 3),
        (gtc_factorial, 9, True),
        (histogram, [1.0, 2.0], True, (0, 3)),
        (histogram, [1.0, 2.0], np.float64(4), (0, 3)),
        (normalized_entropy, [0.5, 0.5], np.True_),
        (channel_gini, _IMAGE, True),
        (channel_gini, _IMAGE, np.True_),
        (GridGameSpec, 3, 2, 9, np.True_),
        (Component, "x", True, "state"),
        (DomainDescriptor, "d", 2, 3, 4, (), True),
        (DomainDescriptor, "d", 2, 3.0, 4, ()),
        (BreakdownElement, "x", 2, np.True_),
        (path_sparsity_bound, (1, True), 0, 2),
        (path_sparsity_bound, (1, 1), 0, np.float64(3)),
        (Power, 2.5, 3),
        (Power, True, 3),
        (Power, 2, 2.5),
    ],
    ids=_call_id,
)
def test_counts_that_are_not_integers_are_refused(call):
    # floats and bools, numpy's included, end in InvalidParameter rather
    # than a TypeError or a quiet run
    func, *args = call
    with pytest.raises(InvalidParameter, match="must be an integer of at least"):
        func(*args)


# each real-number argument, given v, and what the call keeps or returns
_REAL_SITES = {
    "gtc_power base": lambda v: gtc_power(v, 3),
    "gtc_power depth": lambda v: gtc_power(2, v),
    "log10_product": lambda v: log10_product([10, v]),
    "histogram lo": lambda v: histogram([1.0, 2.0], 4, (v, 3)).lo,
    "histogram hi": lambda v: histogram([1.0, 2.0], 4, (0, v)).hi,
    "analytic_sparsity": lambda v: analytic_sparsity(v),
    "CartPoleParams gravity": lambda v: CartPoleParams(gravity=v).gravity,
    "CartPoleParams timestep": lambda v: CartPoleParams(timestep=v).timestep,
    "ReferenceTarget value": lambda v: ReferenceTarget("m", v, 0, "s").value,
    "ReferenceTarget tolerance": lambda v: ReferenceTarget("m", 1.0, v, "s").tolerance,
    "TabularDataset": lambda v: TabularDataset([[v]], [0], ("f",), ("c",)).features[0][0],
    "MeasureResult": lambda v: MeasureResult("m", v, "c", ANALYTIC).value,
    "Power base": lambda v: Power(v, 3).base,
    "Power exp": lambda v: Power(2, v).exp,
}


_NO_REALS = {"True": True, "numpy True": np.True_, "nan": math.nan, "inf": math.inf,
             "-inf": -math.inf, "1e400": 10**400, "str": "1.5", "None": None, "complex": 1j}


@pytest.mark.parametrize(
    ("site", "value"),
    [pytest.param(site, value, id=f"{site}-{name}") for site in sorted(_REAL_SITES)
     for name, value in _NO_REALS.items()
     if (site, name) != ("Power base", "1e400")],  # a base past the float range is Power's use
)
def test_values_that_are_no_finite_real_number_are_refused(site, value):
    # a bool ran as 1, NaN came back as the result, a string raised a bare
    # TypeError, an infinite histogram range warned, 10**400 raised
    # OverflowError or gave sparsity 1.0, and a table stored them all
    with pytest.raises(DcxError):
        _REAL_SITES[site](value)


@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(3), Fraction(1, 2)], ids=repr)
@pytest.mark.parametrize("site", sorted(s for s in _REAL_SITES if not s.startswith("Power")))
def test_real_numbers_give_what_their_float_gives(site, value):
    # refused where their float is, and elsewhere kept or computed as that
    # Python float; a reference target keeps an integer as an int, so the
    # report hashes do not move
    call = _REAL_SITES[site]
    try:
        want = call(float(value))
    except InvalidParameter:
        with pytest.raises(InvalidParameter):
            call(value)
        return
    got = call(value)
    integral = site.startswith("ReferenceTarget") and isinstance(value, np.integer)
    assert got == want and type(got) is (int if integral else float)


def test_numpy_integer_counts_give_the_python_int_results():
    # accepted as before where they were, and everywhere stored and
    # computed as the Python int, so no count wraps at 64 bits
    i = np.int64
    assert channel_gini(_IMAGE, i(1)) == channel_gini(_IMAGE, 1)
    assert normalized_entropy([0.25, 0.75], i(2)) == normalized_entropy([0.25, 0.75], 2)
    spec = GridGameSpec(side=i(3), dims=i(2), max_plies=i(9), win_length=i(3))
    assert spec == TIC_TAC_TOE and type(spec.cells) is int
    assert gtc_factorial(i(9), i(9)) == gtc_factorial(9, 9)
    pogo = bundled_descriptor("pogo")
    wide = replace(pogo, branching_factor=i(pogo.branching_factor), max_game_length=i(2000))
    assert tree_complexity(wide) == tree_complexity(replace(pogo, max_game_length=2000))
    assert Component("x", i(5), "state").log10() == Component("x", 5, "state").log10()
    assert analytic_sparsity(3.5, i(200), i(2)) == analytic_sparsity(3.5, 200, 2)
    assert RolloutConfig(seed=i(1), sample_count=i(100)) == RolloutConfig(seed=1, sample_count=100)
    assert constant_action_limit(_P2, i(50)) == constant_action_limit(_P2, 50)


def test_numpy_integer_trials_give_the_python_int_report():
    # a numpy count reached the provenance as given, and to_json raised
    # TypeError: Object of type int64 is not JSON serializable
    def report(trials) -> str:
        measures, _ = limit_measures(_P2, trials)
        return to_json(ComplexityReport("x", tuple(measures), timestamp="fixed"))

    assert report(np.int64(100)) == report(100)


@pytest.mark.parametrize(
    "call",
    [
        (constant_action_limit, _P2, 10**5000),
        (analytic_sparsity, 3.0, 10**5000),
        (_rollout, _P2, RolloutConfig(seed=0, sample_count=10**5000)),
        (_rollout, _P2, RolloutConfig(seed=0, bin_count=10**400)),
    ],
    ids=["limit trials", "sparsity episode_length", "rollout sample_count", "rollout bin_count"],
)
def test_refusals_state_counts_past_the_digit_limit(call):
    # str() refuses ints past 4,300 digits and a GiB figure this size is
    # past the float range, so the messages give them as 10^x
    func, *args = call
    with pytest.raises(ResourceLimit, match=r"10\^\d+\.\d{3} .*budget"):
        func(*args)
