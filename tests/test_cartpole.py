"""Cart-pole simulator: physics sanity, measured action limits, and the
random-walk sparsity model checked against exact enumeration. The kernels
are checked bit for bit against the straightforward loops they replaced."""

import numpy as np
import pytest

from dcx.cartpole import (
    INIT_BOUND,
    WALK_STEP_BUDGET,
    CartPoleParams,
    RolloutConfig,
    _axis_forces,
    _rollout,
    analytic_sparsity,
    constant_action_limit,
    is_failed,
    params_for_variant,
    rollout_entropy,
    step,
)
from dcx.errors import InvalidAction, InvalidParameter, ResourceLimit


def exact_band_survival(band: int, length: int) -> float:
    """Probability a ±1 walk of the given length stays within [-band, band],
    by dynamic programming over position occupancy."""
    positions = np.arange(-band, band + 1)
    mass = np.zeros(len(positions))
    mass[band] = 1.0  # start at the origin
    for _ in range(length):
        spread = np.zeros_like(mass)
        spread[1:] += 0.5 * mass[:-1]
        spread[:-1] += 0.5 * mass[1:]
        mass = spread
    return float(mass.sum())


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
    also check dcx.cartpole._planar_update."""
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


def oracle_step(state, action, p):
    """The tuple step with numpy's sine and cosine on scalars."""
    out = []
    for axis, force in enumerate(_axis_forces(action, p, p.force_magnitude)):
        out.extend(oracle_planar_update(*state[4 * axis : 4 * axis + 4], force, p))
    return tuple(float(v) for v in out)


def oracle_rollout(p, cfg):
    """The tuple-step rollout loop: (features, actions)."""
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
        if age >= cfg.max_steps or is_failed(state, p):
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


def oracle_constant_action_limit(p, trials, seed):
    """The masked loop: every step gathers the live rows of one
    trials x state_size array, writes them back and tests every trial."""
    rng = np.random.default_rng(seed)
    states = rng.uniform(-INIT_BOUND, INIT_BOUND, size=(trials, p.state_size))
    forces = _axis_forces(1, p, p.force_magnitude)
    steps = np.zeros(trials)
    alive = np.ones(trials, dtype=bool)
    count = 0
    while alive.any():
        count += 1
        states[alive] = oracle_batch_step(states[alive], forces, p)
        failed_now = alive & oracle_batch_failed(states, p)
        steps[failed_now] = count
        alive &= ~failed_now
    return float(steps.mean())


def oracle_sparsity(limit, episode_length, samples, seed, axes):
    """Chunked int64 +/-1 walks compared with a float band per sample."""
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


class TestPhysics:
    def test_equilibrium_is_fixed_point(self):
        p = params_for_variant("2d")
        state = (0.0, 0.0, 0.0, 0.0)
        for _ in range(50):
            state = step(state, 0, p, force_override=0.0)
        assert state == (0.0, 0.0, 0.0, 0.0)

    def test_mirror_symmetry_is_exact(self):
        p = params_for_variant("2d")
        rng = np.random.default_rng(0)
        state = tuple(float(v) for v in rng.uniform(-0.05, 0.05, 4))
        mirrored = tuple(-v for v in state)
        for _ in range(30):
            state = step(state, 1, p)
            mirrored = step(mirrored, 0, p)
            assert mirrored == tuple(-v for v in state)

    def test_zero_gravity_holds_tilt(self):
        p = CartPoleParams(gravity=0.0)
        for theta in (0.1, -0.1):
            state = (0.0, 0.0, theta, 0.0)
            state = step(state, 0, p, force_override=0.0)
            assert state[2] == theta
            assert state[3] == 0.0

    def test_high_gravity_tips_faster(self):
        normal = params_for_variant("2d")
        heavy = params_for_variant("2dg")
        tilt = (0.0, 0.0, 0.05, 0.0)
        after_normal = step(tilt, 1, normal)
        after_heavy = step(tilt, 1, heavy)
        assert after_heavy[3] > after_normal[3]

    def test_spatial_variant_runs_two_planes(self):
        p = params_for_variant("3d")
        state = tuple(np.linspace(-0.04, 0.04, 8))
        pushed_x = step(state, 1, p)
        assert pushed_x[4:] == state[4:] or not np.allclose(pushed_x[4:], state[4:])
        # pushing along x leaves the y plane evolving force-free
        free_y = step(state[4:], 0, params_for_variant("2d"), force_override=0.0)
        assert pushed_x[4:] == free_y

    def test_rejects_out_of_range_actions(self):
        with pytest.raises(InvalidAction):
            step((0.0, 0.0, 0.0, 0.0), 2, params_for_variant("2d"))
        with pytest.raises(InvalidAction):
            step(tuple([0.0] * 8), 4, params_for_variant("3d"))
        with pytest.raises(InvalidAction):
            step((0.0, 0.0, 0.0, 0.0), -1, params_for_variant("2d"))

    def test_failure_predicate(self):
        p = params_for_variant("2d")
        assert is_failed((2.5, 0.0, 0.0, 0.0), p)
        assert is_failed((0.0, 0.0, 0.3, 0.0), p)
        assert not is_failed((0.0, 0.0, 0.0, 0.0), p)

    def test_rejects_nonpositive_physical_constants(self):
        with pytest.raises(InvalidParameter):
            CartPoleParams(cart_mass=0.0)
        with pytest.raises(InvalidParameter):
            CartPoleParams(gravity=-1.0)


class TestConstantActionLimit:
    def test_planar_limit_matches_published_window(self):
        p = params_for_variant("2d")
        assert constant_action_limit(p, 10_000, seed=0) == pytest.approx(9.37, abs=1.0)

    def test_high_gravity_limit(self):
        p = params_for_variant("2dg")
        assert constant_action_limit(p, 10_000, seed=0) == pytest.approx(9.22, abs=1.0)

    def test_from_rest_trajectory(self):
        # a single episode from the exact origin under constant pushes
        p = params_for_variant("2d")
        state = (0.0, 0.0, 0.0, 0.0)
        count = 0
        while not is_failed(state, p):
            state = step(state, 1, p)
            count += 1
            assert count < 50
        assert 8 <= count <= 11

    def test_deterministic_under_seed(self):
        p = params_for_variant("2d")
        a = constant_action_limit(p, 2000, seed=42)
        b = constant_action_limit(p, 2000, seed=42)
        assert a == b

    def test_seed_changes_sample(self):
        p = params_for_variant("2d")
        values = {constant_action_limit(p, 500, seed=s) for s in range(6)}
        assert len(values) > 1

    @pytest.mark.parametrize("variant", ["2d", "2dg", "3d"])
    def test_compacted_trials_match_masked_loop(self, variant):
        p = params_for_variant(variant)
        for trials, seed in ((1, 0), (37, 1), (5000, 2), (20_000, 11)):
            got = constant_action_limit(p, trials, seed)
            assert got.hex() == oracle_constant_action_limit(p, trials, seed).hex()


    def test_refuses_a_negative_seed(self):
        with pytest.raises(InvalidParameter, match="seed"):
            constant_action_limit(params_for_variant("2d"), 10, -1)


class TestAnalyticSparsity:
    def test_band_wider_than_episode_is_certain(self):
        assert analytic_sparsity(250.0, episode_length=200) == 1.0

    def test_matches_brute_force_enumeration(self):
        # exact survival over all 2^n walks at an integer limit (no dithering)
        for band, length in ((3, 12), (4, 16), (5, 20)):
            exact = brute_force_band_survival(band, length)
            samples = 40_000
            mc = analytic_sparsity(
                float(band), episode_length=length, samples=samples, seed=5
            )
            sigma = (exact * (1 - exact) / samples) ** 0.5
            assert abs(mc - exact) < 3 * sigma

    def test_brute_force_agrees_with_dynamic_programming(self):
        for band, length in ((3, 12), (4, 16), (5, 20)):
            assert brute_force_band_survival(band, length) == pytest.approx(
                exact_band_survival(band, length), abs=1e-12
            )

    def test_matches_dynamic_programming_at_full_length(self):
        exact = exact_band_survival(9, 200)
        samples = 100_000
        mc = analytic_sparsity(9.0, episode_length=200, samples=samples, seed=0)
        sigma = (exact * (1 - exact) / samples) ** 0.5
        assert abs(mc - exact) < 3 * sigma

    def test_two_axes_squares_the_survival(self):
        exact = exact_band_survival(9, 200) ** 2
        samples = 100_000
        mc = analytic_sparsity(
            9.0, episode_length=200, samples=samples, seed=0, axes=2
        )
        sigma = (exact * (1 - exact) / samples) ** 0.5
        assert abs(mc - exact) < 3 * sigma

    def test_monotone_in_limit_under_shared_seed(self):
        values = [
            analytic_sparsity(limit, samples=20_000, seed=3)
            for limit in (6.3, 7.9, 9.4, 11.0, 12.7)
        ]
        assert values == sorted(values)

    def test_fractional_limit_between_neighboring_bands(self):
        lo = analytic_sparsity(9.0, samples=50_000, seed=4)
        mid = analytic_sparsity(9.5, samples=50_000, seed=4)
        hi = analytic_sparsity(10.0, samples=50_000, seed=4)
        assert lo < mid < hi

    def test_planar_beats_high_gravity_at_published_limits(self):
        sparse_2d = analytic_sparsity(9.37, samples=100_000, seed=0)
        sparse_2dg = analytic_sparsity(9.22, samples=100_000, seed=0)
        assert sparse_2d > sparse_2dg

    def test_walk_arithmetic_matches_int64_walks(self):
        cases = (
            (9.37, 200, 40_000, 0, 1),
            (10.6, 200, 20_000, 1, 2),
            (3.0, 12, 17_000, 5, 1),
            (0.4, 30, 999, 2, 2),
            (49.5, 50, 3000, 3, 1),
        )
        for case in cases:
            assert analytic_sparsity(*case).hex() == oracle_sparsity(*case).hex(), case

    def test_infinite_limit_is_certain(self):
        assert analytic_sparsity(float("inf")) == 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            analytic_sparsity(0.0)
        with pytest.raises(InvalidParameter):
            analytic_sparsity(float("nan"))
        with pytest.raises(InvalidParameter):
            analytic_sparsity(-float("inf"))
        with pytest.raises(InvalidParameter):
            analytic_sparsity(9.0, axes=3)
        with pytest.raises(InvalidParameter):
            analytic_sparsity(9.0, samples=0)
        with pytest.raises(InvalidParameter, match="seed"):
            analytic_sparsity(9.0, samples=10, seed=-1)

    def test_refuses_work_past_the_step_budget_before_drawing(self):
        # a drawing call would run for hours at these sizes, so refusing
        # promptly shows the check comes first
        over = WALK_STEP_BUDGET // 200 + 1
        for samples, axes in ((over, 1), (over // 2 + 1, 2), (10**12, 1)):
            with pytest.raises(ResourceLimit, match="budget"):
                analytic_sparsity(9.0, episode_length=200, samples=samples, axes=axes)


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

    def test_deterministic_under_seed(self):
        p = params_for_variant("2d")
        cfg = RolloutConfig(seed=9, sample_count=3_000)
        assert rollout_entropy(p, cfg) == rollout_entropy(p, cfg)

    @pytest.mark.parametrize("variant", ["2d", "2dg", "3d"])
    def test_scalar_steps_match_tuple_step_loop(self, variant):
        p = params_for_variant(variant)
        # writing cos * cos for cos**2 moves the 2d seed-0 features from
        # sample 229 on, so these lengths see last-bit differences
        configs = [RolloutConfig(seed=seed, sample_count=3000) for seed in (0, 1, 2)]
        configs.append(RolloutConfig(seed=5, sample_count=3000, max_steps=7))
        for cfg in configs:
            features, actions = _rollout(p, cfg)
            want_features, want_actions = oracle_rollout(p, cfg)
            assert features.tobytes() == want_features.tobytes(), cfg
            assert actions.tobytes() == want_actions.tobytes(), cfg
