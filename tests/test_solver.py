import re

import numpy as np
import pytest

import dfls
from dfls.params import (
    NoiseLevelConfig,
    RestartConfig,
    SlowDecreaseConfig,
    SolverParams,
    nsamples_policy,
    resolve_params,
)
from dfls.problems import NoiseModel, NoisyProblem, get_problem
from dfls.solver import (
    EXIT_BUDGET,
    EXIT_NOISE_LEVEL,
    EXIT_RESTARTS_EXHAUSTED,
    EXIT_SLOW_PROGRESS,
    EXIT_SMALL_OBJECTIVE,
    EXIT_SMALL_TRUST_REGION,
    _Loop,
    apply_variable_scaling,
    auto_detect_restart,
    check_noise_level_termination,
    check_slow_decrease,
    solve,
    update_radii,
)


def rosen(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def make_loop(fun, x0, params, seed=0, bounds=None):
    from dfls.model import _bounds_arrays
    x0 = np.asarray(x0, dtype=float)
    lower, upper = _bounds_arrays(bounds, x0.size)
    rp = resolve_params(params, x0.size, float(np.max(np.abs(x0))))
    loop = _Loop(fun, x0, lower, upper, rp, np.random.default_rng(seed), None, False)
    loop._initialize()
    return loop


class TestUpdateRadii:
    params = resolve_params(SolverParams(eta1=0.1, eta2=0.7, gamma_inc=2.0,
                                         gamma_inc_bar=4.0, delta0=1.0), 2, 1.0)

    def test_very_successful_step_grows_radius(self):
        delta, hit = update_radii(0.9, 1.0, 0.01, 1.0, self.params)
        assert delta == 4.0 and not hit

    def test_moderately_successful_step(self):
        delta, hit = update_radii(0.3, 1.0, 0.01, 0.4, self.params)
        assert delta == 0.5 and not hit

    def test_unsuccessful_step(self):
        delta, hit = update_radii(-0.1, 1.0, 0.01, 0.4, self.params)
        assert delta == 0.4 and not hit

    def test_radius_floors_at_rho(self):
        delta, hit = update_radii(-1.0, 0.011, 0.01, 1e-5, self.params)
        assert delta == 0.01 and hit


class TestSafetyPhase:
    def test_radius_reduction(self):
        loop = make_loop(rosen, np.array([-1.2, 1.0]), SolverParams(delta0=1.0))
        loop.delta, loop.rho = 1.0, 0.01
        loop._safety_phase(growing=False)
        assert abs(loop.delta - 0.1) < 1e-15

    def test_rho_reduction_when_delta_hits_rho(self):
        loop = make_loop(rosen, np.array([-1.2, 1.0]), SolverParams(delta0=1.0))
        loop.delta, loop.rho = 0.01, 0.01
        loop._safety_phase(growing=False)
        assert abs(loop.rho - 0.001) < 1e-15
        assert abs(loop.delta - 0.005) < 1e-15

    def test_growing_safety_appends_orthogonal_direction(self):
        def fun(x):
            return np.array([float(x @ x)])

        loop = make_loop(fun, np.zeros(5), SolverParams(delta0=1.0, p_init=2, p=5), seed=3)
        assert loop.iset.npt == 3
        xk = loop.iset.base_point()
        old_dirs = np.delete(loop.iset.points, loop.iset.base_index, axis=0) - xk
        loop._safety_phase(growing=True)
        assert loop.iset.npt == 4
        new_dir = loop.iset.points[-1] - xk
        assert np.all(np.abs(old_dirs @ new_dir) <= 1e-10)
        assert abs(np.linalg.norm(new_dir) - loop.delta) < 1e-12


class TestEvaluateAveraged:
    def test_default_policy_is_single_sample(self):
        loop = make_loop(rosen, np.array([-1.2, 1.0]), SolverParams(delta0=0.1))
        before = loop.n_evals
        _, _, n = loop.evaluate_averaged(np.array([0.0, 0.0]))
        assert n == 1 and loop.n_evals == before + 1

    def test_restart_scaled_policy(self):
        policy = nsamples_policy("restart-scaled")
        assert policy(0.1, 0.1, 5, 2) == 3
        assert policy(0.1, 0.1, 5, 100) == 30
        loop = make_loop(rosen, np.array([-1.2, 1.0]),
                         SolverParams(delta0=0.1, nsamples="restart-scaled"))
        loop.n_restarts = 2
        _, _, n = loop.evaluate_averaged(np.array([0.0, 0.0]))
        assert n == 3

    def test_noiseless_average_equals_single_value(self):
        loop = make_loop(rosen, np.array([-1.2, 1.0]),
                         SolverParams(delta0=0.1, nsamples="const:5"))
        rbar, fbar, n = loop.evaluate_averaged(np.array([0.5, 0.5]))
        assert n == 5
        np.testing.assert_allclose(rbar, rosen(np.array([0.5, 0.5])), atol=1e-15)

    def test_invdelta_policy(self):
        policy = nsamples_policy("invdelta")
        assert policy(0.1, 0.25, 0, 0) == 4
        assert policy(0.1, 2.0, 0, 0) == 1

    def test_budget_truncation(self):
        loop = make_loop(rosen, np.array([-1.2, 1.0]),
                         SolverParams(delta0=0.1, nsamples="const:10", max_evals=35))
        # Initialization consumed 30; only 5 remain for a 10-sample request.
        assert loop.n_evals == 30
        _, _, n = loop.evaluate_averaged(np.array([0.0, 0.0]))
        assert n == 5 and loop.n_evals == 35


class TestSlowDecrease:
    def test_halving_is_not_slow(self):
        cfg = SlowDecreaseConfig(window=5, threshold=1e-4, consecutive=1)
        history = [100.0 * 0.5 ** k for k in range(10)]
        assert not check_slow_decrease(history, cfg)

    def test_constant_values_are_slow(self):
        cfg = SlowDecreaseConfig(window=5, threshold=1e-4, consecutive=1)
        assert check_slow_decrease([3.0] * 6, cfg)

    def test_boundary_rate_is_not_slow(self):
        # Decay rate exactly at the threshold: the strict comparison must not
        # flag it. The threshold is derived with the same log arithmetic the
        # check uses, so the equality is exact in floating point.
        K = 5
        history = [np.exp(-1e-4 * k) for k in range(K + 1)]
        rate = (np.log(history[0]) - np.log(history[-1])) / K
        cfg = SlowDecreaseConfig(window=K, threshold=rate, consecutive=1)
        assert not check_slow_decrease(history, cfg)
        cfg_above = SlowDecreaseConfig(window=K, threshold=rate * (1 + 1e-12), consecutive=1)
        assert check_slow_decrease(history, cfg_above)

    def test_requires_consecutive_slow_iterations(self):
        cfg = SlowDecreaseConfig(window=2, threshold=1e-4, consecutive=3)
        history = [1.0, 1.0, 1.0, 1.0]  # only two slow flags available
        assert not check_slow_decrease(history, cfg)
        assert check_slow_decrease([1.0] * 5, cfg)


class TestNoiseLevelTermination:
    def make_set(self, fvals, counts):
        from dfls.model import InterpolationSet
        pts = np.column_stack([np.arange(len(fvals), dtype=float)])
        iset = InterpolationSet(pts)
        for t, f in enumerate(fvals):
            iset.set_value(t, np.array([np.sqrt(f)]), counts[t])
        iset.rebase()
        return iset

    def test_equal_values_always_within_level(self):
        iset = self.make_set([1.0, 1.0, 1.0], [1, 1, 1])
        cfg = NoiseLevelConfig(level=1e-8)
        assert check_noise_level_termination(iset, cfg)

    def test_large_gap_fails(self):
        eps = 0.01
        iset = self.make_set([1.0, 1.0 + 10 * eps, 1.0], [1, 1, 1])
        assert not check_noise_level_termination(iset, NoiseLevelConfig(level=eps))

    def test_sample_counts_shrink_threshold(self):
        eps = 1.0
        iset = self.make_set([1.0, 1.0 + 0.6 * eps], [1, 4])
        # With N=4 the threshold is eps/2 = 0.5 < 0.6.
        assert not check_noise_level_termination(iset, NoiseLevelConfig(level=eps))
        iset2 = self.make_set([1.0, 1.0 + 0.6 * eps], [1, 1])
        assert check_noise_level_termination(iset2, NoiseLevelConfig(level=eps))


class TestAutoDetect:
    cfg = RestartConfig(window=5, slope_threshold=0.05, corr_threshold=0.1)

    def test_any_radius_increase_blocks_detection(self):
        events = [-1, -1, +1, -1, -1]
        jac = [(k, 0.1 * k) for k in range(5)]
        assert not auto_detect_restart(events, jac, self.cfg)

    def test_exponential_jacobian_changes_trigger(self):
        events = [-1] * 5
        jac = [(k, 0.1 * k) for k in range(5)]  # log-changes on an exact line
        assert auto_detect_restart(events, jac, self.cfg)

    def test_flat_history_does_not_trigger(self):
        events = [-1] * 5
        jac = [(k, 1.0) for k in range(5)]
        assert not auto_detect_restart(events, jac, self.cfg)

    def test_requires_enough_decreases(self):
        events = [-1, 0, 0, -1, 0]  # 2 decreases < 2 * 3 constants
        jac = [(k, 0.1 * k) for k in range(5)]
        assert not auto_detect_restart(events, jac, self.cfg)

    def test_window_precondition(self):
        assert not auto_detect_restart([-1] * 3, [(k, 0.1 * k) for k in range(3)], self.cfg)


class TestRestarts:
    def test_default_limits(self):
        rp = resolve_params(SolverParams(noisy=True), 5, 1.0)
        assert rp.restarts.max_failed == 10
        assert rp.restarts.n_move == 3
        rp2 = resolve_params(SolverParams(noisy=True, p=2, p_init=2), 2, 1.0)
        assert rp2.restarts.n_move == 2

    def test_hard_restart_costs_p_evaluations(self):
        loop = make_loop(rosen, np.array([-1.2, 1.0]), SolverParams(delta0=0.1, noisy=True))
        before = loop.n_evals
        loop._do_restart("hard")
        assert loop.n_evals - before == loop.p.p

    def test_soft_restart_costs_n_move_evaluations(self):
        def fun(x):
            return np.array([float(x @ x) + 1.0])

        loop = make_loop(fun, np.zeros(5), SolverParams(delta0=0.1, noisy=True), seed=1)
        before = loop.n_evals
        loop._do_restart("soft_moving")
        assert loop.n_evals - before == loop.p.restarts.n_move

    def test_exhausted_restarts_terminate(self):
        # A constant objective never improves, so failed restarts accumulate.
        result = solve(lambda x: np.array([1.0]), np.zeros(2),
                       params=SolverParams(noisy=True, delta0=1.0, max_evals=10**6,
                                           restarts=RestartConfig(autodetect=False)),
                       seed=0)
        assert result.exit_flag == EXIT_RESTARTS_EXHAUSTED
        assert result.diagnostics["n_restarts"] == 10

    def test_restart_resets_radii(self):
        loop = make_loop(rosen, np.array([-1.2, 1.0]), SolverParams(delta0=0.5, noisy=True))
        loop.delta, loop.rho = 1e-6, 1e-7
        loop._do_restart("soft_moving")
        assert loop.delta == 0.5 and loop.rho == 0.5


class TestMultiMove:
    def test_momentum_directions_align_with_step(self):
        loop = make_loop(rosen, np.array([-1.2, 1.0]), SolverParams(delta0=0.5))
        xk = loop.iset.base_point()
        step = np.array([0.3, -0.1])
        for _ in range(1000):
            y = loop._momentum_point(xk, step)
            d = y - xk
            assert d @ step > 0.0
            assert np.linalg.norm(d) <= loop.delta * (1 + 1e-12)

    def test_momentum_box_limit_matches_coordinatewise_loop(self):
        from dfls.trustregion import _max_feasible_step
        rng = np.random.default_rng(5)
        lower = np.array([-1.0, -np.inf, 0.0])
        upper = np.array([2.0, 3.0, np.inf])
        for _ in range(200):
            x = rng.uniform([-1.0, -5.0, 0.0], [2.0, 3.0, 5.0])
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            ref = np.inf
            for i in range(3):
                if d[i] > 0 and np.isfinite(upper[i]):
                    ref = min(ref, (upper[i] - x[i]) / d[i])
                elif d[i] < 0 and np.isfinite(lower[i]):
                    ref = min(ref, (lower[i] - x[i]) / d[i])
            assert _max_feasible_step(x, d, np.inf, lower, upper) == max(ref, 0.0)

    def test_momentum_respects_bounds(self):
        lower, upper = np.array([-1.3, 0.9]), np.array([-1.1, 1.1])
        loop = make_loop(rosen, np.array([-1.2, 1.0]), SolverParams(delta0=0.5),
                         bounds=(lower, upper))
        xk = loop.iset.base_point()
        step = np.array([0.3, -0.1])
        for _ in range(200):
            y = loop._momentum_point(xk, step)
            assert np.all(y >= lower - 1e-12) and np.all(y <= upper + 1e-12)

    def test_geometry_mechanism_moves_furthest_points(self):
        def fun(x):
            return np.concatenate([x - 0.5, [1.0]])

        params = SolverParams(delta0=0.5, p=6, multi_move="geometry", multi_move_count=2)
        loop = make_loop(fun, np.zeros(3), params, seed=2)
        dist = loop.iset.distances_from(loop.iset.base_point())
        furthest = set(np.argsort(dist)[-2:])
        pts_before = loop.iset.points.copy()
        loop._multi_move(np.array([0.1, 0.0, 0.0]))
        moved = {t for t in range(loop.iset.npt)
                 if not np.array_equal(pts_before[t], loop.iset.points[t])}
        assert moved == furthest

    def test_nothing_mechanism_changes_one_point_per_iteration(self):
        record = []

        def fun(x):
            record.append(x.copy())
            return rosen(x)

        result = solve(rosen, np.array([-1.2, 1.0]),
                       params=SolverParams(delta0=0.1, max_evals=50), seed=0,
                       record_trace=True)
        sizes = [t["npt"] for t in result.diagnostics["trace"]]
        assert all(s == 3 for s in sizes)


class TestVariableScaling:
    def test_affine_map_examples(self):
        scaled, u0, to_original, to_unit = apply_variable_scaling(
            rosen, np.array([1.0, 1.0]), np.array([-1.0, -1.0]), np.array([3.0, 3.0]))
        np.testing.assert_allclose(u0, [0.5, 0.5])
        np.testing.assert_allclose(to_unit(np.array([-1.0, -1.0])), [0.0, 0.0])
        np.testing.assert_allclose(to_unit(np.array([3.0, 3.0])), [1.0, 1.0])

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        lower, upper = np.array([-2.0, 0.5, 1.0]), np.array([1.0, 2.5, 4.0])
        _, _, to_original, to_unit = apply_variable_scaling(
            lambda x: x, np.zeros(3) + lower, lower, upper)
        for _ in range(20):
            x = rng.uniform(lower, upper)
            np.testing.assert_allclose(to_original(to_unit(x)), x, atol=1e-14)

    def test_infinite_bounds_rejected(self):
        with pytest.raises(ValueError, match="finite bounds"):
            apply_variable_scaling(rosen, np.zeros(2), np.array([-np.inf, 0.0]),
                                   np.array([1.0, 1.0]))

    def test_scaled_solve_matches_unscaled(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 2))
        b = rng.standard_normal(4)

        def residual(x):
            return A @ x + b

        bounds = (np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
        r1 = solve(residual, np.array([1.0, 1.0]), bounds=bounds,
                   params=SolverParams(max_evals=500), seed=0)
        r2 = solve(residual, np.array([1.0, 1.0]), bounds=bounds,
                   params=SolverParams(max_evals=500, scale_variables=True), seed=0)
        assert abs(r1.f - r2.f) <= 1e-6 * max(1.0, r1.f)


class TestFixedVariables:
    def test_fixed_coordinate_is_solved_in_the_free_one(self):
        # rosenbrock with x[1] = 1 is f(z) = 100 (1 - z^2)^2 + (1 - z)^2, whose
        # stationary points are the roots of 400 z^3 - 398 z - 2. From z = -1.2
        # the local minimum near z = -0.995 (f = 3.99) is the nearest one; from
        # z = 0.5 it is the constrained optimum f = 0 at z = 1.
        bounds = (np.array([-np.inf, 1.0]), np.array([np.inf, 1.0]))
        roots = np.sort(np.roots([400.0, 0.0, -398.0, -2.0]).real)
        for x0, z_star in (([-1.2, 1.0], roots[0]), ([0.5, 1.0], roots[2])):
            seen = []
            result = solve(rosen, np.array(x0), bounds=bounds, seed=0,
                           params=SolverParams(max_evals=300),
                           eval_hook=lambda k, x, f, n: seen.append(x.copy()))
            f_star = float(np.sum(rosen(np.array([z_star, 1.0])) ** 2))
            assert abs(result.f - f_star) <= 1e-6
            assert result.exit_flag != EXIT_BUDGET
            assert result.x.shape == (2,) and result.x[1] == 1.0
            assert len(seen) == result.n_evals and all(x[1] == 1.0 for x in seen)

    def test_fixed_coordinate_with_variable_scaling(self):
        bounds = (np.array([-2.0, 1.0]), np.array([2.0, 1.0]))
        result = solve(rosen, np.array([0.5, 1.0]), bounds=bounds, seed=0,
                       params=SolverParams(max_evals=300, scale_variables=True))
        assert result.f <= 1e-6
        assert result.x[1] == 1.0

    def test_every_variable_fixed_evaluates_once(self):
        seen = []
        result = solve(rosen, np.array([0.3, 0.7]), bounds=([0.5, 1.0], [0.5, 1.0]),
                       eval_hook=lambda *args: seen.append(args))
        assert result.n_evals == 1 and len(seen) == 1
        np.testing.assert_array_equal(result.x, [0.5, 1.0])
        assert result.f == float(np.sum(rosen(np.array([0.5, 1.0])) ** 2))
        assert result.exit_flag == EXIT_SMALL_TRUST_REGION


class TestSolveBoundary:
    def test_nonfinite_x0_raises(self):
        for bad in ([np.nan, 1.0], [1.0, np.inf]):
            with pytest.raises(ValueError, match="x0"):
                solve(rosen, np.array(bad))

    def test_residual_of_another_dimension_raises_at_first_evaluation(self):
        for fun, shape in ((lambda x: float(rosen(x) @ rosen(x)), "()"),
                           (lambda x: np.outer(x, x), "(2, 2)")):
            calls = []

            def counted(x, fun=fun):
                calls.append(x)
                return fun(x)

            with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
                solve(counted, np.array([-1.2, 1.0]), seed=0)
            assert len(calls) == 1

    def test_none_lower_bound_leaves_the_variables_unbounded_below(self):
        result = solve(rosen, np.array([-1.2, 1.0]), bounds=(None, [2.0, 2.0]), seed=0)
        assert result.f < 1e-10 and np.all(result.x <= 2.0)

    def test_none_upper_bound_leaves_the_variables_unbounded_above(self):
        # x0 is clipped onto x[0] = 0.5; the minimizer [1, 1] stays feasible.
        result = solve(rosen, np.array([-1.2, 1.0]), bounds=([0.5, -2.0], None), seed=0)
        assert result.f < 1e-10 and np.all(result.x >= [0.5, -2.0])

    def test_nan_bound_raises(self):
        for bounds in (([np.nan, -2.0], [2.0, 2.0]), (-2.0, [2.0, np.nan]), (np.nan, None)):
            with pytest.raises(ValueError, match="bounds"):
                solve(rosen, np.array([-1.2, 1.0]), bounds=bounds)


class TestNarrowBoxes:
    @staticmethod
    def box(width):
        # x0 = [-1.2, 1] sits on the lower face of x[0]; the box optimum of
        # rosenbrock is its corner [-1.2 + width, 1 + width / 2].
        return np.array([-1.2, 1.0 - width / 2]), np.array([-1.2 + width, 1.0 + width / 2])

    def test_box_narrower_than_default_delta0_reaches_its_corner(self):
        for width in (1e-1, 1e-3, 1e-5):
            lower, upper = self.box(width)
            result = solve(rosen, np.array([-1.2, 1.0]), bounds=(lower, upper), seed=0)
            assert np.all(result.x >= lower) and np.all(result.x <= upper)
            corner = rosen(upper)
            assert result.f <= float(corner @ corner) * (1.0 + 1e-12)

    def test_default_delta0_is_clamped_to_half_the_narrowest_free_width(self):
        assert resolve_params(SolverParams(), 2, 1.2).delta0 == pytest.approx(0.12)
        assert resolve_params(SolverParams(), 2, 1.2, box_width=1e-5).delta0 == 5e-6
        assert resolve_params(SolverParams(), 2, 1.2, box_width=1.0).delta0 == pytest.approx(0.12)

    def test_explicit_delta0_wider_than_the_box_raises(self):
        with pytest.raises(ValueError, match="box width 1e-05"):
            solve(rosen, np.array([-1.2, 1.0]), bounds=self.box(1e-5),
                  params=SolverParams(delta0=1e-3))

    def test_half_width_not_above_rho_end_raises(self):
        with pytest.raises(ValueError, match="box width 1e-05"):
            solve(rosen, np.array([-1.2, 1.0]), bounds=self.box(1e-5),
                  params=SolverParams(rho_end=1e-5))


class TestSolve:
    def test_rosenbrock_to_high_accuracy(self):
        result = solve(rosen, np.array([-1.2, 1.0]), seed=0,
                       params=SolverParams(max_evals=10**4 * 3))
        assert result.f < 1e-10
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-4)
        assert result.exit_flag == EXIT_SMALL_OBJECTIVE

    def test_affine_matches_least_squares_oracle(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        result = solve(lambda x: A @ x + b, np.zeros(3), seed=1,
                       params=SolverParams(max_evals=2000))
        x_star, *_ = np.linalg.lstsq(A, -b, rcond=None)
        f_star = float(np.linalg.norm(A @ x_star + b) ** 2)
        assert abs(result.f - f_star) <= 1e-6 * max(1.0, f_star)

    def test_bounded_solution_respects_box(self):
        bounds = (np.array([0.0, 0.0]), np.array([0.5, 2.0]))
        result = solve(rosen, np.array([0.2, 1.0]), bounds=bounds, seed=0,
                       params=SolverParams(max_evals=2000))
        assert np.all(result.x >= bounds[0] - 1e-12)
        assert np.all(result.x <= bounds[1] + 1e-12)
        # Optimum on this box is at x1 = 0.5.
        assert abs(result.x[0] - 0.5) < 1e-3

    def test_budget_exit(self):
        result = solve(rosen, np.array([-1.2, 1.0]), seed=0,
                       params=SolverParams(max_evals=10))
        assert result.exit_flag == EXIT_BUDGET
        assert result.n_evals <= 10

    def test_failing_residuals_are_rejected(self):
        calls = {"n": 0}

        def fun(x):
            calls["n"] += 1
            if calls["n"] in (4, 9):  # sporadic failures
                return np.array([np.nan, np.nan])
            return rosen(x)

        result = solve(fun, np.array([-1.2, 1.0]), seed=0,
                       params=SolverParams(max_evals=2000))
        assert np.isfinite(result.f)
        assert result.f < 1e-8

    def test_residual_length_change_at_a_step_raises(self):
        calls = {"n": 0}

        def fun(x):
            calls["n"] += 1
            # Calls 1-3 evaluate the initial set; call 4 is the first step.
            if calls["n"] == 4:
                return np.append(rosen(x), 0.0)
            return rosen(x)

        with pytest.raises(ValueError, match="shape"):
            solve(fun, np.array([-1.2, 1.0]), seed=0, params=SolverParams(max_evals=200))
        assert calls["n"] == 4

    def test_persistently_failing_residuals_raise(self):
        calls = {"n": 0}

        def fun(x):
            calls["n"] += 1
            if calls["n"] > 3:  # every evaluation after the initial set fails
                raise FloatingPointError("out of domain")
            return rosen(x)

        with pytest.raises(RuntimeError, match="persistent"):
            solve(fun, np.array([-1.2, 1.0]), seed=0, params=SolverParams(max_evals=5000))
        assert calls["n"] == 3 + 51

    def test_smooth_exit_flags(self):
        for params in (SolverParams(max_evals=5000),
                       SolverParams(max_evals=5000, p_init=1),
                       SolverParams(max_evals=40)):
            result = solve(rosen, np.array([-1.2, 1.0]), seed=0, params=params)
            assert result.exit_flag in (EXIT_SMALL_OBJECTIVE, EXIT_SMALL_TRUST_REGION,
                                        EXIT_SLOW_PROGRESS, EXIT_BUDGET)

    def test_noise_level_termination_exit(self):
        noisy = NoisyProblem(get_problem("rosenbrock"), NoiseModel("add_gaussian", 1e-3), seed=0)
        result = solve(noisy, np.array([-1.2, 1.0]), seed=0,
                       params=SolverParams(max_evals=10**4, noisy=False,
                                           noise_level=NoiseLevelConfig(level=0.5)))
        assert result.exit_flag == EXIT_NOISE_LEVEL

    def test_noise_level_triggers_restarts_when_noisy(self):
        noisy = NoisyProblem(get_problem("rosenbrock"), NoiseModel("add_gaussian", 1e-3), seed=0)
        result = solve(noisy, np.array([-1.2, 1.0]), seed=0,
                       params=SolverParams(max_evals=10**4, noisy=True,
                                           restarts=RestartConfig(autodetect=False),
                                           noise_level=NoiseLevelConfig(level=0.5)))
        # The within-noise-level state requests restarts instead of terminating.
        assert result.diagnostics["n_restarts"] > 0
        assert result.exit_flag in (EXIT_RESTARTS_EXHAUSTED, EXIT_BUDGET)

    def test_radius_invariants_hold_along_trace(self):
        result = solve(rosen, np.array([-1.2, 1.0]), seed=0,
                       params=SolverParams(max_evals=3000), record_trace=True)
        trace = result.diagnostics["trace"]
        rhos = [t["rho"] for t in trace]
        assert all(r2 <= r1 + 1e-15 for r1, r2 in zip(rhos, rhos[1:]))
        assert all(t["rho"] <= t["delta"] * (1 + 1e-12) for t in trace)
        assert all(t["delta"] <= 1e10 for t in trace)

    def test_growing_adds_one_point_per_iteration(self):
        result = solve(get_problem("broyden_tridiagonal").residual,
                       get_problem("broyden_tridiagonal").x0, seed=0,
                       params=SolverParams(max_evals=3000, p_init=1), record_trace=True)
        sizes = [t["npt"] for t in result.diagnostics["trace"]]
        growing = [s for s in sizes if s < 11]
        assert growing == sorted(growing)
        assert all(b - a == 1 for a, b in zip(growing, growing[1:]))
        assert max(sizes) == 11

    def test_perturb_growing_mode_runs(self):
        prob = get_problem("broyden_tridiagonal")
        result = solve(prob.residual, prob.x0, seed=0,
                       params=SolverParams(max_evals=3000, p_init=1, growing="perturb"))
        assert prob.objective(result.x) < 1e-6

    def test_best_ever_is_monotone(self):
        best_seen = [np.inf]

        def hook(n_evals, x, fbar, nsamp):
            assert fbar >= 0.0
            best_seen.append(min(best_seen[-1], fbar))

        noisy = NoisyProblem(get_problem("osborne1"), NoiseModel("mult_gaussian", 1e-2), seed=0)
        result = solve(noisy, get_problem("osborne1").x0, seed=0,
                       params=SolverParams(noisy=True, max_evals=2000), eval_hook=hook)
        assert result.f == best_seen[-1]

    def test_identical_seeds_give_identical_traces(self):
        def run():
            log = []
            noisy = NoisyProblem(get_problem("rosenbrock"), NoiseModel("mult_gaussian", 1e-2),
                                 seed=7)
            result = solve(noisy, np.array([-1.2, 1.0]), seed=7,
                           params=SolverParams(noisy=True, max_evals=800),
                           eval_hook=lambda n, x, f, k: log.append((n, x.copy(), f)))
            return result, log

        r1, log1 = run()
        r2, log2 = run()
        assert r1.f == r2.f and r1.n_evals == r2.n_evals
        assert len(log1) == len(log2)
        for (n1, x1, f1), (n2, x2, f2) in zip(log1, log2):
            assert n1 == n2 and f1 == f2 and np.array_equal(x1, x2)

    def test_evaluation_counter_bounded(self):
        noisy = NoisyProblem(get_problem("rosenbrock"), NoiseModel("add_gaussian", 1e-2), seed=0)
        result = solve(noisy, np.array([-1.2, 1.0]), seed=0,
                       params=SolverParams(noisy=True, max_evals=100, nsamples="const:7"))
        assert result.n_evals <= 100
