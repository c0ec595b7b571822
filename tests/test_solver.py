import copy
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfls
from dfls.bench import run_one
from dfls.params import (
    NoiseLevelConfig,
    RestartConfig,
    SlowDecreaseConfig,
    SolverParams,
    nsamples_policy,
    resolve_params,
)
from dfls.linalg import RANK_TOL, DegenerateSetError, orthogonal_complement_direction, random_unit
from dfls.model import (
    InterpolationSet,
    MinNormModel,
    fit_model_and_basis,
    geometry_point,
    lagrange_basis,
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
    _unit_cube_maps,
    auto_detect_restart,
    check_noise_level_termination,
    check_slow_decrease,
    solve,
    update_radii,
)
from dfls.trustregion import solve_trust_region


def rosen(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def apply_variable_scaling(residual, x0, lower, upper):
    """Shift-and-scale a box-constrained problem onto the unit cube, through
    the maps solve() uses: (scaled_residual, u0, to_original, to_unit)."""
    to_original, to_unit = _unit_cube_maps(lower, upper)
    return (lambda u: residual(to_original(u))), to_unit(x0), to_original, to_unit


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
        loop._safety_phase(None)
        assert abs(loop.delta - 0.1) < 1e-15

    def test_rho_reduction_when_delta_hits_rho(self):
        loop = make_loop(rosen, np.array([-1.2, 1.0]), SolverParams(delta0=1.0))
        loop.delta, loop.rho = 0.01, 0.01
        loop._safety_phase(None)
        assert abs(loop.rho - 0.001) < 1e-15
        assert abs(loop.delta - 0.005) < 1e-15

    def test_the_iteration_that_fills_a_growing_set_marks_the_hand_off(self):
        def fun(x):
            return np.array([float(x @ x), x[0] - 1.0, x[1] + x[2]])

        loop = make_loop(fun, np.ones(3), SolverParams(delta0=0.5, p_init=2, p=3), seed=2)
        assert loop._growing() and not loop.handoff
        loop._iterate()
        assert loop.iset.npt == 4 and not loop._growing() and loop.handoff

    def test_a_set_filled_by_growing_keeps_rho_while_a_point_lies_beyond_epsilon(self):
        loop = make_loop(rosen, np.array([-1.2, 1.0]), SolverParams(delta0=0.01))
        xk = loop.iset.base_point()
        t = (loop.iset.base_index + 1) % loop.iset.npt
        far = xk + np.array([1.0, 0.0])  # beyond epsilon = max(2 delta, 10 rho) = 0.1
        loop.iset.put(t, far, rosen(far))
        loop.iset.rebase()
        plain = copy.deepcopy(loop)
        plain._safety_phase(None)
        assert plain.rho == pytest.approx(0.001)

        loop.handoff = True
        loop._safety_phase(None)
        dist = loop.iset.base_distances()
        assert loop.rho == 0.01 and loop.delta == 0.01 and loop.handoff
        assert dist.max() < 0.1  # the far point moved in
        loop._safety_phase(None)
        assert not loop.handoff and loop.rho == pytest.approx(0.001)

    def test_the_hand_off_measures_epsilon_at_the_radii_the_iteration_started_with(self):
        # delta = 0.09 and rho = 0.01 give epsilon = 0.18; the cut to delta = 0.01
        # would give 0.1, which a point at 0.15 exceeds. It does not hold rho.
        loop = make_loop(rosen, np.array([-1.2, 1.0]), SolverParams(delta0=0.01))
        xk = loop.iset.base_point()
        t = (loop.iset.base_index + 1) % loop.iset.npt
        y = xk + np.array([0.15, 0.0])
        loop.iset.put(t, y, rosen(y))
        loop.iset.rebase()
        assert 0.1 < loop.iset.base_distances().max() < 0.18
        loop.delta, loop.rho, loop.handoff = 0.09, 0.01, True
        loop._safety_phase(None)
        assert not loop.handoff and loop.rho == pytest.approx(0.001)

    def test_growing_safety_appends_orthogonal_direction(self):
        def fun(x):
            return np.array([float(x @ x)])

        loop = make_loop(fun, np.zeros(5), SolverParams(delta0=1.0, p_init=2, p=5), seed=3)
        assert loop.iset.npt == 3
        xk = loop.iset.base_point()
        old_dirs = np.delete(loop.iset.points, loop.iset.base_index, axis=0) - xk
        lm, _ = fit_model_and_basis(loop.iset)
        loop._safety_phase(lm.hull())
        assert loop.iset.npt == 4
        new_dir = loop.iset.points[-1] - xk
        assert np.all(np.abs(old_dirs @ new_dir) <= 1e-10)
        assert abs(np.linalg.norm(new_dir) - loop.delta) < 1e-12

    def test_growing_safety_past_n_is_one_random_unit_draw(self):
        # With p >= n points beyond the base the displacements span R^n: the
        # step is x_k + delta u for one random_unit draw u, and nothing more
        # is drawn from the stream.
        def fun(x):
            return np.array([float(x @ x), x[0]])

        loop = make_loop(fun, np.zeros(3), SolverParams(delta0=1.0, p_init=3, p=8), seed=5)
        assert loop._growing() and loop.iset.npt == loop.n + 1
        lm, _ = fit_model_and_basis(loop.iset)
        ref = copy.deepcopy(loop.rng)
        expected = loop.iset.base_point() + loop.delta * random_unit(ref, loop.n)
        loop._safety_phase(lm.hull())
        assert loop.iset.npt == loop.n + 2
        np.testing.assert_array_equal(loop.iset.points[-1], expected)
        assert loop.rng.bit_generator.state == ref.bit_generator.state


def check_growing_complement(n, p, m, bounded, seed):
    """Fit a random growing set (p < n points beyond the base) and check the
    safety and perturbed directions drawn from the fit's Q_p; returns whether
    the trust-region step s left span(D)."""
    rng = np.random.default_rng(seed)
    loop = make_loop(lambda x: np.ones(1), np.zeros(n),
                     SolverParams(delta0=1.0, p_init=1, p=n, growing="perturb"), seed=seed)
    iset = InterpolationSet(rng.standard_normal((p + 1, n)) * 10.0 ** rng.uniform(-3, 1))
    for t in range(p + 1):
        iset.set_value(t, rng.standard_normal(m))
    iset.rebase()
    loop.iset = iset
    xk = iset.base_point()
    D = np.delete(iset.points, iset.base_index, axis=0) - xk
    dnorm = np.linalg.norm(D, axis=1)
    lm, _ = fit_model_and_basis(iset, repair_rank=False)
    hull = lm.hull()
    assert hull.shape == (n, p)
    assert np.linalg.norm(D.T - hull @ (hull.T @ D.T)) <= 1e-10 * np.linalg.norm(D)

    d = orthogonal_complement_direction(hull, rng)
    assert abs(np.linalg.norm(d) - 1.0) <= 1e-12
    assert np.all(np.abs(D @ d) <= 1e-10 * dnorm)

    if bounded:
        # A box well inside the ball, so that faces cut the step.
        lower = -0.1 * loop.delta * rng.uniform(0.0, 1.0, n)
        s = solve_trust_region(lm, loop.delta, lower, 0.1 * loop.delta * rng.uniform(0.0, 1.0, n))
    else:
        s = solve_trust_region(lm, loop.delta)
    snorm = np.linalg.norm(s)
    leaves = np.linalg.norm(s - hull @ (hull.T @ s)) > RANK_TOL * snorm
    assert bounded or not leaves  # unbounded, g and H lie in span(Q_p), so s does too
    state = copy.deepcopy(loop.rng.bit_generator.state)
    out = loop._perturb(hull, s)
    if leaves and p == n - 1:
        # [D; s] spans R^n: no perturbation, and nothing is drawn.
        assert out is s and loop.rng.bit_generator.state == state
    elif snorm > 0.0:
        d = (out - s) / (loop.p.growing_perturb_mult * loop.delta)
        assert abs(np.linalg.norm(d) - 1.0) <= 1e-10
        assert np.all(np.abs(D @ d) <= 1e-10 * dnorm)
        assert abs(s @ d) <= 1e-10 * snorm
    return leaves


def chained_rosen(x):
    return np.concatenate([10.0 * (x[1:] - x[:-1] ** 2), 1.0 - x[:-1]])


class TestLazyGrowingJacobian:
    """A growing model forms its m x n Jacobian only when the SVD step reads it."""

    @staticmethod
    def jacobian_reads(monkeypatch, n):
        reads = []
        lazy = MinNormModel.J

        def counted(model):
            reads.append(model)
            return lazy.func(model)

        monkeypatch.setattr(MinNormModel, "J", property(counted))
        res = solve(chained_rosen, np.full(n, -1.0), seed=0,
                    params=SolverParams(p_init=1, max_evals=3 * (n + 1)))
        assert res.diagnostics["refactorizations"]["growing_first"] >= 1
        return len(reads)

    def test_a_growing_solve_beyond_the_svd_cutoff_never_forms_j(self, monkeypatch):
        assert dfls.trustregion.EXACT_STEP_MAX_N < 25
        assert self.jacobian_reads(monkeypatch, 25) == 0

    def test_the_svd_step_reads_it_below_the_cutoff(self, monkeypatch):
        assert self.jacobian_reads(monkeypatch, 10) > 0


class TestGrowingComplement:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), p_frac=st.floats(0.0, 1.0), m=st.integers(1, 24),
           bounded=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_directions_are_orthogonal_to_the_displacements(self, n, p_frac, m, bounded, seed):
        check_growing_complement(n, min(max(int(p_frac * n), 1), n - 1), m, bounded, seed)

    @pytest.mark.parametrize("bounded", [False, True])
    def test_n100_p30(self, bounded):
        assert check_growing_complement(100, 30, 120, bounded, seed=0) == bounded

    def test_an_ill_conditioned_exact_step_stays_in_the_span(self):
        # An unrepaired growing model with ||H|| = 2.4e6, on which the CG from
        # the Cauchy point reaches the interior minimizer and then follows
        # rounding noise out of span(Q_p). The unbounded step at n = 11 comes
        # from J's SVD, whose right singular vectors of nonzero singular values
        # span J's row space, span(Q_p).
        assert not check_growing_complement(11, 5, 5, False, 73596)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the CG's stopping test lies below the rounding level of its "
                              "residual, so it runs on past the minimizer and out of span(Q_p)")
    def test_the_cg_step_on_the_same_model_stays_in_the_span(self, monkeypatch):
        # The example above with the SVD step switched off: the unbounded step
        # comes from the CG on H, as every step at n > EXACT_STEP_MAX_N does.
        monkeypatch.setattr(dfls.trustregion, "EXACT_STEP_MAX_N", 10)
        check_growing_complement(11, 5, 5, False, 73596)


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

    def test_one_guard_for_single_and_batch_samples(self):
        # A raising or non-finite sample fails the average on either path; a
        # residual that is not 1-D is a ValueError on either path.
        class Residual:
            def __init__(self, value):
                self.value = value

            def __call__(self, x, n_samples=1):
                if isinstance(self.value, Exception):
                    raise self.value
                return self.value

            sample_mean = __call__

        loop = make_loop(rosen, np.array([-1.2, 1.0]),
                         SolverParams(delta0=0.1, nsamples="const:3"))
        for value in (FloatingPointError("overflow"), np.array([1.0, np.nan])):
            res = Residual(value)
            for fun in (res, res.__call__):  # batch path, then one sample at a time
                loop.fun = fun
                before = loop.n_evals
                rbar, fbar, n = loop.evaluate_averaged(np.zeros(2))
                assert rbar is None and fbar == np.inf and n == 3
                assert loop.n_evals == before + 3
        res = Residual(np.ones((2, 1)))
        for fun in (res, res.__call__):
            loop.fun = fun
            with pytest.raises(ValueError, match="1-D"):
                loop.evaluate_averaged(np.zeros(2))

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

    def test_matches_the_pointwise_loop(self):
        def loop_reference(iset, cfg):
            fvals = iset.objective_values()
            fk = iset.base_objective()
            for t in range(iset.npt):
                if t == iset.base_index:
                    continue
                threshold = cfg.scale * cfg.level / np.sqrt(iset.sample_counts[t])
                if cfg.multiplicative and fk != 0.0:
                    threshold *= abs(fk)
                if abs(fvals[t] - fk) > threshold:
                    return False
            return True

        rng = np.random.default_rng(13)
        outcomes = set()
        for _ in range(2000):
            npt = int(rng.integers(1, 6))
            fvals = rng.choice([0.0, 1.0, 2.0], npt) * rng.uniform(0.5, 1.5, npt)
            iset = self.make_set(fvals, rng.integers(1, 5, npt))
            cfg = NoiseLevelConfig(level=float(rng.uniform(0.0, 3.0)),
                                   multiplicative=bool(rng.integers(2)),
                                   scale=float(rng.uniform(0.5, 2.0)))
            expected = loop_reference(iset, cfg)
            assert check_noise_level_termination(iset, cfg) is expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_multiplicative_mode_is_scale_free(self):
        for scale in (1e-6, 1.0, 1e6):
            near = self.make_set([scale, 1.5 * scale, 1.2 * scale], [1, 1, 1])
            far = self.make_set([scale, 3.5 * scale, 1.2 * scale], [1, 1, 1])
            cfg = NoiseLevelConfig(level=2.0, multiplicative=True)
            assert check_noise_level_termination(near, cfg)
            assert not check_noise_level_termination(far, cfg)
        # The additive mode on the same values depends on their scale.
        big = self.make_set([100.0, 150.0, 120.0], [1, 1, 1])
        assert not check_noise_level_termination(big, NoiseLevelConfig(level=2.0))
        assert check_noise_level_termination(
            big, NoiseLevelConfig(level=2.0, multiplicative=True))

    def test_multiplicative_mode_falls_back_to_additive_at_zero_base(self):
        cfg = NoiseLevelConfig(level=1.0, multiplicative=True)
        assert check_noise_level_termination(self.make_set([0.0, 0.5, 0.9], [1, 1, 1]), cfg)
        assert not check_noise_level_termination(self.make_set([0.0, 1.5], [1, 1]), cfg)

    def test_multiplicative_mode_fires_below_unit_level(self):
        # Values within 1e-6 relative of the base sit within half their size.
        rng = np.random.default_rng(14)
        cfg = NoiseLevelConfig(level=0.5, multiplicative=True)
        for _ in range(10_000):
            npt = int(rng.integers(2, 6))
            f = 10.0 ** rng.uniform(-8, 8) * (1.0 + rng.uniform(-1e-6, 1e-6, npt))
            assert check_noise_level_termination(self.make_set(f, [1] * npt), cfg)

    def test_base_point_is_skipped(self):
        # The other point's |2.25 - 1| is within 2.5 * 1; the base (N = 100)
        # is not compared.
        iset = self.make_set([1.0, 2.25], [100, 1])
        assert iset.base_index == 0
        cfg = NoiseLevelConfig(level=2.5, multiplicative=True)
        assert check_noise_level_termination(iset, cfg)


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

    def test_hard_restart_keeps_base_value_and_sample_count(self):
        loop = make_loop(rosen, np.array([-1.2, 1.0]), SolverParams(delta0=0.1, noisy=True))
        old = loop.iset
        b = old.base_index
        old.sample_counts[b] = 7
        point, value = old.base_point().copy(), old.base_value().copy()
        loop._do_restart("hard")
        assert loop.iset is not old
        assert np.array_equal(loop.iset.points[0], point)
        assert np.array_equal(loop.iset.values[0], value)
        assert loop.iset.sample_counts[0] == 7
        assert loop.iset.npt == loop.p.p + 1

    @staticmethod
    def soft_restart_evaluations(kind):
        evaluated = []

        def fun(x):
            evaluated.append(x.copy())
            return np.array([float(x @ x) + 1.0, x[0]])

        loop = make_loop(fun, np.full(5, 0.3), SolverParams(delta0=0.1, noisy=True), seed=4)
        old_base = loop.iset.base_index
        old_xk = loop.iset.base_point().copy()
        evaluated.clear()
        loop._do_restart(kind)
        return loop, old_base, old_xk, evaluated

    def test_soft_moving_restart_moves_the_base_slot_first(self):
        loop, old_base, old_xk, evaluated = self.soft_restart_evaluations("soft_moving")
        delta0 = loop.p.delta0
        assert len(evaluated) == loop.p.restarts.n_move
        moved_base = evaluated[0]
        assert np.array_equal(loop.iset.points[old_base], moved_base)
        assert np.linalg.norm(moved_base - old_xk) <= delta0 * (1 + 1e-12)
        for y in evaluated[1:]:
            assert np.linalg.norm(y - moved_base) <= delta0 * (1 + 1e-12)
            assert any(np.array_equal(y, pt) for pt in loop.iset.points)

    def test_soft_fixed_restart_keeps_the_base_slot(self):
        loop, old_base, old_xk, evaluated = self.soft_restart_evaluations("soft_fixed")
        assert len(evaluated) == loop.p.restarts.n_move
        assert np.array_equal(loop.iset.points[old_base], old_xk)
        for y in evaluated:
            assert np.linalg.norm(y - old_xk) <= loop.p.delta0 * (1 + 1e-12)
            assert any(np.array_equal(y, pt) for pt in loop.iset.points)

    def test_exhausted_restarts_terminate(self):
        # A constant objective never improves, so failed restarts accumulate.
        result = solve(lambda x: np.array([1.0]), np.zeros(2),
                       params=SolverParams(noisy=True, delta0=1.0, max_evals=10**6,
                                           restarts=RestartConfig(autodetect=False)),
                       seed=0)
        assert result.exit_flag == EXIT_RESTARTS_EXHAUSTED
        assert result.diagnostics["n_restarts"] == 10

    def test_refactorizations_add_up_over_hard_restarts(self):
        loop = make_loop(rosen, np.array([-1.2, 1.0]), SolverParams(delta0=0.1, noisy=True))
        for _ in range(3):
            fit_model_and_basis(loop.iset)
            loop._do_restart("hard")
        fit_model_and_basis(loop.iset)
        counts = loop._results(EXIT_BUDGET).diagnostics["refactorizations"]
        assert counts == {"first": 4, "updates": 0, "denominator": 0, "probe": 0,
                          "growing_first": 0, "growing_replaced": 0, "growing_rank": 0,
                          "growing_probe": 0}

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
            assert _max_feasible_step(x, d, np.inf, (lower, upper)) == max(ref, 0.0)

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

    def test_default_count_is_resolved_once(self):
        assert resolve_params(SolverParams(), 5, 1.0).multi_move_count == 3
        assert resolve_params(SolverParams(p=2, p_init=2), 2, 1.0).multi_move_count == 2
        assert resolve_params(SolverParams(multi_move_count=5), 5, 1.0).multi_move_count == 5

    def test_geometry_mechanism_on_a_degenerate_set_takes_random_steps(self):
        # With every point on one line there is no Lagrange basis: each of
        # the furthest points moves to a random spot at distance delta.
        def fun(x):
            return np.append(x, 1.0)

        params = SolverParams(delta0=0.5, p=6, multi_move="geometry", multi_move_count=2)
        loop = make_loop(fun, np.zeros(3), params, seed=2)
        iset = loop.iset
        for t in range(iset.npt):
            y = np.array([0.2 * t, 0.0, 0.0])
            iset.put(t, y, fun(y))
        iset.set_base(0)
        with pytest.raises(DegenerateSetError):
            lagrange_basis(iset)
        xk = iset.base_point().copy()
        rng = copy.deepcopy(loop.rng)
        expected = {}
        for t in (6, 5):
            expected[t] = xk + loop.delta * random_unit(rng, 3)
        loop._multi_move(np.array([0.1, 0.0, 0.0]))
        for t, y in expected.items():
            assert np.array_equal(iset.points[t], y)

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


class TestGeometryPoint:
    def test_degenerate_set_takes_a_clipped_random_step(self):
        # A growing set (p < n) has no Lagrange basis.
        lower, upper = np.full(4, -0.05), np.full(4, 0.05)
        loop = make_loop(lambda x: np.append(x, 1.0), np.zeros(4),
                         SolverParams(delta0=0.02, p_init=1), bounds=(lower, upper))
        with pytest.raises(DegenerateSetError):
            lagrange_basis(loop.iset)
        center = np.array([0.049, -0.049, 0.049, -0.049])
        step = 0.03 * random_unit(copy.deepcopy(loop.rng), 4)
        expected = np.clip(center + step, lower, upper)
        assert not np.array_equal(expected, center + step)  # the box binds
        assert np.array_equal(loop._geometry_point(1, center, 0.03), expected)

    def test_poised_set_gives_the_lagrange_maximizer(self):
        loop = make_loop(rosen, np.array([-1.2, 1.0]), SolverParams(delta0=0.1))
        center = loop.iset.base_point().copy()
        expected = geometry_point(lagrange_basis(loop.iset), 1, center, 0.05,
                                  loop.bounds, copy.deepcopy(loop.rng))
        assert np.array_equal(loop._geometry_point(1, center, 0.05), expected)


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
        assert result.diagnostics["eval_failures"] == {}

    def test_every_variable_fixed_counts_zero_refactorizations_under_every_cause(self):
        fixed = solve(rosen, np.array([0.5, 1.0]), bounds=([0.5, 1.0], [0.5, 1.0]))
        free = solve(rosen, np.array([0.5, 1.0]), params=SolverParams(max_evals=20), seed=0)
        counts = fixed.diagnostics["refactorizations"]
        assert counts.keys() == free.diagnostics["refactorizations"].keys()
        assert set(counts.values()) == {0}

    def test_a_residual_raising_at_x0_fails_alike_with_every_variable_fixed_or_not(self):
        def residual(x):
            return np.array([1.0 / float(x[0]), x[1]])

        for bounds in (([0.0, 0.0], [0.0, 0.0]), ([0.0, -1.0], [0.0, 1.0])):
            with pytest.raises(RuntimeError, match="failed at the starting point") as info:
                solve(residual, np.zeros(2), bounds=bounds, seed=0)
            assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_noisy_residual_sees_caller_points_and_batches_its_samples(self):
        # The caller map is applied where residuals are evaluated, so the
        # noisy problem's sample_mean serves a fixed variable too: one clean
        # residual per evaluated point, however many samples are averaged.
        prob = get_problem("osborne1")
        clean, seen = [], []

        def counted(x):
            clean.append(x.copy())
            return prob.residual(x)

        noisy = NoisyProblem(replace(prob, residual=counted), NoiseModel("mult_gaussian", 1e-2))
        for width, scale in ((np.inf, False), (1.0, True)):
            lower, upper = prob.x0 - width, prob.x0 + width
            lower[2] = upper[2] = prob.x0[2]
            clean.clear()
            seen.clear()
            result = solve(noisy, prob.x0, bounds=(lower, upper), seed=0,
                           params=SolverParams(noisy=True, nsamples="const:5", max_evals=400,
                                               scale_variables=scale),
                           eval_hook=lambda k, x, f, n: seen.append((x.copy(), n)))
            assert result.n_evals == 400 and len(seen) == 80
            assert all(n == 5 for _, n in seen)
            assert len(clean) == 80
            assert all(np.array_equal(x, y) for x, (y, _) in zip(clean, seen))
            assert all(x[2] == prob.x0[2] for x in clean)
            assert any(np.array_equal(result.x, x) for x, _ in seen)


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

    def test_empty_or_not_one_dimensional_x0_raises(self):
        for bad in (np.array([]), np.zeros((2, 1)), np.zeros((1, 2))):
            with pytest.raises(ValueError, match=re.escape(f"x0 must be a non-empty 1-D array, "
                                                           f"got shape {bad.shape}")):
                solve(rosen, bad)

    def test_bound_of_another_length_raises(self):
        for bounds in (([-2.0, -2.0, -2.0], 2.0), (-2.0, [2.0]), (None, np.full((2, 1), 2.0))):
            with pytest.raises(ValueError, match="bounds must be scalars or length-2 vectors"):
                solve(rosen, np.array([-1.2, 1.0]), bounds=bounds)

    def test_nan_bound_raises(self):
        for bounds in (([np.nan, -2.0], [2.0, 2.0]), (-2.0, [2.0, np.nan]), (np.nan, None)):
            with pytest.raises(ValueError, match="bounds"):
                solve(rosen, np.array([-1.2, 1.0]), bounds=bounds)

    def test_nan_rho_end_is_named(self):
        with pytest.raises(ValueError, match=re.escape("need 0 < rho_end < delta0 <= delta_max")):
            solve(rosen, np.array([-1.2, 1.0]), params=SolverParams(rho_end=np.nan))

    @pytest.mark.parametrize("name", ["rosenbrock", "osborne1", "cube_8"])
    def test_no_bounds_is_the_far_box(self, name):
        # Unbounded, the solver clips nothing and tests no box; a box at
        # +-1e300 goes through every clip and box test without binding.
        prob = get_problem(name)
        params = SolverParams(max_evals=60 * (prob.n + 1))
        runs = [solve(prob.residual, prob.x0, bounds=bounds, params=params, seed=3,
                      record_trace=True) for bounds in (None, (-1e300, 1e300))]
        assert runs[0].x.tobytes() == runs[1].x.tobytes()
        assert (runs[0].f, runs[0].n_evals) == (runs[1].f, runs[1].n_evals)
        assert runs[0].diagnostics["trace"] == runs[1].diagnostics["trace"]


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

    def test_watson_12_workload_solves_reach_f_star(self):
        # The two dense_smooth solves of watson_12 at workload seed 0 (solver
        # seeds SeedSequence(0).generate_state(2), budget 1000 (n + 1)).
        # cond(J) is about 1e7 there, so a CG on H = 2 J^T J stalls at its
        # iteration cap and the solves stop on slow progress above f*; the
        # exact step from J's SVD reaches f* early.
        prob = get_problem("watson_12")
        for seed in np.random.SeedSequence(0).generate_state(2):
            rec = run_one("watson_12", NoiseModel("none", 0.0), int(seed), 1000)
            hits = np.flatnonzero(rec.best_true <= prob.f_star * (1.0 + 1e-5))
            assert hits.size and rec.eval_indices[hits[0]] < 400

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

    def test_evaluation_failures_are_counted_by_type(self):
        def failing(fail):
            def fun(x):
                if -0.5 < x[0] < 0.0:  # a region where the residual fails
                    return fail()
                return rosen(x)
            return fun

        def divide():
            raise ZeroDivisionError("division by zero")

        params = SolverParams(max_evals=2000)
        raised = solve(failing(divide), np.array([-1.2, 1.0]), seed=0, params=params)
        nonfinite = solve(failing(lambda: np.array([np.inf, 0.0])), np.array([-1.2, 1.0]),
                          seed=0, params=params)
        count = raised.diagnostics["eval_failures"]["ZeroDivisionError"]
        assert count > 0
        assert raised.diagnostics["eval_failures"] == {"ZeroDivisionError": count}
        assert nonfinite.diagnostics["eval_failures"] == {"nonfinite": count}
        # Counting changes nothing: a raise and a non-finite value are both +inf.
        assert np.array_equal(raised.x, nonfinite.x) and raised.f == nonfinite.f
        assert (raised.n_evals, raised.exit_flag) == (nonfinite.n_evals, nonfinite.exit_flag)
        clean = solve(rosen, np.array([-1.2, 1.0]), seed=0, params=params)
        assert clean.diagnostics["eval_failures"] == {}

    def test_a_geometry_point_that_fails_to_evaluate_is_replaced(self):
        # The residual raises for -0.5 < x[0] < 0. Once delta is down to rho,
        # a geometry point that fails would leave the set, delta and rho as
        # they were, and the iterations would cycle over the same four failing
        # points until the consecutive-failure guard raises.
        def fun(x):
            if -0.5 < x[0] < 0.0:
                raise ZeroDivisionError("division by zero")
            return rosen(x)

        result = solve(fun, np.array([-1.2, 1.0]), seed=4, params=SolverParams(max_evals=2000))
        assert result.diagnostics["eval_failures"]["ZeroDivisionError"] > 0
        assert np.isfinite(result.f)

    def test_a_step_that_fails_to_evaluate_reduces_rho(self):
        # Noisy radius factors shrink delta by 2% per unsuccessful step and rho
        # by 10% once delta reaches it. Near a region where the residuals fail
        # that took more than 50 consecutive failures on a restarted noisy
        # meyer run, so a failed step counts as delta reaching rho.
        calls = {"n": 0}

        def fun(x):
            calls["n"] += 1
            if calls["n"] > 3:  # every step fails
                raise FloatingPointError("overflow")
            return rosen(x)

        loop = make_loop(fun, np.array([-1.2, 1.0]), SolverParams(noisy=True, delta0=0.1))
        rho = loop.rho
        loop.delta = 5.0 * rho  # above rho, and every point within epsilon
        loop._iterate()
        assert calls["n"] == 4  # the step alone: no geometry point was due
        assert loop.rho == loop.p.alpha1 * rho and loop.delta == loop.p.alpha2 * rho

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

    def test_every_iteration_has_one_trace_entry(self):
        # Iterations that end in a degenerate-set repair (the model of a residual
        # that jumps by 1e150 overflows) or in a noise-level restart have their
        # entry too, and the small-objective iteration that stops a run.
        def jumpy(x):
            return rosen(x) * (1e150 if x[0] > 0.05 else 1.0)

        noisy = NoisyProblem(get_problem("rosenbrock"), NoiseModel("add_gaussian", 1e-3), seed=0)
        runs = [
            solve(jumpy, np.array([-1.2, 1.0]), seed=0, params=SolverParams(max_evals=80),
                  record_trace=True),
            solve(noisy, np.array([-1.2, 1.0]), seed=0, record_trace=True,
                  params=SolverParams(max_evals=2000, noisy=True,
                                      restarts=RestartConfig(autodetect=False),
                                      noise_level=NoiseLevelConfig(level=0.5))),
            solve(lambda x: x, np.array([1.0, 1.0]), seed=0, record_trace=True),
        ]
        assert runs[1].diagnostics["n_restarts"] > 0
        assert runs[2].exit_flag == EXIT_SMALL_OBJECTIVE
        for result in runs:
            iters = [entry["iter"] for entry in result.diagnostics["trace"]]
            assert iters == list(range(1, result.diagnostics["iterations"] + 1))

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

    def test_hook_and_residual_keep_the_points_they_were_given(self):
        # Neither sees a row of the interpolation set, which changes when its
        # slot is later replaced.
        prob = get_problem("rosenbrock")
        seen = []

        def residual(x):
            seen.append((x, x.copy()))
            return prob.residual(x)

        result = solve(residual, prob.x0, seed=0, params=SolverParams(max_evals=200),
                       eval_hook=lambda k, x, f, n: seen.append((x, x.copy())))
        assert len(seen) == 2 * result.n_evals
        assert all(np.array_equal(kept, taken) for kept, taken in seen)

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


class TestGrowingFactorizations:
    def test_each_from_scratch_growing_fit_is_counted_by_cause(self, monkeypatch):
        # Reduced initialization grows the set from two points to n + 1; the
        # kept factors are refactorized only for the counted causes.
        import dfls.model
        real, calls = dfls.model.solve_min_norm, []

        def counted(*args):
            calls.append(args[0].shape[0])
            return real(*args)

        monkeypatch.setattr(dfls.model, "solve_min_norm", counted)
        prob = get_problem("broyden_tridiagonal")
        result = solve(prob.residual, prob.x0, seed=0,
                       params=SolverParams(p_init=1, max_evals=20 * (prob.n + 1)))
        counts = result.diagnostics["refactorizations"]
        assert len(calls) == sum(counts["growing_" + cause]
                                 for cause in ("first", "replaced", "rank", "probe"))
        assert counts["growing_first"] == 1 and calls[0] == 1
        assert counts["first"] >= 1  # the full set that the growing one became
