from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfls import trustregion as tr
from dfls.model import FullModel
from dfls.trustregion import cauchy_point, contract_stats, solve_trust_region


def quad(g, H, c=0.0):
    return FullModel(c=c, g=np.asarray(g, dtype=float), H=np.asarray(H, dtype=float))


def gauss_newton_model(rng, n, m, scale=1.0, rank=None, dominant=False):
    """H = 2 J^T J, with J of the given rank and g along H's top eigenvector if dominant."""
    if rank is None:
        J = scale * rng.standard_normal((m, n))
    else:
        J = scale * rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    if dominant:
        r = rng.uniform(0.1, 10.0) * scale * np.linalg.svd(J)[0][:, 0]
    else:
        r = scale * rng.standard_normal(m)
    return FullModel(c=float(r @ r), g=2.0 * J.T @ r, H=2.0 * J.T @ J)


class TestSolveTrustRegion:
    def test_interior_newton_point(self):
        model = quad([-2.0, 0.0], 2.0 * np.eye(2))
        s = solve_trust_region(model, 10.0)
        np.testing.assert_allclose(s, [1.0, 0.0], atol=1e-10)

    def test_gradient_dominant_goes_to_boundary(self):
        model = quad([1.0, 0.0], np.zeros((2, 2)))
        s = solve_trust_region(model, 0.5)
        np.testing.assert_allclose(s, [-0.5, 0.0], atol=1e-12)

    def test_zero_gradient_returns_zero_step(self):
        model = quad([0.0, 0.0], np.eye(2))
        np.testing.assert_allclose(solve_trust_region(model, 1.0), 0.0)

    def test_box_constrained_matches_grid(self):
        rng = np.random.default_rng(0)
        lower = np.array([-0.1, -0.1])
        upper = np.array([0.1, 0.1])
        for _ in range(20):
            model = gauss_newton_model(rng, 2, 3)
            delta = rng.uniform(0.05, 1.0)
            s = solve_trust_region(model, delta, lower, upper)
            assert np.all(s >= lower - 1e-12) and np.all(s <= upper + 1e-12)
            assert np.linalg.norm(s) <= delta * (1 + 1e-12)
            # Dense grid over box (clipped to the ball).
            xs = np.linspace(-0.1, 0.1, 161)
            X, Y = np.meshgrid(xs, xs)
            pts = np.column_stack([X.ravel(), Y.ravel()])
            pts = pts[np.linalg.norm(pts, axis=1) <= delta]
            vals = np.array([model.value(p) for p in pts])
            best = vals.min()
            spread = model.value(np.zeros(2)) - best
            assert model.value(s) <= best + 0.05 * max(spread, 1e-12)

    def test_feasibility_and_monotonicity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            model = gauss_newton_model(rng, n, int(rng.integers(1, 7)))
            delta = rng.uniform(1e-3, 10.0)
            if rng.uniform() < 0.5:
                lower = -rng.uniform(0.01, 5.0, n)
                upper = rng.uniform(0.01, 5.0, n)
            else:
                lower = upper = None
            s = solve_trust_region(model, delta, lower, upper)
            assert np.linalg.norm(s) <= delta * (1 + 1e-12)
            if lower is not None:
                assert np.all(s >= lower - 1e-12) and np.all(s <= upper + 1e-12)
            assert model.value(s) <= model.value(np.zeros(n)) + 1e-12

    def test_decrease_contract_is_counted(self):
        before = contract_stats()
        model = quad([-1.0, 2.0], 2.0 * np.eye(2))
        solve_trust_region(model, 1.0)
        after = contract_stats()
        assert after["checks"] == before["checks"] + 1
        assert after["violations"] == before["violations"]

    def test_huge_ill_conditioned_models_survive(self):
        # Near-singular interpolation sets produce models with mixed huge
        # magnitudes; the step must still verify the decrease contract.
        rng = np.random.default_rng(2)
        for _ in range(50):
            J = rng.standard_normal((3, 3)) * np.array([1e12, 1e6, 1.0])
            r = rng.standard_normal(3) * 1e6
            model = FullModel(c=float(r @ r), g=2.0 * J.T @ r, H=2.0 * J.T @ J)
            s = solve_trust_region(model, rng.uniform(1e-6, 1.0))
            assert np.all(np.isfinite(s))


class TestCauchyPoint:
    def test_interior_one_dimensional_minimizer(self):
        model = quad([-2.0, 0.0], 2.0 * np.eye(2))
        s = cauchy_point(model, 10.0)
        np.testing.assert_allclose(s, [1.0, 0.0], atol=1e-12)

    def test_zero_curvature_goes_to_boundary(self):
        model = quad([3.0, 4.0], np.zeros((2, 2)))
        s = cauchy_point(model, 2.0)
        assert abs(np.linalg.norm(s) - 2.0) < 1e-12
        assert model.g @ s < 0

    def test_box_truncates_step(self):
        model = quad([1.0, 0.0], np.zeros((2, 2)))
        s = cauchy_point(model, 5.0, np.array([-0.25, -1.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(s, [-0.25, 0.0], atol=1e-12)

    def test_decrease_bound_over_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            model = gauss_newton_model(rng, 3, int(rng.integers(1, 6)))
            delta = rng.uniform(1e-3, 5.0)
            s = cauchy_point(model, delta)
            gnorm = np.linalg.norm(model.g)
            if gnorm == 0.0:
                continue
            hnorm = np.linalg.norm(model.H, 2)
            bound = 0.5 * gnorm * min(delta, gnorm / max(hnorm, 1.0))
            assert model.decrease(s) >= bound * (1 - 1e-10) - 1e-12


def exact_norm_step(model, delta, lower=None, upper=None):
    """Reference subproblem: the exact ||H|| from the start, in both tests.

    Returns (step, passes the Cauchy decrease audit).
    """
    g, H = model.g, model.H
    n = g.size
    lo, up = tr._bounds(lower, upper, n)
    lo, up = np.minimum(lo, 0.0), np.maximum(up, 0.0)
    gnorm = np.sqrt(float(g @ g))
    if gnorm == 0.0:
        return np.zeros(n), True
    hnorm = tr._spectral_norm(H)
    unconstrained = bool(np.all(np.isinf(lo)) and np.all(np.isinf(up)))
    d = -g / gnorm
    t_reach = delta if unconstrained else tr._max_feasible_step(np.zeros(n), d, delta, lo, up)
    bound = 0.5 * gnorm * min(t_reach, gnorm / max(hnorm, 1.0))
    curv = float(d @ H @ d)
    if curv > 1e-8 * hnorm and curv > 0.0:
        t_opt = gnorm / curv
    elif hnorm > 0.0:
        t_opt = gnorm / hnorm
    else:
        t_opt = np.inf
    t_max = tr._max_feasible_step(np.zeros(n), d, delta, lo, up, box=not unconstrained)
    s_c = tr._finalize(min(t_opt, t_max) * d, lo, up, delta)
    if unconstrained:
        s = tr._cg_ball_only(model, s_c, delta, max_iter=2 * n)
    else:
        s = tr._projected_cg(model, s_c, delta, lo, up, max_iter=2 * n)
    s = tr._finalize(s, lo, up, delta)

    def decrease_and_tol(step):
        Hs = H @ step
        decrease = -float(g @ step) - 0.5 * float(step @ Hs)
        snorm = np.sqrt(float(step @ step))
        cancel = gnorm * snorm + 0.5 * snorm * np.sqrt(float(Hs @ Hs))
        return decrease, 1e-12 * max(1.0, abs(bound)) + 8.0 * (n + 4) * tr._EPS * cancel

    decrease, tol = decrease_and_tol(s)
    dec_c, tol_c = decrease_and_tol(s_c)
    if not (decrease >= dec_c and decrease >= bound - tol):
        s, decrease, tol = s_c, dec_c, tol_c
    return s, not decrease < bound - tol


class TestCertifiedNorm:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 8), extra_rows=st.integers(-3, 4), seed=st.integers(0, 2**32 - 1),
           deficiency=st.integers(0, 3), scale=st.sampled_from([1e-6, 1.0, 1e3, 1e12]),
           dominant=st.booleans(), bounded=st.booleans(),
           log_delta=st.floats(-6.0, 2.0))
    def test_matches_exact_norm_reference(self, n, extra_rows, seed, deficiency, scale,
                                          dominant, bounded, log_delta):
        # Rank-deficient J, g along H's dominant eigenvector (where the
        # Cauchy decrease equals the bound), 1e12-scaled J, n = 1, and boxes
        # that do and do not bind: steps and audit outcomes are bitwise the
        # exact-norm reference's.
        rng = np.random.default_rng(seed)
        m = max(1, n + extra_rows)
        rank = max(1, min(m, n) - deficiency)
        model = gauss_newton_model(rng, n, m, scale, rank, dominant)
        delta = 10.0 ** log_delta
        lower = upper = None
        if bounded:
            lower = -delta * rng.uniform(0.0, 2.0, n)
            upper = delta * rng.uniform(0.0, 2.0, n)
        if np.any(model.g):
            hnorm = tr._HessianNorm(model.H, -model.g / np.linalg.norm(model.g))
            assert hnorm.lower <= tr._spectral_norm(model.H) <= hnorm.upper
        expected, passes = exact_norm_step(model, delta, lower, upper)
        before = contract_stats()
        if passes:
            got = solve_trust_region(model, delta, lower, upper)
            assert got.tobytes() == expected.tobytes()
        else:
            with pytest.raises(AssertionError, match="Cauchy decrease"):
                solve_trust_region(model, delta, lower, upper)
        after = contract_stats()
        assert after["violations"] - before["violations"] == (0 if passes else 1)

    @settings(max_examples=500, deadline=None)
    @given(ratios=st.tuples(*[st.floats(0.0, 2.0)] * 4), below=st.floats(0.05, 1.0),
           hnorm=st.floats(0.0, 1e3), gnorm=st.floats(1e-3, 1e3),
           t_reach=st.floats(1e-6, 1e3))
    # CG beats the Cauchy step and passes the exact bound but not the
    # certified one, while the Cauchy step passes the certified bound.
    @example(ratios=(1.2, 0.1, 1.1, 2.0), below=0.5, hnorm=2.0, gnorm=2.0, t_reach=10.0)
    def test_certified_outcome_is_the_exact_outcome(self, ratios, below, hnorm, gnorm,
                                                    t_reach):
        # Decreases and rounding errors near the bound, where the two tests
        # can disagree: any outcome decided from a lower bound on ||H|| must
        # be the outcome at ||H|| itself.
        bound = tr._cauchy_bound(gnorm, t_reach, hnorm)
        dec, rounding, dec_c, rounding_c = (bound * r for r in ratios)
        cg, cauchy = (dec, 0.5 * rounding), (dec_c, 0.5 * rounding_c)
        norm = SimpleNamespace(lower=below * hnorm, exact=lambda: hnorm)
        _, keep_cg, passes = tr._certified_audit(gnorm, t_reach, norm, cg, cauchy)
        assert (keep_cg, passes) == tr._audit(bound, cg, cauchy)

    def test_degenerate_curvature_takes_the_exact_norm(self):
        # g lies almost along the null direction of H, so d.H.d is below
        # 1e-8 of any upper bound on ||H|| and the test needs ||H|| itself.
        model = quad([1e-5, 1.0], np.diag([1e10, 0.0]))
        before = contract_stats()["exact_norms"]
        s = solve_trust_region(model, 1.0)
        assert contract_stats()["exact_norms"] == before + 1
        assert s.tobytes() == exact_norm_step(model, 1.0)[0].tobytes()

    def test_well_conditioned_model_needs_no_exact_norm(self):
        rng = np.random.default_rng(4)
        J = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        r = rng.standard_normal(3)
        models = [quad([1.0, 2.0], 2.0 * np.eye(2)),  # g is an eigenvector
                  FullModel(c=float(r @ r), g=2.0 * J.T @ r, H=2.0 * J.T @ J)]
        before = contract_stats()["exact_norms"]
        for model in models:
            for delta in (1e-3, 1.0, 1e3):
                s = solve_trust_region(model, delta)
                assert s.tobytes() == exact_norm_step(model, delta)[0].tobytes()
        assert contract_stats()["exact_norms"] == before
