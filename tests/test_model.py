import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfls.linalg import DegenerateSetError, random_orthonormal, random_unit
from dfls.model import (
    INVERSE_DENOM_TOL,
    InterpolationSet,
    LagrangeBasis,
    LinearResidualModel,
    build_initial_set,
    build_linear_model,
    choose_point_to_replace,
    fit_model_and_basis,
    geometry_point,
    lagrange_basis,
    needs_geometry_improvement,
    set_radius,
)


def make_set(points, values):
    iset = InterpolationSet(np.asarray(points, dtype=float))
    for t, v in enumerate(values):
        iset.set_value(t, np.atleast_1d(np.asarray(v, dtype=float)))
    iset.rebase()
    return iset


def model_value(fm, s):
    """m(s) = c + g.s + 0.5 s.H.s of a FullModel."""
    s = np.asarray(s, dtype=float)
    return fm.c + fm.g @ s + 0.5 * (s @ fm.H @ s)


def poisedness_estimate(iset, center, delta):
    """Largest Lagrange-polynomial magnitude over the ball B(center, delta).

    For linear polynomials the ball maximum is |L_t(center)| + delta ||g_t||,
    which is exact. Returns +inf for a degenerate set.
    """
    try:
        basis = lagrange_basis(iset)
    except DegenerateSetError:
        return np.inf
    vals = np.abs(basis.evaluate(center)) + delta * np.linalg.norm(basis.g, axis=1)
    return float(np.max(vals))


def affine_set(A, b, points, base_index=0):
    points = np.asarray(points, dtype=float)
    iset = InterpolationSet(points, base_index=base_index)
    for t in range(points.shape[0]):
        iset.set_value(t, A @ points[t] + b)
    return iset


def random_growing_set(rng, n):
    """p + 1 <= n random points in R^n with random values, base at a random slot."""
    p = int(rng.integers(1, n))
    m = int(rng.integers(1, 2 * n + 1))
    iset = InterpolationSet(rng.standard_normal((p + 1, n)), base_index=int(rng.integers(p + 1)))
    for t in range(p + 1):
        iset.set_value(t, rng.standard_normal(m))
    return iset


def explicit_repair(iset):
    """J_rep = J + sigma_p U N^T from lstsq, an SVD and two complete QRs."""
    b = iset.base_index
    D = np.delete(iset.points, b, axis=0) - iset.base_point()
    dV = np.delete(iset.values, b, axis=0) - iset.base_value()
    J = np.linalg.lstsq(D, dV, rcond=None)[0].T
    (m, n), p = J.shape, D.shape[0]
    k = min(m, n) - p
    if k <= 0:
        return J
    Q = np.linalg.qr(D.T, mode="complete")[0]
    C = J @ Q[:, :p]
    U = np.linalg.qr(C, mode="complete")[0][:, p:p + k]
    sigma = np.linalg.svd(J, compute_uv=False)
    level = sigma[p - 1] if sigma[p - 1] >= 1e-12 * sigma[0] else 1.0
    return J + level * (U @ Q[:, p:p + k].T)


def assert_close_rel(a, b, rel):
    assert np.max(np.abs(a - b)) <= rel * max(np.max(np.abs(b)), 1e-300)


class TestBuildInitialSet:
    def test_unconstrained_geometry(self):
        rng = np.random.default_rng(0)
        x0 = np.array([1.0, -2.0])
        iset = build_initial_set(x0, 0.5, 2, None, rng)
        assert iset.npt == 3
        np.testing.assert_allclose(iset.points[0], x0)
        dirs = iset.points[1:] - x0
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 0.5, rtol=1e-12)
        # Affine independence via the rank of the direction matrix.
        assert np.linalg.matrix_rank(dirs) == 2

    def test_reduced_initialization_two_points(self):
        iset = build_initial_set(np.zeros(2), 1.0, 1, None, np.random.default_rng(1))
        assert iset.npt == 2

    def test_bound_forces_feasible_points(self):
        x0 = np.array([0.0, 0.0])
        bounds = (np.array([-2.0, -2.0]), np.array([0.0, 2.0]))  # +e1 side blocked
        for seed in range(10):
            iset = build_initial_set(x0, 1.0, 2, bounds, np.random.default_rng(seed))
            assert np.all(iset.points >= bounds[0] - 1e-15)
            assert np.all(iset.points <= bounds[1] + 1e-15)
            dist = np.linalg.norm(iset.points[1:] - x0, axis=1)
            assert np.all(dist <= 1.0 * (1 + 1e-12))
            assert np.linalg.matrix_rank(iset.points[1:] - x0) == 2

    def test_box_too_small_raises(self):
        bounds = (np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="infeasible initial geometry"):
            build_initial_set(np.zeros(2), 1.0, 2, bounds, np.random.default_rng(0))

    def test_oversized_set_uses_extra_directions(self):
        iset = build_initial_set(np.zeros(2), 1.0, 5, None, np.random.default_rng(3))
        assert iset.npt == 6


class TestBuildLinearModel:
    def test_affine_residuals_reproduced_exactly(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        points = np.vstack([np.zeros(3), np.eye(3) * 0.7])
        iset = affine_set(A, b, points)
        lm = build_linear_model(iset)
        xk = iset.base_point()
        np.testing.assert_allclose(lm.J, A, atol=1e-9)
        np.testing.assert_allclose(lm.r, A @ xk + b, atol=1e-9)

    def test_growing_rank_repair(self):
        # Two points in R^2 with two residual components: the minimal-norm
        # Jacobian has rank 1, the repaired one rank 2 with equal singular values.
        iset = make_set([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])
        raw = build_linear_model(iset, repair_rank=False)
        assert np.linalg.matrix_rank(raw.J, tol=1e-10) == 1
        repaired = build_linear_model(iset, repair_rank=True)
        sv = np.linalg.svd(repaired.J, compute_uv=False)
        assert np.linalg.matrix_rank(repaired.J, tol=1e-10) == 2
        np.testing.assert_allclose(sv[0], sv[1], rtol=1e-12)

    def test_regression_beats_interpolation_on_noisy_affine(self):
        # With 5(n+1) noisy samples of an affine map, the regression Jacobian
        # is closer to the truth than the n+1-point interpolant on average.
        rng = np.random.default_rng(3)
        n, m = 3, 5
        wins = 0
        trials = 100
        for _ in range(trials):
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            big = rng.standard_normal((5 * (n + 1), n))
            big[0] = 0.0
            small = np.vstack([np.zeros(n), np.eye(n)])
            err = {}
            for label, pts in (("regression", big), ("interp", small)):
                iset = InterpolationSet(pts)
                for t in range(pts.shape[0]):
                    iset.set_value(t, A @ pts[t] + b + 0.05 * rng.standard_normal(m))
                lm = build_linear_model(iset)
                err[label] = np.linalg.norm(lm.J - A)
            wins += err["regression"] < err["interp"]
        assert wins / trials > 0.75

    def test_growing_jacobian_rank(self):
        # Affinely independent p+1 point sets with p < n always give a
        # minimal-norm Jacobian of numerical rank exactly p.
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            p = int(rng.integers(1, n))
            m = int(rng.integers(n, 2 * n + 1))
            pts = np.vstack([np.zeros(n), rng.standard_normal((p, n))])
            iset = InterpolationSet(pts)
            for t in range(p + 1):
                iset.set_value(t, rng.standard_normal(m))
            raw = build_linear_model(iset, repair_rank=False)
            sv = np.linalg.svd(raw.J, compute_uv=False)
            assert np.sum(sv > 1e-10 * max(sv[0], 1e-300)) == p
            fixed = build_linear_model(iset, repair_rank=True)
            assert np.linalg.matrix_rank(fixed.J, tol=1e-10) == n

    def test_growing_fit_matches_the_min_norm_oracle(self):
        # The growing set's fit (p < n) has no basis, pins r to the base value
        # and, unrepaired, is the min-norm interpolant of a from-scratch lstsq.
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(80):
            iset = random_growing_set(rng, int(rng.integers(2, 9)))
            W = np.hstack([np.ones((iset.npt, 1)), iset.points - iset.base_point()])
            if np.linalg.cond(W) > 1e4:
                continue
            Z = np.linalg.lstsq(W, iset.values, rcond=None)[0]
            lm, basis = fit_model_and_basis(iset, repair_rank=False)
            assert basis is None
            scale = max(np.abs(Z).max(), 1.0)
            np.testing.assert_allclose(lm.r, Z[0], rtol=0, atol=1e-10 * scale)
            np.testing.assert_allclose(lm.J, Z[1:].T, rtol=0, atol=1e-10 * scale)
            checked += 1
        assert checked >= 40

    def test_growing_full_model_matches_an_explicit_repair(self):
        # g and H come from the factors; they equal those of J_rep formed
        # explicitly from complete QRs and an SVD, and so does the J read back.
        rng = np.random.default_rng(14)
        for _ in range(60):
            iset = random_growing_set(rng, int(rng.integers(2, 12)))
            J_rep = explicit_repair(iset)
            expected = LinearResidualModel(iset.base_value(), J_rep)
            lm = fit_model_and_basis(iset)[0]
            assert lm.c == expected.c
            assert_close_rel(lm.g, expected.g, 1e-12)
            assert_close_rel(lm.H, expected.H, 1e-12)
            assert_close_rel(lm.J, J_rep, 1e-12)
            assert_close_rel(build_linear_model(iset).J, J_rep, 1e-12)

    def test_unevaluated_points_raise(self):
        iset = InterpolationSet(np.vstack([np.zeros(2), np.eye(2)]))
        iset.set_value(0, np.ones(3))
        with pytest.raises(ValueError, match="unevaluated"):
            build_linear_model(iset)

    def test_preconditioning_matches_unscaled_solution(self):
        rng = np.random.default_rng(5)
        n, m, p = 3, 4, 6
        pts = np.vstack([np.zeros(n), rng.standard_normal((p, n))])
        vals = rng.standard_normal((p + 1, m))
        iset = InterpolationSet(pts)
        for t in range(p + 1):
            iset.set_value(t, vals[t])
        lm = build_linear_model(iset)
        # Unscaled least-squares oracle.
        W = np.hstack([np.ones((p + 1, 1)), pts])
        Z, *_ = np.linalg.lstsq(W, vals, rcond=None)
        np.testing.assert_allclose(lm.r, Z[0], atol=1e-8)
        np.testing.assert_allclose(lm.J, Z[1:].T, atol=1e-8)

    def test_duplicate_points_degenerate(self):
        iset = make_set([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]], [[0.0], [1.0], [1.0]])
        with pytest.raises(DegenerateSetError):
            build_linear_model(iset)

    def test_full_linearity_scaling(self):
        # Model-gradient error on a fixed smooth problem is O(delta): the
        # log-log fit over four decades has slope close to one.
        from dfls.linalg import linear_fit, random_orthonormal

        def residual(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def grad_f(x):
            r = residual(x)
            J = np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
            return 2.0 * J.T @ r

        x = np.array([-1.2, 1.0])
        rng = np.random.default_rng(6)
        errs = []
        deltas = [1e-1, 1e-2, 1e-3, 1e-4]
        for delta in deltas:
            Q = random_orthonormal(2, 2, rng)
            pts = np.vstack([x, x + delta * Q])
            iset = InterpolationSet(pts)
            for t in range(3):
                iset.set_value(t, residual(iset.points[t]))
            fm = build_linear_model(iset)
            errs.append(np.linalg.norm(fm.g - grad_f(x)))
        fit = linear_fit(zip(np.log(deltas), np.log(errs)))
        assert fit.slope >= 0.9


class TestGrowingModelStability:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 40), p_frac=st.floats(0.0, 1.0), m_mult=st.floats(0.1, 3.0),
           seed=st.integers(0, 2**32 - 1))
    @example(n=100, p_frac=0.3, m_mult=1.2, seed=0)
    def test_tiny_value_perturbation_moves_the_gradient_tinily(self, n, p_frac, m_mult, seed):
        # A 1e-15 relative change of the values moves g = 2 J_rep^T r by rounding
        # only: the repair's complement directions are fixed by the two QRs,
        # not by which trailing singular vectors rounding picks.
        rng = np.random.default_rng(seed)
        p = min(max(int(p_frac * n), 1), n - 1)
        m = max(int(m_mult * n), 1)
        points = rng.standard_normal((p + 1, n))
        values = rng.standard_normal((p + 1, m))

        def gradient(vals):
            iset = InterpolationSet(points)
            for t in range(p + 1):
                iset.set_value(t, vals[t])
            iset.rebase()
            return fit_model_and_basis(iset)[0].g

        g = gradient(values)
        moved = gradient(values * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, values.shape)))
        assert np.linalg.norm(moved - g) <= 1e-12 * np.linalg.norm(g)


class TestFullModel:
    def test_zero_residual(self):
        from dfls.model import LinearResidualModel
        J = np.array([[1.0, 2.0], [0.0, 1.0]])
        fm = LinearResidualModel(r=np.zeros(2), J=J)
        assert fm.c == 0.0
        np.testing.assert_allclose(fm.g, 0.0)
        np.testing.assert_allclose(fm.H, 2.0 * J.T @ J)

    def test_scalar_case(self):
        from dfls.model import LinearResidualModel
        fm = LinearResidualModel(r=np.array([3.0]), J=np.array([[2.0]]))
        assert fm.c == 9.0
        np.testing.assert_allclose(fm.g, [12.0])
        np.testing.assert_allclose(fm.H, [[8.0]])

    def test_value_identity(self):
        from dfls.model import LinearResidualModel
        rng = np.random.default_rng(7)
        r = rng.standard_normal(4)
        J = rng.standard_normal((4, 3))
        fm = LinearResidualModel(r=r, J=J)
        for _ in range(10):
            s = rng.standard_normal(3)
            direct = np.linalg.norm(r + J @ s) ** 2
            assert abs(model_value(fm, s) - direct) < 1e-10 * max(1.0, direct)


class TestLagrangeBasis:
    def test_square_case_is_kronecker(self):
        rng = np.random.default_rng(8)
        pts = np.vstack([np.zeros(3), rng.standard_normal((3, 3))])
        iset = make_set(pts, rng.standard_normal((4, 1)))
        iset.base_index = 0
        basis = lagrange_basis(iset)
        for s in range(4):
            vals = basis.evaluate(iset.points[s])
            expected = np.zeros(4)
            expected[s] = 1.0
            np.testing.assert_allclose(vals, expected, atol=1e-9)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(9)
        pts = np.vstack([np.zeros(2), rng.standard_normal((2, 2))])
        iset = make_set(pts, rng.standard_normal((3, 1)))
        iset.base_index = 0
        basis = lagrange_basis(iset)
        for _ in range(5):
            y = rng.standard_normal(2)
            assert abs(np.sum(basis.evaluate(y)) - 1.0) < 1e-9

    def test_regression_case_matches_normal_equations(self):
        rng = np.random.default_rng(10)
        pts = np.vstack([np.zeros(2), rng.standard_normal((5, 2))])
        iset = make_set(pts, rng.standard_normal((6, 1)))
        iset.base_index = 0
        basis = lagrange_basis(iset)
        W = np.hstack([np.ones((6, 1)), pts - iset.base_point()])
        Z = np.linalg.inv(W.T @ W) @ W.T  # coefficients of all polynomials
        np.testing.assert_allclose(basis.c, Z[0], atol=1e-9)
        np.testing.assert_allclose(basis.g, Z[1:].T, atol=1e-9)

    def test_fit_model_and_basis_agree_with_separate_calls(self):
        rng = np.random.default_rng(11)
        pts = np.vstack([np.zeros(3), rng.standard_normal((5, 3))])
        iset = make_set(pts, rng.standard_normal((6, 2)))
        iset.base_index = 0
        lm, basis = fit_model_and_basis(iset)
        lm2 = build_linear_model(iset)
        basis2 = lagrange_basis(iset)
        np.testing.assert_allclose(lm.J, lm2.J, atol=1e-12)
        np.testing.assert_allclose(lm.r, lm2.r, atol=1e-12)
        np.testing.assert_allclose(basis.c, basis2.c, atol=1e-12)
        np.testing.assert_allclose(basis.g, basis2.g, atol=1e-12)


def grid_max_abs_lagrange(basis, t, center, delta, n_angles=20000):
    """Dense boundary search: linear functions peak on the sphere in 2-D."""
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    best = abs(basis.evaluate(center)[t])
    for a in angles:
        y = center + delta * np.array([np.cos(a), np.sin(a)])
        best = max(best, abs(basis.evaluate(y)[t]))
    return best


class TestPoisedness:
    def ideal_set(self, delta=0.5):
        pts = np.vstack([np.zeros(2), delta * np.eye(2)])
        return make_set(pts, [[0.0], [1.0], [2.0]])

    def test_matches_grid_search(self):
        iset = self.ideal_set()
        center = iset.base_point()
        lam = poisedness_estimate(iset, center, 0.5)
        basis = lagrange_basis(iset)
        grid = max(grid_max_abs_lagrange(basis, t, center, 0.5) for t in range(3))
        assert abs(lam - grid) < 1e-3 * grid

    def test_scale_invariance(self):
        iset = self.ideal_set()
        lam1 = poisedness_estimate(iset, iset.base_point(), 0.5)
        scaled = make_set(iset.points * 7.0, iset.values)
        lam2 = poisedness_estimate(scaled, scaled.base_point(), 3.5)
        assert abs(lam1 - lam2) < 1e-9 * lam1

    def test_nearly_collinear_set_is_badly_poised(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-4]])
        iset = make_set(pts, [[0.0], [1.0], [0.5]])
        lam = poisedness_estimate(iset, iset.base_point(), 1.0)
        assert lam >= 100.0

    def test_degenerate_set_gives_infinity(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        iset = make_set(pts, [[0.0], [1.0], [2.0]])
        assert poisedness_estimate(iset, iset.base_point(), 1.0) == np.inf


class TestGeometryPoint:
    def test_linear_over_ball(self):
        basis = LagrangeBasis(c=np.array([0.0]), g=np.array([[1.0, 0.0]]),
                              center=np.zeros(2))
        y = geometry_point(basis, 0, np.zeros(2), 1.0)
        assert abs(abs(y[0]) - 1.0) < 1e-12 and abs(y[1]) < 1e-12

    def test_sign_selection(self):
        basis = LagrangeBasis(c=np.array([0.5]), g=np.array([[1.0, 0.0]]),
                              center=np.zeros(2))
        y = geometry_point(basis, 0, np.zeros(2), 1.0)
        np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-12)

    def test_box_constrained_near_grid_optimum(self):
        rng = np.random.default_rng(12)
        bounds = (np.zeros(2), np.array([0.3, 0.3]))
        for _ in range(20):
            c = rng.standard_normal()
            g = rng.standard_normal(2)
            center = rng.uniform(0.0, 0.3, size=2)
            basis = LagrangeBasis(c=np.array([c]), g=g[None, :], center=center.copy())
            y = geometry_point(basis, 0, center, 1.0, bounds)
            assert np.all(y >= bounds[0] - 1e-15) and np.all(y <= bounds[1] + 1e-15)
            # Dense grid over the feasible box patch inside the ball.
            xs = np.linspace(0.0, 0.3, 301)
            grid_best = 0.0
            for gx in xs:
                ys = center[1] + np.sqrt(max(1.0 - (gx - center[0]) ** 2, 0.0)) * np.array([-1, 1])
                cand_y = np.clip(np.linspace(0, 0.3, 101), 0.0, 0.3)
                pts = np.column_stack([np.full(101, gx), cand_y])
                inside = np.linalg.norm(pts - center, axis=1) <= 1.0
                if np.any(inside):
                    vals = np.abs(c + (pts[inside] - center) @ g)
                    grid_best = max(grid_best, vals.max())
            achieved = abs(basis.evaluate(y)[0])
            assert achieved >= grid_best * (1.0 - 0.02)

    def test_zero_gradient_falls_back_to_random_direction(self):
        basis = LagrangeBasis(c=np.array([1.0]), g=np.zeros((1, 2)), center=np.zeros(2))
        y = geometry_point(basis, 0, np.zeros(2), 0.5, rng=np.random.default_rng(0))
        assert abs(np.linalg.norm(y) - 0.5) < 1e-12

    def test_never_returns_infeasible_point(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            basis = LagrangeBasis(c=rng.standard_normal(1), g=rng.standard_normal((1, 3)),
                                  center=rng.standard_normal(3))
            lower = basis.center - rng.uniform(0.01, 1.0, 3)
            upper = basis.center + rng.uniform(0.01, 1.0, 3)
            y = geometry_point(basis, 0, basis.center, 2.0, (lower, upper))
            assert np.all(y >= lower - 1e-15) and np.all(y <= upper + 1e-15)


class TestSetMaintenance:
    def test_needs_improvement_cases(self):
        pts = np.vstack([np.zeros(2), 0.5 * np.eye(2)])
        iset = make_set(pts, [[0.0], [1.0], [1.0]])
        assert not needs_geometry_improvement(iset, 1.0)
        assert needs_geometry_improvement(iset, 0.25)
        # Boundary: strict inequality.
        assert not needs_geometry_improvement(iset, 0.5)

    def test_choose_replacement_prefers_distant_point(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [1.0, 1.0]])
        iset = make_set(pts, [[0.0], [1.0], [1.0], [2.0]])
        iset.base_index = 0
        basis = lagrange_basis(iset)
        t = choose_point_to_replace(iset, basis, np.array([0.05, 0.05]), 0.1)
        assert t == 3

    def test_choose_replacement_reduces_to_lagrange_magnitude(self):
        rng = np.random.default_rng(14)
        pts = np.vstack([np.zeros(2), np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])])
        iset = make_set(pts, rng.standard_normal((4, 1)))
        iset.base_index = 0
        basis = lagrange_basis(iset)
        new_point = np.array([0.3, 0.4])
        t = choose_point_to_replace(iset, basis, new_point, 1.0)
        lam = np.abs(basis.evaluate(new_point))
        lam[0] = -np.inf
        assert t == int(np.argmax(lam))

    def test_choose_replacement_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            pts = np.vstack([np.zeros(3), rng.standard_normal((5, 3))])
            iset = make_set(pts, rng.standard_normal((6, 1)))
            iset.base_index = 0
            basis = lagrange_basis(iset)
            new_point = rng.standard_normal(3)
            delta = rng.uniform(0.1, 2.0)
            t = choose_point_to_replace(iset, basis, new_point, delta)
            lam = np.abs(basis.evaluate(new_point))
            dist = np.linalg.norm(iset.points - np.zeros(3), axis=1)
            score = lam * np.maximum(dist**4 / delta**4, 1.0)
            score[0] = -np.inf
            assert t == int(np.argmax(score))

    # A set update is what the solver does with a new point: the duplicate
    # test, put (append at slot npt or replace), then rebase.
    @staticmethod
    def _update(iset, point, value, t=None):
        point = np.asarray(point, dtype=float)
        assert not iset.has_point(point)
        iset.put(iset.npt if t is None else t, point, np.asarray(value, dtype=float))
        iset.rebase()

    def test_update_appends_while_growing(self):
        iset = make_set([[0.0, 0.0], [1.0, 0.0]], [[1.0], [2.0]])
        self._update(iset, [0.0, 1.0], [3.0])
        assert iset.npt == 3

    def test_update_moves_base_to_better_point(self):
        iset = make_set([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[1.0], [2.0], [3.0]])
        assert iset.base_index == 0
        self._update(iset, [0.5, 0.5], [0.1], t=2)
        assert iset.base_index == 2

    def test_update_keeps_base_for_worse_point(self):
        iset = make_set([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[1.0], [2.0], [3.0]])
        self._update(iset, [0.5, 0.5], [9.0], t=2)
        assert iset.base_index == 0

    def test_duplicate_point_rejected(self):
        # Replacing slot 1 by the point already there is still a duplicate:
        # the solver's test before a put skips no slot.
        iset = make_set([[0.0, 0.0], [1.0, 0.0]], [[1.0], [2.0]])
        assert iset.has_point(np.array([1.0, 0.0]))

    def test_has_point_can_skip_one_slot(self):
        iset = make_set([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[1.0], [2.0], [3.0]])
        assert iset.has_point(np.array([1.0, 0.0]))
        assert not iset.has_point(np.array([1.0, 0.0]), skip=1)
        assert iset.has_point(np.array([1.0, 0.0]), skip=2)
        assert not iset.has_point(np.array([1.0, 1.0]))

    def test_put_replaces_without_rebase(self):
        iset = make_set([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[1.0], [2.0], [3.0]])
        iset.put(2, np.array([0.5, 0.5]), np.array([0.1]), n_samples=4)
        np.testing.assert_array_equal(iset.points[2], [0.5, 0.5])
        assert iset.objective_values()[2] == pytest.approx(0.01)
        assert iset.sample_counts[2] == 4
        assert iset.npt == 3
        assert iset.base_index == 0
        iset.rebase()
        assert iset.base_index == 2

    def test_put_appends_without_rebase(self):
        iset = make_set([[0.0, 0.0], [1.0, 0.0]], [[1.0], [2.0]])
        iset.put(iset.npt, np.array([0.0, 1.0]), np.array([0.5]), n_samples=2)
        assert iset.npt == 3
        assert iset.values.shape == (3, 1)
        np.testing.assert_array_equal(iset.points[2], [0.0, 1.0])
        assert list(iset.sample_counts) == [1, 1, 2]
        assert iset.base_index == 0

    def test_put_rejects_residual_of_another_length(self):
        iset = make_set([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="shape"):
            iset.put(1, np.array([0.0, 1.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="shape"):
            iset.put(1, np.array([0.0, 1.0]), np.array([1.0]))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           ops=st.lists(st.sampled_from(["put", "append", "rebase", "base", "read"]),
                        min_size=1, max_size=30))
    def test_cached_distances_track_the_set(self, n, seed, ops):
        rng = np.random.default_rng(seed)
        iset = make_set(rng.standard_normal((n + 1, n)), rng.standard_normal((n + 1, 2)))
        for op in ops:
            if op in ("put", "append"):
                t = iset.npt if op == "append" else int(rng.integers(iset.npt))
                iset.put(t, rng.standard_normal(n), rng.standard_normal(2))
            elif op == "rebase":
                iset.rebase()
            elif op == "base":
                iset.set_base(int(rng.integers(iset.npt)))
            else:
                # The readers leave the cached vector as they found it.
                cached = iset.base_distances()
                before = cached.copy()
                iset.furthest_index()
                set_radius(iset)
                needs_geometry_improvement(iset, 0.5)
                try:
                    choose_point_to_replace(iset, lagrange_basis(iset), rng.standard_normal(n), 0.5)
                except DegenerateSetError:
                    pass
                assert iset.base_distances() is cached
                assert cached.tobytes() == before.tobytes()
            fresh = iset.distances_from(iset.base_point())
            assert iset.base_distances().tobytes() == fresh.tobytes()

    def test_furthest_index_is_never_the_base(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            pts = rng.standard_normal((5, 2))
            iset = make_set(pts, rng.standard_normal((5, 1)))
            t = iset.furthest_index()
            assert t != iset.base_index
            dist = iset.distances_from(iset.base_point())
            assert dist[t] == np.max(np.delete(dist, iset.base_index))
        # With every point on top of the base, the base still never wins a tie.
        iset = make_set([[0.0, 0.0]] * 3, [[0.0], [1.0], [2.0]])
        assert iset.base_index == 0
        assert iset.furthest_index() == 1


def scaled_matrix(points, base_index):
    xk = points[base_index]
    alpha = np.max(np.linalg.norm(points - xk, axis=1))
    return np.hstack([np.ones((points.shape[0], 1)), (points - xk) / alpha]), alpha


def scratch_fit(iset):
    """r, J, basis c and basis g from a from-scratch solve: LU if square, else lstsq."""
    W, alpha = scaled_matrix(iset.points, iset.base_index)
    rhs = np.hstack([iset.values, np.eye(iset.npt)])
    if iset.npt == iset.n + 1:
        Z = np.linalg.solve(W, rhs)
    else:
        Z = np.linalg.lstsq(W, rhs, rcond=None)[0]
    m = iset.m
    return (Z[0, :m], Z[1:, :m].T / alpha, Z[0, m:], Z[1:, m:].T / alpha), np.linalg.cond(W)


def cached_fit(iset):
    lm, basis = fit_model_and_basis(iset)
    return lm.r, lm.J, basis.c, basis.g


def square_set(n, rng, m=3):
    pts = np.vstack([np.zeros(n), random_orthonormal(n, n, rng)])
    return make_set(pts, rng.standard_normal((n + 1, m)))


def point_with_lagrange_value(iset, t, value):
    """A point y at which the t-th Lagrange polynomial equals value."""
    basis = lagrange_basis(iset)
    g = basis.g[t]
    return basis.center + (value - basis.c[t]) * g / (g @ g)


# Cached and from-scratch results agree to this relative tolerance on sets whose
# interpolation matrix has a condition number of at most COND_CHECKED.
CACHE_RTOL = 1e-8
COND_CHECKED = 1e4


class TestSquareInverseCache:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), data=st.data(),
           ops=st.lists(st.sampled_from(["put", "far", "near", "tiny", "append",
                                         "rebase", "base"]),
                        min_size=1, max_size=40))
    def test_cached_path_matches_scratch_solve(self, n, seed, data, ops):
        # Square sets (p == n) and tall ones (n < p <= 5(n+1)) share the cache;
        # an append turns a square set tall.
        rng = np.random.default_rng(seed)
        iset = square_set(n, rng)
        max_npt = 5 * (n + 1) + 1
        for _ in range(data.draw(st.integers(0, max_npt - iset.npt))):
            y = rng.uniform(0.2, 1.0) * random_unit(rng, n)
            iset.put(iset.npt, y, rng.standard_normal(3))
        iset.rebase()
        cached_fit(iset)
        since = 0  # replacements since the last from-scratch factorization
        for op in ops:
            counts = dict(iset.refactorizations)
            tall = iset.npt > n + 1
            xk = iset.base_point()
            radius = np.max(iset.distances_from(xk))
            t = int(rng.integers(iset.npt))
            if op in ("put", "far", "near", "tiny", "append"):
                if op == "append":
                    if iset.npt == max_npt:
                        continue
                    t = iset.npt
                if op == "tiny":  # |L_t(y)| below the update tolerance
                    y = point_with_lagrange_value(iset, t, 1e-2 * INVERSE_DENOM_TOL)
                else:
                    if op == "near":  # shrink the radius: replace the furthest point
                        t = iset.furthest_index()
                    scale = {"put": (0.2, 1.0), "append": (0.2, 1.0), "far": (2.0, 5.0),
                             "near": (0.01, 0.1)}[op]
                    y = xk + radius * rng.uniform(*scale) * random_unit(rng, n)
                points = iset.points.copy()
                if t == iset.npt:
                    points = np.vstack([points, y])
                else:
                    points[t] = y
                W, alpha = scaled_matrix(points, iset.base_index)
                if not alpha > 1e-4 or np.linalg.cond(W) > 1e8:
                    continue  # keep the sets nonsingular and wider than rounding
                iset.put(t, y, rng.standard_normal(3))
                since += 1
            elif op == "rebase":
                iset.rebase()
            else:  # a direct base move, which the cache never hears about
                iset.base_index = t
            reference, cond = scratch_fit(iset)
            got = cached_fit(iset)
            fresh = sum(iset.refactorizations.values()) - sum(counts.values())
            if op == "append":
                assert fresh == 1
                assert iset.refactorizations["first"] == counts["first"] + 1
            elif tall:  # a put updates a tall set, with no cap; only a put may refactorize it
                assert iset.refactorizations["updates"] == counts["updates"]
                assert fresh <= (op not in ("rebase", "base"))
            elif op == "tiny":
                assert fresh == 1
                if since <= n + 1:
                    assert iset.refactorizations["denominator"] == counts["denominator"] + 1
            if since > n + 1 and not tall:
                assert fresh == 1
            if fresh:
                since = 0
            if cond <= COND_CHECKED:
                for a, b in zip(got, reference):
                    assert np.linalg.norm(a - b) <= CACHE_RTOL * max(np.linalg.norm(b), 1.0)

    def test_refactorizes_after_n_plus_one_updates(self):
        n = 4
        rng = np.random.default_rng(20)
        iset = square_set(n, rng)
        for k in range(n + 2):
            cached_fit(iset)
            y = iset.base_point() + rng.uniform(0.5, 1.0) * random_unit(rng, n)
            iset.put(1 + k % n, y, rng.standard_normal(3))
        assert iset.refactorizations == {"first": 1, "updates": 0, "denominator": 0, "probe": 0}
        cached_fit(iset)
        assert iset.refactorizations == {"first": 1, "updates": 1, "denominator": 0, "probe": 0}

    def test_small_denominator_refactorizes(self):
        rng = np.random.default_rng(21)
        iset = square_set(3, rng)
        cached_fit(iset)
        y = point_with_lagrange_value(iset, 2, 0.5 * INVERSE_DENOM_TOL)
        iset.put(2, y, rng.standard_normal(3))
        got = cached_fit(iset)
        assert iset.refactorizations["denominator"] == 1
        reference, _ = scratch_fit(iset)
        for a, b in zip(got, reference):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9 * np.abs(b).max())

    def test_probe_catches_a_stale_inverse(self):
        rng = np.random.default_rng(22)
        iset = square_set(3, rng)
        cached_fit(iset)
        iset.put(1, iset.points[1] + 0.3 * random_unit(rng, 3), rng.standard_normal(3))
        cached_fit(iset)
        iset.points[2] += 0.4 * random_unit(rng, 3)  # a write that bypasses put
        got = cached_fit(iset)
        assert iset.refactorizations["probe"] == 1
        reference, _ = scratch_fit(iset)
        for a, b in zip(got, reference):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_append_drops_the_inverse(self):
        rng = np.random.default_rng(23)
        pts = np.vstack([np.zeros(3), random_orthonormal(3, 2, rng)])
        iset = make_set(pts, rng.standard_normal((3, 2)))
        iset.put(3, np.array([0.0, 0.0, 0.0]) + random_unit(rng, 3), rng.standard_normal(2))
        cached_fit(iset)
        iset.put(4, random_unit(rng, 3), rng.standard_normal(2))
        cached_fit(iset)  # tall: a fresh factorization of the grown set
        assert iset.refactorizations == {"first": 2, "updates": 0, "denominator": 0, "probe": 0}

    def test_tall_fit_and_basis_share_one_factorization(self):
        rng = np.random.default_rng(25)
        iset = square_set(3, rng)
        for t in range(4, 9):
            iset.put(t, rng.uniform(0.2, 1.0) * random_unit(rng, 3), rng.standard_normal(3))
        iset.rebase()
        got = cached_fit(iset)
        basis = lagrange_basis(iset)
        iset.base_index = (iset.base_index + 1) % iset.npt  # mapped, not re-solved
        moved = cached_fit(iset)
        assert iset.refactorizations == {"first": 1, "updates": 0, "denominator": 0, "probe": 0}
        np.testing.assert_array_equal(basis.c, got[2])
        np.testing.assert_array_equal(basis.g, got[3])
        for a, b in zip(moved, scratch_fit(iset)[0]):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)
        iset.put(2, iset.points[2] + 0.1 * random_unit(rng, 3), rng.standard_normal(3))
        updated = cached_fit(iset)  # a rank-two update, not a fresh factorization
        assert iset.refactorizations == {"first": 1, "updates": 0, "denominator": 0, "probe": 0}
        for a, b in zip(updated, scratch_fit(iset)[0]):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_square_build_linear_model_reads_the_cached_inverse(self):
        rng = np.random.default_rng(24)
        iset = square_set(3, rng)
        lm = build_linear_model(iset)
        assert iset.refactorizations == {"first": 1, "updates": 0, "denominator": 0, "probe": 0}
        reference, _ = scratch_fit(iset)
        np.testing.assert_allclose(lm.r, reference[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(lm.J, reference[1], rtol=1e-12, atol=1e-12)
        cached_fit(iset)
        assert iset.refactorizations["first"] == 1


def tall_set(n, rng):
    """A square set plus random points up to 5(n+1) + 1 in all, rebased."""
    iset = square_set(n, rng)
    for t in range(iset.npt, 5 * (n + 1) + 1):
        iset.put(t, rng.uniform(0.2, 1.0) * random_unit(rng, n), rng.standard_normal(3))
    iset.rebase()
    return iset


def assert_matches_scratch(iset, rtol):
    reference, _ = scratch_fit(iset)
    for a, b in zip(cached_fit(iset), reference):
        assert np.linalg.norm(a - b) <= rtol * max(np.linalg.norm(b), 1.0)


class TestTallInverseUpdate:
    def test_small_sigma_refactorizes(self):
        # Slot 5 is the only point off the plane x_3 = 0, so its leverage h is
        # 1 and sigma = L_5(y)^2: below INVERSE_DENOM_TOL^2 for a y near the plane.
        rng = np.random.default_rng(31)
        pts = np.vstack([np.zeros(3), np.eye(3)[:2], -np.eye(3)[:2], [[0.2, 0.3, 0.8]],
                         np.hstack([rng.uniform(-1, 1, (6, 2)), np.zeros((6, 1))])])
        iset = make_set(pts, rng.standard_normal((pts.shape[0], 3)))
        cached_fit(iset)
        y = point_with_lagrange_value(iset, 5, 0.5 * INVERSE_DENOM_TOL)
        iset.put(5, y, rng.standard_normal(3))
        assert_matches_scratch(iset, 1e-9)
        assert iset.refactorizations == {"first": 1, "updates": 0, "denominator": 1, "probe": 0}

    def test_probe_catches_a_write_that_bypasses_put(self):
        rng = np.random.default_rng(32)
        iset = tall_set(3, rng)
        cached_fit(iset)
        iset.put(3, iset.points[3] + 0.3 * random_unit(rng, 3), rng.standard_normal(3))
        cached_fit(iset)
        iset.points[7] += 0.4 * random_unit(rng, 3)
        assert_matches_scratch(iset, 1e-9)
        assert iset.refactorizations == {"first": 1, "updates": 0, "denominator": 0, "probe": 1}

    def test_probe_catches_a_left_inverse_that_is_not_the_pseudo_inverse(self):
        # Z + F (I - W Z) still satisfies Z W = I; only the symmetry of W Z shows it.
        rng = np.random.default_rng(33)
        iset = tall_set(4, rng)
        cached_fit(iset)
        iset.put(2, iset.points[2] + 0.2 * random_unit(rng, 4), rng.standard_normal(3))
        cached_fit(iset)
        base, alpha = iset._frame
        W = np.hstack([np.ones((iset.npt, 1)), (iset.points - base) / alpha])
        F = 1e-6 * rng.standard_normal(iset._inv.shape)
        iset._inv += F @ (np.eye(iset.npt) - W @ iset._inv)
        np.testing.assert_allclose(iset._inv @ W, np.eye(5), atol=1e-12)
        assert_matches_scratch(iset, 1e-9)
        assert iset.refactorizations["probe"] == 1

    @pytest.mark.parametrize("n", [2, 6, 12])
    def test_chained_replacements_match_lstsq(self, n):
        rng = np.random.default_rng(34 + n)
        iset = tall_set(n, rng)
        assert iset.npt - 1 == 5 * (n + 1)
        cached_fit(iset)
        for _ in range(300):
            t = int(rng.integers(iset.npt))
            y = iset.base_point() + rng.uniform(0.2, 1.0) * random_unit(rng, n)
            iset.put(t, y, rng.standard_normal(3))
            iset.rebase()
            cached_fit(iset)
        assert_matches_scratch(iset, CACHE_RTOL)
        assert iset.refactorizations["updates"] == iset.refactorizations["denominator"] == 0
        assert iset.refactorizations["first"] + iset.refactorizations["probe"] < 30


def fresh_growing_fit(iset):
    """fit_model_and_basis of a new set with the same points, values and base."""
    return fit_model_and_basis(InterpolationSet(iset.points, iset.values,
                                                base_index=iset.base_index))[0]


def assert_kept_factors_match_a_fresh_fit(iset):
    """The kept factors' fit against a from-scratch fit of the same set (p < n).

    Q_p, C and gram are basis-dependent, so C Q_p^T and Q_p gram Q_p^T are
    compared; sigma_p and, with the full complement, H are basis-free.
    """
    lm = fit_model_and_basis(iset)[0]
    ref = fresh_growing_fit(iset)
    n, p = iset.n, iset.npt - 1
    Qp, Rp = lm.Q[:, :p], ref.Q[:, :p]
    np.testing.assert_allclose(lm.Q.T @ lm.Q, np.eye(n), rtol=0, atol=1e-12)
    D = np.delete(iset.points, iset.base_index, axis=0) - iset.base_point()
    assert np.linalg.norm(D - (D @ Qp) @ Qp.T) <= 1e-10 * np.linalg.norm(D)
    assert_close_rel(lm.C @ Qp.T, ref.C @ Rp.T, 1e-10)
    assert_close_rel(lm.gram, lm.C.T @ lm.C, 1e-10)
    assert_close_rel(Qp @ lm.gram @ Qp.T, Rp @ ref.gram @ Rp.T, 1e-10)
    assert lm.level == pytest.approx(ref.level, rel=1e-10)
    assert lm.y.size == ref.y.size
    if lm.y.size == n - p:
        assert_close_rel(lm.H, ref.H, 1e-10)
    return lm


class TestGrowingFactorUpdate:
    """A growing set keeps its two QRs across appends and base moves."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 12), m_frac=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1),
           ops=st.lists(st.sampled_from(["append", "base", "replace", "fit"]), max_size=30))
    def test_kept_factors_match_a_fresh_fit(self, n, m_frac, seed, ops):
        rng = np.random.default_rng(seed)
        m = max(int(m_frac * n), 1)
        scale = 10.0 ** rng.uniform(-3, 1)
        center = rng.standard_normal(n)

        def point():
            return center + scale * rng.standard_normal(n)

        iset = make_set([point(), point()], rng.standard_normal((2, m)))
        fit_model_and_basis(iset)
        replaced = 0
        for op in ops:
            if op == "append" and iset.npt < n:
                iset.put(iset.npt, point(), rng.standard_normal(m))
            elif op == "base":
                iset.set_base(int(rng.integers(iset.npt)))
            elif op == "replace":
                t = int(rng.integers(iset.npt))
                iset.put(t, point(), rng.standard_normal(m))
                replaced += 1
            elif op == "fit":
                assert_kept_factors_match_a_fresh_fit(iset)
        assert_kept_factors_match_a_fresh_fit(iset)
        counts = iset.growing_refactorizations
        assert counts["probe"] == counts["rank"] == 0
        assert counts["first"] == 1 and counts["replaced"] <= replaced

    def test_n100_p30(self):
        # scalable_n100's size: appends from p = 1 to 30 with a base move
        # every fifth append and one replaced point, m = 120.
        rng = np.random.default_rng(41)
        n, m = 100, 120
        iset = make_set(rng.standard_normal((2, n)), rng.standard_normal((2, m)))
        fit_model_and_basis(iset)
        while iset.npt < 31:
            iset.put(iset.npt, iset.base_point() + 0.1 * random_unit(rng, n),
                     rng.standard_normal(m))
            if iset.npt % 5 == 0:
                iset.set_base(int(rng.integers(iset.npt)))
            if iset.npt == 20:
                iset.put(7, iset.base_point() + 0.1 * random_unit(rng, n), rng.standard_normal(m))
            fit_model_and_basis(iset)
        lm = assert_kept_factors_match_a_fresh_fit(iset)
        assert lm.y.size == n - 30
        assert iset.growing_refactorizations == {"first": 1, "replaced": 1, "rank": 0,
                                                 "probe": 0}

    def test_a_base_move_changes_only_r_and_y(self):
        rng = np.random.default_rng(42)
        iset = make_set(rng.standard_normal((4, 6)), rng.standard_normal((4, 8)))
        before = fit_model_and_basis(iset)[0]
        iset.set_base((iset.base_index + 1) % 4)
        after = fit_model_and_basis(iset)[0]
        assert after.Q is before.Q and after.C is before.C and after.gram is before.gram
        assert after.level == before.level
        np.testing.assert_array_equal(after.r, iset.base_value())
        np.testing.assert_allclose(after.y, after.U.T @ after.r, rtol=1e-14)
        assert iset.growing_refactorizations["first"] == 1

    def test_probe_catches_a_write_that_bypasses_put(self):
        rng = np.random.default_rng(43)
        iset = make_set(rng.standard_normal((3, 6)), rng.standard_normal((3, 7)))
        fit_model_and_basis(iset)
        iset.put(3, rng.standard_normal(6), rng.standard_normal(7))
        fit_model_and_basis(iset)
        iset.points[1] += 0.4 * random_unit(rng, 6)
        assert_kept_factors_match_a_fresh_fit(iset)
        assert iset.growing_refactorizations == {"first": 1, "replaced": 0, "rank": 0,
                                                 "probe": 1}

    def test_a_displacement_in_the_span_fails_the_rank_test(self):
        rng = np.random.default_rng(44)
        iset = make_set(rng.standard_normal((3, 5)), rng.standard_normal((3, 4)))
        fit_model_and_basis(iset)
        xk = iset.base_point()
        others = [t for t in range(3) if t != iset.base_index]
        y = xk + 0.5 * (iset.points[others[0]] - xk) - 0.25 * (iset.points[others[1]] - xk)
        iset.put(3, y, rng.standard_normal(4))
        with pytest.raises(DegenerateSetError):
            fit_model_and_basis(iset)
        assert iset.growing_refactorizations["rank"] == 1
        iset.put(3, rng.standard_normal(5), rng.standard_normal(4))
        assert_kept_factors_match_a_fresh_fit(iset)
        assert iset.growing_refactorizations == {"first": 1, "replaced": 1, "rank": 1,
                                                 "probe": 0}

    def test_the_set_turns_full_after_the_last_append(self):
        rng = np.random.default_rng(45)
        iset = make_set(rng.standard_normal((3, 3)), rng.standard_normal((3, 4)))
        fit_model_and_basis(iset)
        iset.put(3, rng.standard_normal(3), rng.standard_normal(4))
        lm, basis = fit_model_and_basis(iset)
        assert basis is not None and isinstance(lm, LinearResidualModel)
        assert iset.refactorizations["first"] == 1
        assert iset.growing_refactorizations["first"] == 1

    def test_counts_share_keys_with_the_full_set_causes(self):
        counts = InterpolationSet(np.zeros((1, 2))).factorization_counts()
        assert counts == {"first": 0, "updates": 0, "denominator": 0, "probe": 0,
                          "growing_first": 0, "growing_replaced": 0, "growing_rank": 0,
                          "growing_probe": 0}
