from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dfls import trustregion as tr
from dfls.model import LinearResidualModel, _bounds_arrays, _spectral_norm
from dfls.trustregion import contract_stats, solve_trust_region

from quadratic import Quadratic, formed_hessian


@pytest.fixture
def cg_only(monkeypatch):
    """Every unbounded step runs the CG, as a Quadratic (no r or J) needs."""
    monkeypatch.setattr(tr, "EXACT_STEP_MAX_N", 0)


def quad(g, H, c=0.0):
    return Quadratic(c=c, g=np.asarray(g, dtype=float), H=np.asarray(H, dtype=float))


def model_value(model, s):
    """m(s) = c + g.s + 0.5 s.H.s."""
    s = np.asarray(s, dtype=float)
    return model.c + model.g @ s + 0.5 * (s @ model.H @ s)


def cauchy_point(model, delta, lower=None, upper=None):
    """Exact line search along -g truncated by the ball and the box: the
    Cauchy step solve_trust_region starts from, before its clean-up."""
    g = model.g
    lo, up = _bounds_arrays((lower, upper), g.size)
    gnorm = np.sqrt(float(g @ g))
    if gnorm == 0.0:
        return np.zeros(g.size)
    return tr._cauchy_step(tr._Descent(model, delta, (lo, up), gnorm))


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
    return Quadratic(c=float(r @ r), g=2.0 * J.T @ r, H=2.0 * J.T @ J)


@pytest.mark.usefixtures("cg_only")
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
            vals = np.array([model_value(model, p) for p in pts])
            best = vals.min()
            spread = model_value(model, np.zeros(2)) - best
            assert model_value(model, s) <= best + 0.05 * max(spread, 1e-12)

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
            assert model_value(model, s) <= model_value(model, np.zeros(n)) + 1e-12

    def test_decrease_contract_is_counted(self):
        before = contract_stats()
        model = quad([-1.0, 2.0], 2.0 * np.eye(2))
        solve_trust_region(model, 1.0)
        after = contract_stats()
        assert after["checks"] == before["checks"] + 1
        assert after["violations"] == before["violations"]

    def test_nan_or_nonpositive_delta_raises(self):
        model = quad([1.0, 0.0], np.eye(2))
        for delta in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="need delta > 0"):
                solve_trust_region(model, delta)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12), extra_rows=st.integers(-3, 4), seed=st.integers(0, 2**32 - 1),
           deficiency=st.integers(0, 3), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           log_delta=st.floats(-4.0, 2.0))
    def test_no_bounds_is_the_far_box_bitwise(self, n, extra_rows, seed, deficiency, scale,
                                              log_delta):
        # Without bounds no box is built; a box at +-1e300 never binds, so the
        # two calls must agree bit for bit.
        rng = np.random.default_rng(seed)
        m = max(1, n + extra_rows)
        model = gauss_newton_model(rng, n, m, scale, max(1, min(m, n) - deficiency))
        delta = 10.0 ** log_delta
        far = np.full(n, 1e300)
        got = solve_trust_region(model, delta)
        assert got.tobytes() == solve_trust_region(model, delta, -far, far).tobytes()

    def test_huge_ill_conditioned_models_survive(self):
        # Near-singular interpolation sets produce models with mixed huge
        # magnitudes; the step must still verify the decrease contract.
        rng = np.random.default_rng(2)
        for _ in range(50):
            J = rng.standard_normal((3, 3)) * np.array([1e12, 1e6, 1.0])
            r = rng.standard_normal(3) * 1e6
            model = Quadratic(c=float(r @ r), g=2.0 * J.T @ r, H=2.0 * J.T @ J)
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
    lo, up = _bounds_arrays((lower, upper), n)
    lo, up = np.minimum(lo, 0.0), np.maximum(up, 0.0)
    gnorm = np.sqrt(float(g @ g))
    if gnorm == 0.0:
        return np.zeros(n), True
    hnorm = _spectral_norm(H)
    box = bool(np.any(lo > -delta) or np.any(up < delta))
    d = -g / gnorm
    t_max = tr._max_feasible_step(np.zeros(n), d, delta, (lo, up) if box else None)
    t_reach = t_max if box else delta
    bound = 0.5 * gnorm * min(t_reach, gnorm / max(hnorm, 1.0))
    curv = float(d @ (H @ d))
    if curv > 1e-8 * hnorm and curv > 0.0:
        t_opt = gnorm / curv
    elif hnorm > 0.0:
        t_opt = gnorm / hnorm
    else:
        t_opt = np.inf
    s_c = tr._finalize(min(t_opt, t_max) * d, (lo, up), delta)
    s = tr._truncated_cg(model, s_c, delta, 2 * n, (lo, up) if box else None)
    s = tr._finalize(s, (lo, up), delta)

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


@pytest.mark.usefixtures("cg_only")
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
            hnorm = tr._HessianNorm(model, -model.g / np.linalg.norm(model.g))
            assert hnorm.lower <= _spectral_norm(model.H) <= hnorm.upper
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
                  Quadratic(c=float(r @ r), g=2.0 * J.T @ r, H=2.0 * J.T @ J)]
        before = contract_stats()["exact_norms"]
        for model in models:
            for delta in (1e-3, 1.0, 1e3):
                s = solve_trust_region(model, delta)
                assert s.tobytes() == exact_norm_step(model, delta)[0].tobytes()
        assert contract_stats()["exact_norms"] == before


def cg_ball_only(model, s0, delta, max_iter):
    """Plain Steihaug truncated CG inside the ball: the bitwise reference for
    _truncated_cg without bounds."""
    H = model.H
    g = model.g
    s = s0.copy()
    r = -(g + H @ s)
    gg = float(g @ g)
    rr = float(r @ r)
    if rr <= 1e-28 * max(1.0, gg):
        return s
    d = r.copy()
    ss = float(s @ s)
    for _ in range(max_iter):
        Hd = H @ d
        dHd = float(d @ Hd)
        sd = float(s @ d)
        dd = float(d @ d)
        disc = sd * sd + dd * (delta * delta - ss)
        t_ball = (-sd + np.sqrt(max(disc, 0.0))) / dd if disc > 0.0 else 0.0
        if dHd <= 1e-15 * dd:
            return s + t_ball * d
        t = rr / dHd
        if t >= t_ball:
            return s + t_ball * d
        s += t * d
        ss += t * (2.0 * sd + t * dd)
        r -= t * Hd
        rr_new = float(r @ r)
        if rr_new <= 1e-28 * max(1.0, gg):
            break
        d = r + (rr_new / rr) * d
        rr = rr_new
    return s


class TestTruncatedCG:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 12), extra_rows=st.integers(-3, 4), seed=st.integers(0, 2**32 - 1),
           deficiency=st.integers(0, 3), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           log_delta=st.floats(-4.0, 2.0), start=st.sampled_from(["cauchy", "origin", "inside"]),
           max_iter=st.integers(0, 30))
    def test_unbounded_is_the_ball_only_loop_bitwise(self, n, extra_rows, seed, deficiency,
                                                     scale, log_delta, start, max_iter):
        rng = np.random.default_rng(seed)
        m = max(1, n + extra_rows)
        model = gauss_newton_model(rng, n, m, scale, max(1, min(m, n) - deficiency))
        delta = 10.0 ** log_delta
        if start == "cauchy":
            s0 = cauchy_point(model, delta)
        elif start == "origin":
            s0 = np.zeros(n)
        else:
            s0 = rng.uniform(0.0, 1.0) * delta * rng.standard_normal(n) / np.sqrt(n)
        got = tr._truncated_cg(model, s0, delta, max_iter)
        assert got.tobytes() == cg_ball_only(model, s0, delta, max_iter).tobytes()

    def test_a_face_reached_mid_cg_is_fixed_and_cg_restarts(self):
        # The unconstrained minimizer [2, 0.1] lies past the face x[0] = 1.
        # The Cauchy point is interior, the first CG step from it reaches the
        # face, and CG restarts on x[1] alone, whose constrained minimizer
        # solves H[1, 1] x[1] = -(g[1] + H[1, 0]).
        H = np.array([[2.0, 1.0], [1.0, 10.0]])
        g = -H @ np.array([2.0, 0.1])
        model = quad(g, H)
        lower, upper = np.full(2, -np.inf), np.array([1.0, np.inf])
        assert cauchy_point(model, 10.0, lower, upper)[0] < 1.0
        s = solve_trust_region(model, 10.0, lower, upper)
        assert s[0] == 1.0
        np.testing.assert_allclose(s[1], -(g[1] + H[1, 0]) / H[1, 1], rtol=1e-14)


def least_squares_in_ball(J, r, delta):
    """min ||r + J s||^2 over ||s|| <= delta, from scratch: the minimum-norm
    least-squares solution when it lies in the ball, otherwise bisection on mu
    with s(mu) = lstsq([J; sqrt(mu) I], [-r; 0])."""
    n = J.shape[1]

    def s_of(mu):
        if mu == 0.0:
            return np.linalg.lstsq(J, -r, rcond=None)[0]
        A = np.vstack([J, np.sqrt(mu) * np.eye(n)])
        return np.linalg.lstsq(A, np.concatenate([-r, np.zeros(n)]), rcond=None)[0]

    s = s_of(0.0)
    if np.linalg.norm(s) > delta:
        lo, hi = 0.0, np.linalg.norm(J.T @ r) / delta  # ||s(mu)|| <= ||J^T r|| / mu
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.linalg.norm(s_of(mid)) > delta:
                lo = mid
            else:
                hi = mid
        s = s_of(hi)
    res = r + J @ s
    return float(res @ res)


class TestExactStep:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 12), extra_rows=st.integers(-3, 4), seed=st.integers(0, 2**32 - 1),
           deficiency=st.integers(0, 3), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           ill_conditioned=st.booleans(), log_delta=st.floats(-4.0, 2.0))
    def test_matches_a_from_scratch_reference(self, n, extra_rows, seed, deficiency, scale,
                                              ill_conditioned, log_delta):
        rng = np.random.default_rng(seed)
        m = max(1, n + extra_rows)
        rank = max(1, min(m, n) - deficiency)
        if ill_conditioned:
            # cond(J) = 1e8 on its rank.
            U = np.linalg.qr(rng.standard_normal((m, rank)))[0]
            V = np.linalg.qr(rng.standard_normal((n, rank)))[0]
            J = scale * (U * np.logspace(0.0, -8.0, rank)) @ V.T
        else:
            J = scale * rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        r = scale * rng.standard_normal(m)
        delta = 10.0 ** log_delta
        model = LinearResidualModel(r=r, J=J)
        assume(np.any(model.g))
        assert n <= tr.EXACT_STEP_MAX_N
        top = np.linalg.eigvalsh(formed_hessian(model))[-1]
        assert abs(tr._svd_step(J, r, delta)[1] - top) <= 1e-12 * top

        before = contract_stats()
        s = solve_trust_region(model, delta)  # raises if the audit fails
        after = contract_stats()
        assert after["checks"] == before["checks"] + 1
        assert after["violations"] == before["violations"]
        # ||H|| came from the SVD: no eigendecomposition ran.
        assert after["exact_norms"] == before["exact_norms"]

        assert np.linalg.norm(s) <= delta * (1 + 1e-12)
        # At most 1% of the best decrease is lost to the secular tolerance.
        f0 = float(r @ r)
        best = least_squares_in_ball(J, r, delta)
        res = r + J @ s
        assert float(res @ res) - best <= 0.01 * (f0 - best) + 1e-10 * f0
        # A box that never binds takes the same path, bit for bit.
        far = np.full(n, 1e300)
        assert s.tobytes() == solve_trust_region(model, delta, -far, far).tobytes()

    def test_binding_boxes_and_large_n_keep_the_cg(self, monkeypatch):
        # The reference is the same model's step with EXACT_STEP_MAX_N = 0,
        # which can only take the CG.
        def no_svd_step(*args):
            raise AssertionError("the SVD step ran")

        cg_calls = []
        cg = tr._truncated_cg

        def counted_cg(*args):
            cg_calls.append(args)
            return cg(*args)

        monkeypatch.setattr(tr, "_svd_step", no_svd_step)
        monkeypatch.setattr(tr, "_truncated_cg", counted_cg)
        rng = np.random.default_rng(5)
        for n, bounded in ((3, True), (tr.EXACT_STEP_MAX_N + 1, False)):
            J = rng.standard_normal((n + 2, n))
            r = rng.standard_normal(n + 2)
            model = LinearResidualModel(r=r, J=J)
            box = (-0.01 * np.ones(n), 0.01 * np.ones(n)) if bounded else ()
            with monkeypatch.context() as cg_only:
                cg_only.setattr(tr, "EXACT_STEP_MAX_N", 0)
                reference = solve_trust_region(model, 1.0, *box)
            del cg_calls[:]
            s = solve_trust_region(model, 1.0, *box)
            assert len(cg_calls) == 1 and cg_calls[0][0] is model
            assert s.tobytes() == reference.tobytes()

    def test_takes_the_watson_step_the_cg_stalls_on(self, monkeypatch):
        # cond(J) = 1e7 and a ball far larger than the Gauss-Newton step: the
        # exact step is that step, where 2n capped CG iterations on H, with
        # cond(H) = 1e14, stay well short of it.
        rng = np.random.default_rng(6)
        n = 12
        U = np.linalg.qr(rng.standard_normal((31, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        J = (U * np.logspace(0.0, -7.0, n)) @ V.T
        r = U @ rng.standard_normal(n) + 1e-3 * rng.standard_normal(31)
        model = LinearResidualModel(r=r, J=J)
        newton = np.linalg.lstsq(J, -r, rcond=None)[0]
        s = solve_trust_region(model, 1e10)
        np.testing.assert_allclose(s, newton, rtol=1e-6)
        monkeypatch.setattr(tr, "EXACT_STEP_MAX_N", 0)
        cg = solve_trust_region(model, 1e10)
        assert model.decrease(s) > model.decrease(cg)
        assert np.linalg.norm(cg - newton) > 1e-3 * np.linalg.norm(newton)
