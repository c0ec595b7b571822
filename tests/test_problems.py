import numpy as np
import pytest

from dfls.problems import (
    DENSE_SET,
    SCALABLE_SET,
    NoiseModel,
    NoisyProblem,
    catalog,
    expected_noisy_objective,
    get_problem,
    noise_std_at,
)

# Objective values at the standard starting points, frozen once.
F0_RECORDED = {
    "linear_full_rank": 71.99999999999997,
    "linear_rank1": 11654195.0,
    "rosenbrock": 24.199999999999996,
    "helical_valley": 2500.0,
    "powell_singular": 215.00000000000003,
    "freudenstein_roth": 400.5,
    "bard": 41.681695861678,
    "kowalik_osborne": 0.00531317227210854,
    "meyer": 1693607809.4361453,
    "watson": 16.430831175992267,
    "box_3d": 1031.1538106093983,
    "jennrich_sampson": 4171.306161960493,
    "brown_dennis": 7926693.336997433,
    "chebyquad": 0.03861769828593027,
    "brown_almost_linear": 273.2480478286743,
    "osborne1": 0.8790262935446401,
    "osborne2": 2.0934195142120644,
    "gaussian": 3.888106991166684e-06,
    "broyden_tridiagonal": 21.0,
    "broyden_banded": 360.0,
    "mancino": 3991093184.5015087,
    "rosenbrock_x10": 1795769.0,
    "helical_valley_x10": 10600.0,
    "powell_singular_x10": 1615400.0000000002,
    "freudenstein_roth_x10": 154575360.0,
    "bard_x10": 1306.2335498157597,
    "box_3d_x10": 120398.85282466326,
    "brown_dennis_x10": 308106428512.94086,
    "brown_almost_linear_x10": 95367412126800.0,
    "broyden_tridiagonal_x10": 408450.0,
    "watson_9": 26.90416602241782,
    "watson_12": 73.678205249059,
    "bdqrtic_8": 904.0,
    "bdqrtic_12": 1808.0,
    "cube_5": 56.5,
    "cube_8": 98.6875,
    "rosenbrock_chained_25": 6098.4,
    "broyden_tridiagonal_25": 36.0,
    "broyden_banded_25": 900.0,
    "linear_full_rank_25": 125.0,
    "vardim_25": 2385492130.84,
    "penalty1_25": 30522862.6115,
    "integreq_25": 0.14792088912130152,
    "brown_almost_linear_25": 4056.9999999403954,
    "rosenbrock_chained_50": 12221.0,
    "broyden_tridiagonal_50": 61.0,
    "broyden_banded_50": 1800.0,
    "linear_full_rank_50": 250.0,
    "vardim_50": 543202534034.4825,
    "penalty1_50": 1842534162.96675,
    "integreq_50": 0.28952603055054427,
    "brown_almost_linear_50": 31863.25,
    "rosenbrock_chained_100": 24926.0,
    "broyden_tridiagonal_100": 111.0,
    "broyden_banded_100": 3600.0,
    "linear_full_rank_100": 500.0,
    "vardim_100": 131058369689326.23,
    "penalty1_100": 114480553328.346,
    "integreq_100": 0.5730503063791658,
    "brown_almost_linear_100": 252475.75,
}


class TestCatalog:
    def test_core_problems_present(self):
        core = ["rosenbrock", "helical_valley", "powell_singular", "freudenstein_roth",
                "bard", "kowalik_osborne", "meyer", "watson", "box_3d",
                "jennrich_sampson", "brown_dennis", "chebyquad", "brown_almost_linear",
                "osborne1", "osborne2", "broyden_tridiagonal", "broyden_banded",
                "linear_full_rank", "linear_rank1", "gaussian"]
        names = {p.name for p in catalog()}
        assert set(core) <= names
        assert len(DENSE_SET) >= 20

    def test_scalable_problems_at_three_sizes(self):
        scalable = catalog(scalable=True)
        sizes = sorted({p.n for p in scalable})
        assert sizes == [25, 50, 100]
        families = {p.name.rsplit("_", 1)[0] for p in scalable}
        assert len(families) >= 3

    def test_osborne1_dimensions(self):
        p = get_problem("osborne1")
        assert (p.n, p.m) == (5, 33)

    def test_rosenbrock_is_zero_residual(self):
        p = get_problem("rosenbrock")
        assert p.f_star == 0.0 and p.zero_residual

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="nosuch"):
            get_problem("nosuch")

    def test_recorded_start_values(self):
        for p in catalog():
            f0 = p.objective(p.x0)
            assert f0 == pytest.approx(F0_RECORDED[p.name], rel=1e-8)
            assert np.isfinite(f0)
            assert p.f_star <= f0
            assert p.m >= 1
            assert p.residual(p.x0).shape == (p.m,)

    def test_f_star_reproduced_by_derivative_based_oracle(self):
        # Re-derive every reference optimum with independent high-accuracy
        # solvers started from x0 and compare the best to 6 significant digits.
        # Two derivative-based methods run from x0, because either one alone
        # can stop at a minimum at infinity (box_3d_x10 under "lm" drives x[1]
        # to about 6e5 and stops at f = 0.0756), and x0 is kept as the only
        # start, because perturbed starts leave the basin that defines f*
        # (bard_x10 has f* = 17.43 from x0 and f = 8.2e-3 elsewhere).
        from scipy.optimize import least_squares

        for p in catalog():
            if p.n > 30:
                continue  # oracle agreement is checked on the small problems
            methods = ("lm", "trf") if p.m >= p.n else ("trf",)
            f_oracle = np.inf
            for method in methods:
                jac = "2-point" if method == "lm" else "3-point"
                res = least_squares(p.residual, p.x0, jac=jac, method=method,
                                    xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=20000)
                res = least_squares(p.residual, res.x, jac=jac, method=method,
                                    xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=20000)
                f_oracle = min(f_oracle, 2.0 * res.cost)
            if p.f_star == 0.0:
                assert f_oracle < 1e-15, p.name
            else:
                assert f_oracle == pytest.approx(p.f_star, rel=1e-6), p.name


class TestEvaluate:
    def test_zero_sigma_is_exact(self):
        p = get_problem("rosenbrock")
        noisy = NoisyProblem(p, NoiseModel("mult_gaussian", 0.0), seed=0)
        np.testing.assert_array_equal(noisy(p.x0), p.residual(p.x0))

    def test_last_residual_is_the_clean_residual(self):
        p = get_problem("osborne1")
        noisy = NoisyProblem(p, NoiseModel("mult_gaussian", 1e-2), seed=3)
        for x in (p.x0, 1.1 * p.x0):
            assert not np.array_equal(noisy(x), p.residual(x))
            np.testing.assert_array_equal(noisy.last_residual, p.residual(x))
        noisy.sample_mean(0.9 * p.x0, 4)
        np.testing.assert_array_equal(noisy.last_residual, p.residual(0.9 * p.x0))

    def test_chi2_noise_never_shrinks_magnitudes(self):
        p = get_problem("osborne1")
        noisy = NoisyProblem(p, NoiseModel("add_chi2", 1e-1), seed=1)
        r = np.abs(p.residual(p.x0))
        for _ in range(50):
            rt = noisy(p.x0)
            assert np.all(rt >= r - 1e-15)

    def test_additive_noise_objective_mean(self):
        # E[f~] = f + m sigma^2, checked by Monte Carlo within 3 standard errors.
        p = get_problem("osborne1")
        sigma = 1e-2
        noisy = NoisyProblem(p, NoiseModel("add_gaussian", sigma), seed=2)
        n_samples = 10**6
        r = p.residual(p.x0)
        rng = noisy._rng
        eps = rng.normal(0.0, sigma, size=(n_samples, p.m))
        f_samples = np.einsum("ij,ij->i", r + eps, r + eps)
        expected = p.objective(p.x0) + p.m * sigma**2
        se = np.std(f_samples, ddof=1) / np.sqrt(n_samples)
        assert abs(f_samples.mean() - expected) <= 3 * se

    def test_noise_is_unbiased_per_component(self):
        p = get_problem("rosenbrock")
        r = p.residual(p.x0)
        rng = np.random.default_rng(3)
        n_samples = 10**6
        for kind in ("add_gaussian", "mult_gaussian"):
            eps = rng.normal(0.0, 1e-2, size=(n_samples, p.m))
            if kind == "add_gaussian":
                rt = r + eps
            else:
                rt = (1 + eps) * r
            se = np.std(rt, axis=0, ddof=1) / np.sqrt(n_samples)
            assert np.all(np.abs(rt.mean(axis=0) - r) <= 3 * se + 1e-12)

    def test_deterministic_sequences_per_seed(self):
        p = get_problem("bard")
        a = NoisyProblem(p, NoiseModel("mult_gaussian", 1e-2), seed=5)
        b = NoisyProblem(p, NoiseModel("mult_gaussian", 1e-2), seed=5)
        xs = [p.x0, p.x0 * 1.1, p.x0 * 0.9]
        seq_a = [a(x) for x in xs for _ in range(3)]
        seq_b = [b(x) for x in xs for _ in range(3)]
        for ra, rb in zip(seq_a, seq_b):
            assert np.array_equal(ra, rb)

    def test_distinct_runs_get_distinct_streams(self):
        p = get_problem("bard")
        a = NoisyProblem(p, NoiseModel("mult_gaussian", 1e-2), seed=5, run=0)
        b = NoisyProblem(p, NoiseModel("mult_gaussian", 1e-2), seed=5, run=1)
        assert not np.array_equal(a(p.x0), b(p.x0))

    def test_invalid_noise_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            NoiseModel("uniform", 0.1)


class TestExpectedNoisyObjective:
    def test_zero_sigma(self):
        p = get_problem("rosenbrock")
        noise = NoiseModel("none", 0.0)
        assert expected_noisy_objective(p, noise, p.x0) == p.objective(p.x0)

    def test_multiplicative_closed_form_matches_monte_carlo(self):
        p = get_problem("osborne1")
        sigma = 1e-2
        noise = NoiseModel("mult_gaussian", sigma)
        closed = expected_noisy_objective(p, noise, p.x0)
        assert closed == pytest.approx((1 + sigma**2) * p.objective(p.x0))
        rng = np.random.default_rng(4)
        r = p.residual(p.x0)
        eps = rng.normal(0.0, sigma, size=(10**6, p.m))
        rt = (1 + eps) * r
        f_samples = np.einsum("ij,ij->i", rt, rt)
        se = np.std(f_samples, ddof=1) / np.sqrt(10**6)
        assert abs(f_samples.mean() - closed) <= 3 * se

    def test_additive_closed_form(self):
        p = get_problem("osborne1")
        noise = NoiseModel("add_gaussian", 1e-2)
        expected = expected_noisy_objective(p, noise, p.x0)
        assert expected == pytest.approx(p.objective(p.x0) + 33 * 1e-4)

    def test_chi2_same_shift_as_additive(self):
        p = get_problem("bard")
        f = p.objective(p.x0)
        shift_chi2 = expected_noisy_objective(p, NoiseModel("add_chi2", 1e-2), f=f) - f
        shift_add = expected_noisy_objective(p, NoiseModel("add_gaussian", 1e-2), f=f) - f
        assert shift_chi2 == pytest.approx(shift_add)


class TestNoiseStd:
    def test_zero_sigma_gives_zero(self):
        p = get_problem("rosenbrock")
        assert noise_std_at(p, NoiseModel("none", 0.0), p.x0) == 0.0

    def test_chi_square_variance_at_zero_residual(self):
        # Additive noise at a zero-residual point with m = 1: the noisy
        # objective is eps^2, whose standard deviation is sqrt(2) sigma^2.
        from dfls.problems import LeastSquaresProblem

        prob = LeastSquaresProblem(name="pin", n=1, m=1,
                                   residual=lambda x: np.array([x[0]]),
                                   x0=np.array([1.0]), f_star=0.0)
        sigma = 1e-1
        for kind in ("add_gaussian", "add_chi2"):
            est = noise_std_at(prob, NoiseModel(kind, sigma), np.array([0.0]))
            assert est == pytest.approx(np.sqrt(2.0) * sigma**2, rel=1e-15)

    @pytest.mark.parametrize("kind", ["mult_gaussian", "add_gaussian", "add_chi2"])
    @pytest.mark.parametrize("name", ["bard", "osborne1"])
    def test_matches_monte_carlo(self, kind, name):
        # At x* with sigma = 0.3 the sigma^4 terms weigh 2-30% of the standard
        # deviation, while that of 200,000 draws is within 0.3% of the truth.
        p = get_problem(name)
        noise = NoiseModel(kind, 0.3)
        r = p.residual(p.x_star)
        eps = np.random.default_rng(3).normal(0.0, noise.sigma, size=(200_000, r.size))
        if kind == "mult_gaussian":
            rt = (1.0 + eps) * r
        elif kind == "add_gaussian":
            rt = r + eps
        else:
            rt = np.sqrt(r * r + eps * eps)
        mc = np.std(np.einsum("ij,ij->i", rt, rt), ddof=1)
        assert noise_std_at(p, noise, p.x_star) == pytest.approx(mc, rel=0.01)


def watson_loop(x):
    """The Watson residual as one loop over its rows, building every power afresh."""
    n = x.size
    out = np.zeros(31)
    for i in range(1, 30):
        t = i / 29.0
        s1 = float((np.arange(1, n) * x[1:]) @ t ** np.arange(n - 1))
        s2 = float(x @ t ** np.arange(n))
        out[i - 1] = s1 - s2 * s2 - 1.0
    out[29] = x[0]
    out[30] = x[1] - x[0] ** 2 - 1.0
    return out


@pytest.mark.parametrize("name", ["watson", "watson_9", "watson_12"])
def test_watson_matches_the_row_loop_bit_for_bit(name):
    # The cached powers keep each row's product, so the residual bits do not change.
    prob = get_problem(name)
    rng = np.random.default_rng(17)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(100):
            x = prob.x0 + scale * rng.standard_normal(prob.n)
            np.testing.assert_array_equal(prob.residual(x), watson_loop(x))
