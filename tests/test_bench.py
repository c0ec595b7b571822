import multiprocessing
import os

import numpy as np
import pytest

from dfls.bench import (
    WORKER_THREAD_VARS,
    DataProfile,
    RunRecord,
    data_profile,
    measure_noisy,
    measure_true,
    records_to_csv,
    run_suite,
    tau_crit,
    tau_p,
    _worker_pool,
)
from dfls.params import SolverParams
from dfls.problems import NoiseModel, get_problem


def _worker_threads(barrier):
    """The worker's pid and thread variables, once two workers hold a task each."""
    barrier.wait(timeout=60)
    return os.getpid(), {var: os.environ.get(var) for var in WORKER_THREAD_VARS}


def record(events, f0=10.0, f_star=0.0, n=2, m=3, kind="none", sigma=0.0, seed=0,
           name="synthetic"):
    ev = np.asarray(events, dtype=float)
    return RunRecord(problem=name, noise_kind=kind, sigma=sigma, seed=seed, n=n, m=m,
                     f0_true=f0, f_star=f_star, eval_indices=ev[:, 0].astype(int),
                     best_true=ev[:, 1], best_noisy=ev[:, 2],
                     n_evals=int(ev[-1, 0]), exit_flag="budget")


class TestMeasures:
    def test_first_evaluation_already_below_threshold(self):
        rec = record([(1, 0.01, 0.01), (5, 0.001, 0.001)])
        assert measure_true(rec, 0.5) == 1

    def test_never_reaching_threshold_gives_infinity(self):
        rec = record([(1, 10.0, 10.0), (50, 9.0, 9.0)])
        assert measure_true(rec, 1e-5) == np.inf

    def test_crossing_index_matches_linear_scan(self):
        rng = np.random.default_rng(0)
        f = 10.0 * np.exp(-0.3 * np.arange(40))
        best = np.minimum.accumulate(f)
        events = [(k + 1, best[k], best[k]) for k in range(40)
                  if k == 0 or best[k] < best[k - 1]]
        rec = record(events)
        tau = (f[16] / 10.0) * 1.0000001  # crosses exactly at index 17
        threshold = 0.0 + tau * 10.0
        scan = next(k + 1 for k in range(40) if f[k] <= threshold)
        assert scan == 17
        assert measure_true(rec, tau) == 17

    def test_noiseless_measures_collapse(self):
        rec = record([(1, 5.0, 5.0), (9, 0.5, 0.5), (20, 0.004, 0.004)])
        for tau in (0.5, 1e-2, 1e-4):
            assert measure_true(rec, tau) == measure_noisy(rec, tau)

    def test_noisy_threshold_uses_expected_values(self):
        # Additive noise shifts both ends of the threshold by m sigma^2.
        sigma, m, f0, f_star = 1e-1, 4, 10.0, 1.0
        shift = m * sigma**2
        tau = 0.25
        threshold = (f_star + shift) + tau * (f0 - f_star)
        rec = record([(1, f0, f0 + shift), (7, f0, threshold + 1e-9),
                      (8, f0, threshold - 1e-9)],
                     f0=f0, f_star=f_star, m=m, kind="add_gaussian", sigma=sigma)
        assert measure_noisy(rec, tau) == 8

    def test_lucky_noisy_dip_counts_earlier_than_true(self):
        rec = record([(1, 10.0, 10.0), (5, 9.0, 0.001), (30, 0.001, 0.0005)],
                     kind="mult_gaussian", sigma=1e-2)
        tau = 1e-3
        assert measure_noisy(rec, tau) == 5
        assert measure_true(rec, tau) == 30

    def test_harder_accuracy_never_solved_earlier(self):
        rng = np.random.default_rng(1)
        vals = np.minimum.accumulate(10.0 * rng.uniform(size=30))
        events = [(k + 1, vals[k], vals[k]) for k in range(30)]
        rec = record(events)
        taus = [1e-1, 1e-2, 1e-3, 1e-4]
        counts = [measure_true(rec, t) for t in taus]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestTauCrit:
    def test_noiseless_floor_is_zero(self):
        assert tau_crit(get_problem("osborne1"), NoiseModel("none", 0.0)) == 0.0

    def test_additive_noise_on_linear_full_rank(self):
        value = tau_crit(get_problem("linear_full_rank"), NoiseModel("add_gaussian", 1e-2))
        assert value == pytest.approx(1e-2)

    def test_multiplicative_noise_on_osborne1(self):
        value = tau_crit(get_problem("osborne1"), NoiseModel("mult_gaussian", 1e-2))
        assert value == pytest.approx(1e-6)

    def test_additive_noise_on_mancino(self):
        value = tau_crit(get_problem("mancino"), NoiseModel("add_gaussian", 1e-2))
        assert value == pytest.approx(1e-12)

    def test_is_a_power_of_ten(self):
        for name in ("bard", "watson", "chebyquad"):
            value = tau_crit(get_problem(name), NoiseModel("mult_gaussian", 1e-2))
            assert value == 10.0 ** round(np.log10(value))

    def test_degenerate_problem_rejected(self):
        from dfls.problems import LeastSquaresProblem
        flat = LeastSquaresProblem(name="flat", n=1, m=1,
                                   residual=lambda x: np.array([1.0]),
                                   x0=np.array([0.0]), f_star=1.0,
                                   x_star=np.array([0.0]))
        with pytest.raises(ValueError, match="degenerate problem"):
            tau_crit(flat, NoiseModel("add_gaussian", 1e-2))


class TestTauP:
    def test_desired_accuracy_wins_when_above_floor(self):
        assert tau_p(1e-5, 1e-7) == 1e-5

    def test_floor_wins_when_above_desired(self):
        assert tau_p(1e-5, 1e-2) == 1e-2

    def test_capped_at_one_tenth(self):
        assert tau_p(1e-5, 1.0) == 1e-1


class TestDataProfile:
    def test_everything_solved_at_first_evaluation(self):
        recs = [record([(1, 0.0, 0.0)], name=f"p{i}", n=3) for i in range(4)]
        prof = data_profile(recs, tau=1e-3, alphas=np.array([0.25, 1.0, 10.0]))
        np.testing.assert_allclose(prof.proportions, [1.0, 1.0, 1.0])

    def test_nothing_solved(self):
        recs = [record([(1, 10.0, 10.0)], name=f"p{i}") for i in range(4)]
        prof = data_profile(recs, tau=1e-3)
        np.testing.assert_allclose(prof.proportions, 0.0)

    def test_hand_enumerated_step(self):
        # Two problems with n = 2: one solved at 6 evaluations = 2 simplex
        # gradients, the other never.
        solved = record([(1, 10.0, 10.0), (6, 0.0, 0.0)], name="a")
        unsolved = record([(1, 10.0, 10.0)], name="b")
        prof = data_profile([solved, unsolved], tau=0.5,
                            alphas=np.array([1.0, 1.9, 2.0, 4.0]))
        np.testing.assert_allclose(prof.proportions, [0.0, 0.0, 0.5, 0.5])

    def test_profiles_are_monotone(self):
        rng = np.random.default_rng(2)
        recs = []
        for i in range(6):
            drops = np.minimum.accumulate(10.0 * rng.uniform(size=50))
            events = [(k * 3 + 1, drops[k], drops[k]) for k in range(50)]
            recs.append(record(events, name=f"p{i}"))
        prof = data_profile(recs, tau=1e-2)
        assert np.all(np.diff(prof.proportions) >= -1e-15)

    def test_average_lies_in_convex_hull_of_seeds(self):
        rng = np.random.default_rng(3)
        recs = []
        for seed in range(3):
            for i in range(4):
                n_solve = int(rng.integers(2, 40))
                recs.append(record([(1, 10.0, 10.0), (n_solve, 0.0, 0.0)],
                                   name=f"p{i}", seed=seed))
        alphas = np.geomspace(0.5, 20.0, 64)
        prof = data_profile(recs, tau=0.5, alphas=alphas)
        per_seed = []
        for seed in range(3):
            sub = [r for r in recs if r.seed == seed]
            per_seed.append(data_profile(sub, tau=0.5, alphas=alphas).proportions)
        lo = np.min(per_seed, axis=0)
        hi = np.max(per_seed, axis=0)
        assert np.all(prof.proportions >= lo - 1e-15)
        assert np.all(prof.proportions <= hi + 1e-15)

    def test_final_proportion_and_lookup(self):
        prof = DataProfile(alphas=np.array([1.0, 10.0, 100.0]),
                           proportions=np.array([0.0, 0.5, 0.75]))
        assert prof.final_proportion() == 0.75
        assert prof.at(10.0) == 0.5
        assert prof.at(5.0) == 0.0
        assert prof.at(0.5) == 0.0


class TestRunSuite:
    def test_smooth_measures_agree_and_csv_is_deterministic(self, tmp_path):
        problems = ["rosenbrock", "bard"]
        noise = NoiseModel("none", 0.0)
        params = SolverParams()
        recs1 = run_suite(problems, noise, [0, 1], 200, params=params)
        recs2 = run_suite(problems, noise, [0, 1], 200, params=params)
        for rec in recs1:
            for tau in (1e-1, 1e-3, 1e-5):
                assert measure_true(rec, tau) == measure_noisy(rec, tau)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        records_to_csv(recs1, p1)
        records_to_csv(recs2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_runs_match_serial_with_blas_pinned(self, tmp_path, monkeypatch):
        for var in WORKER_THREAD_VARS:
            monkeypatch.setenv(var, "4")
        args = (["rosenbrock", "bard"], NoiseModel("add_gaussian", 1e-2), [0], 50)
        params = SolverParams(noisy=True)
        serial = run_suite(*args, params=params)
        parallel = run_suite(*args, params=params, jobs=2)
        records_to_csv(serial, tmp_path / "serial.csv")
        records_to_csv(parallel, tmp_path / "parallel.csv")
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()
        assert ([(r.problem, r.n_evals, r.exit_flag) for r in serial]
                == [(r.problem, r.n_evals, r.exit_flag) for r in parallel])
        with multiprocessing.get_context("spawn").Manager() as manager, _worker_pool(2) as pool:
            barrier = manager.Barrier(2)  # each of the two workers must take a task
            reports = list(pool.map(_worker_threads, [barrier, barrier]))
        assert len({pid for pid, _ in reports}) == 2
        for _, env in reports:
            assert env == dict.fromkeys(WORKER_THREAD_VARS, "1")
        assert all(os.environ[var] == "4" for var in WORKER_THREAD_VARS)

    def test_records_round_trip_through_csv(self, tmp_path):
        from dfls.bench import records_from_csv
        recs = run_suite(["rosenbrock", "bard"], NoiseModel("add_gaussian", 1e-2), [0], 100,
                         params=SolverParams(noisy=True))
        path = tmp_path / "records.csv"
        records_to_csv(recs, path)
        meta = {(r.problem, r.seed): {
            "noise_kind": r.noise_kind, "sigma": r.sigma, "n": r.n, "m": r.m,
            "f0_true": r.f0_true, "f_star": r.f_star, "n_evals": r.n_evals,
            "exit_flag": r.exit_flag} for r in recs}
        loaded = records_from_csv(path, meta)
        assert len(loaded) == len(recs)
        for a, b in zip(sorted(recs, key=lambda r: r.problem), loaded):
            assert np.array_equal(a.eval_indices, b.eval_indices)
            np.testing.assert_allclose(a.best_true, b.best_true, rtol=1e-15)
            np.testing.assert_allclose(a.best_noisy, b.best_noisy, rtol=1e-15)

    def test_noisy_runs_record_both_traces(self):
        recs = run_suite(["rosenbrock"], NoiseModel("mult_gaussian", 1e-2), [0], 100,
                         params=SolverParams(noisy=True))
        rec = recs[0]
        assert rec.eval_indices[0] == 1
        assert np.all(np.diff(rec.eval_indices) > 0)
        assert np.all(np.diff(rec.best_true) <= 0)
        assert np.all(np.diff(rec.best_noisy) <= 0)
        assert rec.n_evals <= 100 * 3
