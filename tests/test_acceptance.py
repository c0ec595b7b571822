"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with -rA (or -s) to see the lines for passing criteria.

The benchmark-level criteria share whole-suite fixtures (36 dense problems,
10 seeds, several solver configurations), so this module takes tens of
minutes on one core. Run with `pytest tests/test_acceptance.py -v`; every
test here is marked slow, so `pytest -m "not slow"` runs the unit tests alone.
"""

import time

import numpy as np
import pytest

import dfls
from dfls.bench import (
    data_profile,
    default_alphas,
    measure_noisy,
    measure_true,
    records_to_csv,
    run_one,
    run_suite,
    tau_crit,
    tau_p,
)
from dfls.linalg import linear_fit, random_orthonormal
from dfls.model import InterpolationSet, build_linear_model
from dfls.params import RestartConfig, SolverParams
from dfls.problems import DENSE_SET, SCALABLE_SET, NoiseModel, get_problem
from dfls.trustregion import contract_stats, reset_contract_stats

pytestmark = pytest.mark.slow

NOISE = NoiseModel("mult_gaussian", 1e-2)
SEEDS = list(range(10))
BUDGET_MULT = 10**4


def report(num, description, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {description}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def _fresh_contract_stats():
    reset_contract_stats()
    yield


@pytest.fixture(scope="module")
def smooth_records():
    t0 = time.time()
    records = run_suite(DENSE_SET, NoiseModel("none", 0.0), SEEDS, BUDGET_MULT,
                        params=SolverParams())
    return records, time.time() - t0


@pytest.fixture(scope="module")
def tau_crit_map():
    return {name: tau_crit(get_problem(name), NOISE) for name in DENSE_SET}


def _noisy_suite(params):
    return run_suite(DENSE_SET, NOISE, SEEDS, BUDGET_MULT, params=params)


@pytest.fixture(scope="module")
def restart_records():
    return {
        "baseline": _noisy_suite(SolverParams(noisy=False,
                                              restarts=RestartConfig(enabled=False))),
        "soft_moving": _noisy_suite(SolverParams(noisy=True)),
        "hard": _noisy_suite(SolverParams(noisy=True, restarts=RestartConfig(kind="hard"))),
        "soft_fixed": _noisy_suite(SolverParams(noisy=True,
                                                restarts=RestartConfig(kind="soft_fixed"))),
    }


@pytest.fixture(scope="module")
def sampling_records():
    out = {
        "n1": _noisy_suite(SolverParams(noisy=True, restarts=RestartConfig(enabled=False))),
        "avg30": _noisy_suite(SolverParams(noisy=True, nsamples="const:30",
                                           restarts=RestartConfig(enabled=False))),
        "invdelta": _noisy_suite(SolverParams(noisy=True, nsamples="invdelta",
                                              restarts=RestartConfig(enabled=False))),
    }
    reg5 = []
    for name in DENSE_SET:
        n = get_problem(name).n
        reg5 += run_suite([name], NOISE, SEEDS, BUDGET_MULT,
                          params=SolverParams(noisy=True, p=5 * (n + 1),
                                              restarts=RestartConfig(enabled=False)))
    out["reg5"] = reg5
    return out


@pytest.fixture(scope="module")
def scalable_records():
    seeds = [0, 1, 2]
    reduced, full = [], []
    for name in SCALABLE_SET:
        reduced += run_suite([name], NoiseModel("none", 0.0), seeds, 50,
                             params=SolverParams(p_init=1))
        full += run_suite([name], NoiseModel("none", 0.0), seeds, 50,
                          params=SolverParams())
    return reduced, full


def _profile(records, tau_crit_by_problem=None, measure="noisy", tau=1e-5):
    return data_profile(records, tau=tau, measure=measure,
                        tau_crit_by_problem=tau_crit_by_problem,
                        alphas=default_alphas(BUDGET_MULT))


def test_criterion_1_model_exactness():
    rng = np.random.default_rng(100)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 21))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        xk = rng.standard_normal(n)
        Q = random_orthonormal(n, n, rng)
        pts = np.vstack([xk, xk + rng.uniform(0.1, 1.0) * Q])
        iset = InterpolationSet(pts)
        for t in range(n + 1):
            iset.set_value(t, A @ iset.points[t] + b)
        lm = build_linear_model(iset)
        worst = max(worst, np.linalg.norm(lm.J - A) / np.linalg.norm(A))
    elapsed = time.time() - t0
    report(1, "linear model recovers affine Jacobians to 1e-9",
           worst <= 1e-9 and elapsed < 1.0, f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_growing_rank():
    rng = np.random.default_rng(101)
    t0 = time.time()
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 10))
        p = int(rng.integers(1, n))
        m = int(rng.integers(n, 2 * n + 1))
        pts = np.vstack([rng.standard_normal(n), rng.standard_normal((p, n))])
        iset = InterpolationSet(pts)
        for t in range(p + 1):
            iset.set_value(t, rng.standard_normal(m))
        raw = build_linear_model(iset, repair_rank=False)
        sv = np.linalg.svd(raw.J, compute_uv=False)
        rank_raw = int(np.sum(sv > 1e-10 * max(sv[0], 1e-300)))
        fixed = build_linear_model(iset, repair_rank=True)
        rank_fixed = np.linalg.matrix_rank(fixed.J, tol=1e-10)
        ok = ok and rank_raw == p and rank_fixed == n
    elapsed = time.time() - t0
    report(2, "growing models have rank p before repair, full rank after",
           ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_4_full_linearity_scaling():
    def residual(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def grad_f(x):
        J = np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
        return 2.0 * J.T @ residual(x)

    x = np.array([-1.2, 1.0])
    rng = np.random.default_rng(102)
    deltas = [1e-1, 1e-2, 1e-3, 1e-4]
    slopes = []
    for _ in range(5):
        errs = []
        for delta in deltas:
            Q = random_orthonormal(2, 2, rng)
            iset = InterpolationSet(np.vstack([x, x + delta * Q]))
            for t in range(3):
                iset.set_value(t, residual(iset.points[t]))
            fm = build_linear_model(iset)
            errs.append(np.linalg.norm(fm.g - grad_f(x)))
        slopes.append(linear_fit(zip(np.log(deltas), np.log(errs))).slope)
    slope = float(np.median(slopes))
    report(4, "model-gradient error scales first-order in the radius",
           slope >= 0.9, f"log-log slope {slope:.3f}")


def test_criterion_5_smooth_benchmark(smooth_records):
    records, elapsed = smooth_records
    prof = data_profile(records, tau=1e-5, measure="true",
                        alphas=default_alphas(BUDGET_MULT))
    final = prof.final_proportion()
    report(5, "smooth suite solves >= 90% (+-5pp) at tau=1e-5 within budget",
           final >= 0.85 and elapsed <= 600.0,
           f"proportion {final:.3f}, {elapsed:.0f}s")


def test_criterion_6_restart_benefit(restart_records, tau_crit_map):
    finals = {label: _profile(recs, tau_crit_map).final_proportion()
              for label, recs in restart_records.items()}
    gap = finals["soft_moving"] - finals["baseline"]
    ordering = (finals["soft_moving"] >= finals["hard"] - 0.05
                and finals["hard"] >= finals["soft_fixed"] - 0.05
                and finals["soft_fixed"] >= finals["baseline"] - 0.05)
    detail = ", ".join(f"{k}={v:.3f}" for k, v in finals.items())
    report(6, "soft-moving restarts beat the no-restart baseline by >= 0.10 "
              "and the restart ordering holds",
           gap >= 0.10 and ordering, detail)


def test_criterion_7_adaptive_accuracy_consistency(restart_records, tau_crit_map):
    records = restart_records["soft_moving"]
    noisy_adaptive = _profile(records, tau_crit_map, measure="noisy").final_proportion()
    true_adaptive = _profile(records, tau_crit_map, measure="true").final_proportion()
    noisy_fixed = _profile(records, None, measure="noisy").final_proportion()
    true_fixed = _profile(records, None, measure="true").final_proportion()
    margin_adaptive = noisy_adaptive - true_adaptive
    margin_fixed = noisy_fixed - true_fixed
    ok = abs(margin_adaptive) <= 0.10 and margin_fixed > margin_adaptive
    report(7, "adaptive accuracy makes observed and true profiles consistent",
           ok, f"adaptive diff {margin_adaptive:+.3f}, fixed diff {margin_fixed:+.3f}")


def test_criterion_8_reduced_initialization(scalable_records):
    reduced, full = scalable_records
    n_of = {name: get_problem(name).n for name in SCALABLE_SET}
    early_hits = [float(measure_true(rec, 1e-1) <= n_of[rec.problem]) for rec in reduced]
    early = float(np.mean(early_hits))
    final_reduced = np.mean([np.isfinite(measure_true(r, 1e-5)) for r in reduced])
    final_full = np.mean([np.isfinite(measure_true(r, 1e-5)) for r in full])
    ok = early >= 0.30 and abs(final_reduced - final_full) <= 0.10
    report(8, "2-point initialization makes early progress and keeps robustness",
           ok, f"early {early:.2f}, final reduced {final_reduced:.2f} vs full {final_full:.2f}")


def test_criterion_9_osborne1_case_study():
    hits = 0
    for seed in SEEDS:
        rec = run_one("osborne1", NOISE, seed, 100, SolverParams(noisy=True))
        if np.isfinite(measure_true(rec, 1e-6)):
            hits += 1
    report(9, "noisy osborne1 reaches tau=1e-6 in most seeds", hits >= 6, f"{hits}/10 seeds")


def test_criterion_10_sampling_vs_regression_vs_restarts(
        restart_records, sampling_records, tau_crit_map):
    soft = _profile(restart_records["soft_moving"], tau_crit_map)
    reg5 = _profile(sampling_records["reg5"], tau_crit_map)
    n1 = _profile(sampling_records["n1"], tau_crit_map)
    avg30 = _profile(sampling_records["avg30"], tau_crit_map)
    invdelta = _profile(sampling_records["invdelta"], tau_crit_map)
    robust_ok = soft.final_proportion() >= reg5.final_proportion() - 0.05
    lo = min(n1.at(100), avg30.at(100))
    hi = max(n1.at(100), avg30.at(100))
    between_ok = lo <= invdelta.at(100) <= hi
    report(10, "restarts match regression robustness; adaptive sampling sits "
               "between fixed rates at intermediate budgets",
           robust_ok and between_ok,
           f"soft={soft.final_proportion():.3f} reg5={reg5.final_proportion():.3f}; "
           f"at alpha=100: n1={n1.at(100):.3f} invdelta={invdelta.at(100):.3f} "
           f"avg30={avg30.at(100):.3f}")


def test_criterion_11_measures_collapse_without_noise(smooth_records):
    records, _ = smooth_records
    ok = True
    for rec in records:
        for tau in (1e-1, 1e-5, 1e-7):
            ok = ok and measure_true(rec, tau) == measure_noisy(rec, tau)
    report(11, "observed and true measures are identical on smooth runs", ok)


def test_criterion_12_deterministic_records(tmp_path):
    problems = ["rosenbrock", "bard", "watson", "osborne1"]

    def run(path):
        records = run_suite(problems, NOISE, [0, 1], 200,
                            params=SolverParams(noisy=True))
        records_to_csv(records, path)
        return path.read_bytes()

    first = run(tmp_path / "a.csv")
    second = run(tmp_path / "b.csv")
    report(12, "identical configs produce byte-identical records", first == second)


def test_criterion_3_cauchy_decrease_audit(smooth_records, restart_records,
                                           sampling_records, scalable_records):
    # Runs after every suite fixture has been materialized in this module;
    # the trust-region solver checks the decrease bound on every call and
    # counts violations.
    stats = contract_stats()
    report(3, "every trust-region step satisfied the Cauchy decrease bound",
           stats["checks"] > 10**5 and stats["violations"] == 0,
           f"{stats['checks']} steps, {stats['violations']} violations")
