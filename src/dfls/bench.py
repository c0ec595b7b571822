"""Benchmark harness: run records, accuracy measures, and data profiles.

A run record keeps, per solver run, the improvement events of two running
minima: the true (noiseless) objective at every evaluated point, and the
objective value the solver actually observed (averaged when sample averaging
is active). Progress measures count the evaluations needed to reach an
accuracy threshold in either the true or the observed objective; data
profiles aggregate them over a problem collection in units of simplex
gradients (multiples of n+1 evaluations).

For noisy problems the per-problem accuracy floor tau_crit estimates the best
accuracy a solver can be expected to reach given the noise level, and the
adaptive accuracy tau_p = min(1e-1, max(tau_crit, tau)) makes the true and
observed measures comparable.
"""

import csv
import math
import multiprocessing
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .params import SolverParams
from .problems import NoiseModel, NoisyProblem, expected_noisy_objective, get_problem, noise_std_at
from .solver import solve

__all__ = [
    "RunRecord",
    "DataProfile",
    "measure_true",
    "measure_noisy",
    "tau_crit",
    "tau_p",
    "data_profile",
    "run_suite",
    "records_to_csv",
    "records_from_csv",
    "profiles_to_csv",
]

TAU_MAX = 1e-1

# Pinned to 1 in parallel workers: several unpinned BLAS pools oversubscribe the cores.
WORKER_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class RunRecord:
    """Improvement-event trace of one solver run on one (problem, seed) pair."""

    problem: str
    noise_kind: str
    sigma: float
    seed: int
    n: int
    m: int
    f0_true: float
    f_star: float
    eval_indices: np.ndarray   # 1-based cumulative evaluation counts
    best_true: np.ndarray      # running minimum of the true objective
    best_noisy: np.ndarray     # running minimum of the solver-observed objective
    n_evals: int = 0
    exit_flag: str = ""

    def noise_model(self):
        return NoiseModel(self.noise_kind, self.sigma)


@dataclass
class DataProfile:
    alphas: np.ndarray
    proportions: np.ndarray
    measure: str = "true"
    tau_mode: str = "fixed"

    def final_proportion(self):
        return float(self.proportions[-1])

    def at(self, alpha):
        """Profile value at a given budget (units of simplex gradients)."""
        idx = np.searchsorted(self.alphas, alpha, side="right") - 1
        if idx < 0:
            return 0.0
        return float(self.proportions[idx])


def measure_true(record, tau_value):
    """Evaluations until the true objective reaches the accuracy threshold.

    The threshold is f_star + tau * (f(x0) - f_star); returns inf when the
    run never got there.
    """
    threshold = record.f_star + tau_value * (record.f0_true - record.f_star)
    return _first_hit(record, record.best_true, threshold)


def measure_noisy(record, tau_value, noise=None):
    """Evaluations until the solver-observed objective meets the expected threshold.

    The threshold transplants the true-objective one through the noise
    model's expectation: E[f~(x*)] + tau * (E[f~(x0)] - E[f~(x*)]).
    """
    if noise is None:
        noise = record.noise_model()
    ef_star = expected_noisy_objective(record, noise, f=record.f_star)
    ef0 = expected_noisy_objective(record, noise, f=record.f0_true)
    return _first_hit(record, record.best_noisy, ef_star + tau_value * (ef0 - ef_star))


def _first_hit(record, best, threshold):
    """Evaluation count of the first event with best <= threshold (inf if none)."""
    hit = np.nonzero(best <= threshold)[0]
    return float(record.eval_indices[hit[0]]) if hit.size else np.inf


def tau_crit(problem, noise):
    """Noise-limited accuracy floor of a problem, rounded up to a power of ten.

    Computed as sigma(x*) / E[f~(x0) - f~(x*)] with sigma(x*) the exact
    standard deviation of the noisy objective at the recorded minimizer.
    Noiseless problems have no floor (returns 0).
    """
    if noise.deterministic:
        return 0.0
    if problem.x_star is None:
        raise ValueError(f"problem {problem.name!r} has no recorded minimizer")
    sigma_star = noise_std_at(problem, noise, problem.x_star)
    ef0 = expected_noisy_objective(problem, noise, x=problem.x0)
    ef_star = expected_noisy_objective(problem, noise, f=problem.f_star)
    denom = ef0 - ef_star
    if denom <= 0.0:
        raise ValueError("degenerate problem")
    tau_hat = sigma_star / denom
    if tau_hat == 0.0:
        return 0.0
    return float(10.0 ** math.ceil(math.log10(tau_hat)))


def tau_p(tau, tau_crit_value):
    """Per-problem accuracy: the desired tau, floored at tau_crit, capped at 1e-1."""
    return min(TAU_MAX, max(tau_crit_value, tau))


def default_alphas(budget_mult):
    grid = np.geomspace(0.25, float(budget_mult), 512)
    grid[-1] = float(budget_mult)
    return grid


def data_profile(records, tau, measure="true", tau_crit_by_problem=None, alphas=None):
    """Proportion of problems solved within alpha simplex gradients.

    For several seeds per problem, per-seed profiles are averaged. With
    tau_crit_by_problem given, the per-problem adaptive accuracy
    tau_p = min(1e-1, max(tau_crit, tau)) replaces the fixed tau.
    """
    if measure not in ("true", "noisy"):
        raise ValueError("measure must be 'true' or 'noisy'")
    if not records:
        raise ValueError("no records")
    problems = sorted({r.problem for r in records})
    seeds = sorted({r.seed for r in records})
    if alphas is None:
        max_mult = max(r.n_evals / (r.n + 1) for r in records)
        alphas = default_alphas(max(max_mult, 1.0))
    alphas = np.asarray(alphas, dtype=float)

    by_key = {(r.problem, r.seed): r for r in records}
    per_seed = []
    for seed in seeds:
        counts = np.zeros(alphas.size)
        for name in problems:
            rec = by_key.get((name, seed))
            if rec is None:
                continue
            if tau_crit_by_problem is None:
                tau_ = tau
            else:
                tau_ = tau_p(tau, tau_crit_by_problem[name])
            np_val = measure_true(rec, tau_) if measure == "true" else measure_noisy(rec, tau_)
            if np.isfinite(np_val):
                counts += (np_val <= alphas * (rec.n + 1))
        per_seed.append(counts / len(problems))
    proportions = np.mean(per_seed, axis=0)
    mode = "fixed" if tau_crit_by_problem is None else "adaptive"
    return DataProfile(alphas=alphas, proportions=proportions, measure=measure, tau_mode=mode)


class _Recorder:
    """Eval hook that keeps the improvement events of both running minima.

    The true objective comes from the noise-free residual the noisy problem
    kept at the point just evaluated, so it costs no second evaluation.
    """

    def __init__(self, noisy_problem):
        self.problem = noisy_problem
        self.events = []
        self.best_true = np.inf
        self.best_noisy = np.inf

    def __call__(self, n_evals, x, f_noisy, n_samples):
        if self.problem.noise.deterministic:
            f_true = f_noisy
        else:
            r = self.problem.last_residual
            f_true = float(r @ r)
        improved = False
        if f_true < self.best_true:
            self.best_true = f_true
            improved = True
        if f_noisy < self.best_noisy:
            self.best_noisy = f_noisy
            improved = True
        if improved:
            self.events.append((n_evals, self.best_true, self.best_noisy))


def _solver_seed(seed, name):
    return np.random.SeedSequence((int(seed), zlib.crc32(name.encode()), 0x5EED))


def run_one(name, noise, seed, budget_mult, params=None):
    """One instrumented solver run; returns its RunRecord.

    The true-objective trace is taken out of band (it does not consume
    budget); deterministic runs reuse the observed value directly.
    """
    prob = get_problem(name)
    if params is None:
        params = SolverParams(noisy=not noise.deterministic)
    budget = int(budget_mult * (prob.n + 1))
    params = replace(params, max_evals=budget)
    noisy_problem = NoisyProblem(prob, noise, seed=seed)
    recorder = _Recorder(noisy_problem)
    rng = np.random.default_rng(_solver_seed(seed, name))
    result = solve(noisy_problem, prob.x0, bounds=prob.bounds, params=params,
                   rng=rng, eval_hook=recorder)
    events = recorder.events or [(1, np.inf, np.inf)]
    ev = np.asarray(events, dtype=float)
    return RunRecord(
        problem=name, noise_kind=noise.kind, sigma=noise.sigma, seed=seed,
        n=prob.n, m=prob.m, f0_true=prob.objective(prob.x0), f_star=prob.f_star,
        eval_indices=ev[:, 0].astype(int), best_true=ev[:, 1], best_noisy=ev[:, 2],
        n_evals=result.n_evals, exit_flag=result.exit_flag)


@contextmanager
def _worker_pool(jobs):
    """Spawned workers inherit BLAS pinned to one thread before they import numpy.

    The parent's own thread variables are restored once the pool has shut down.
    """
    saved = {var: os.environ.get(var) for var in WORKER_THREAD_VARS}
    os.environ.update(dict.fromkeys(WORKER_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def run_suite(problem_names, noise, seeds, budget_mult, params=None, jobs=1):
    """Instrumented runs for every (problem, seed) pair, deterministically ordered.

    Each pair gets its own noise stream and solver stream, so results do not
    depend on scheduling; with jobs > 1 the pairs run in parallel processes
    with BLAS pinned to one thread (params must then avoid callable fields).
    """
    tasks = [(name, noise, int(seed), budget_mult, params)
             for name in problem_names for seed in seeds]
    if jobs > 1:
        with _worker_pool(jobs) as pool:
            records = list(pool.map(run_one, *zip(*tasks)))
    else:
        records = [run_one(*t) for t in tasks]
    records.sort(key=lambda r: (r.problem, r.seed))
    return records


def _fmt(x):
    if np.isposinf(x):
        return "inf"
    return format(float(x), ".17g")


def records_to_csv(records, path):
    """Improvement events as rows (problem, seed, eval_index, f_true, f_noisy)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["problem", "seed", "eval_index", "f_true", "f_noisy"])
        for rec in sorted(records, key=lambda r: (r.problem, r.seed)):
            for idx, ft, fn in zip(rec.eval_indices, rec.best_true, rec.best_noisy):
                writer.writerow([rec.problem, rec.seed, int(idx), _fmt(ft), _fmt(fn)])


def records_from_csv(path, meta):
    """Rebuild records from records.csv plus the per-run metadata mapping.

    meta maps (problem, seed) to a dict with the RunRecord scalar fields.
    """
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["problem"], int(row["seed"]))
            rows.setdefault(key, []).append(
                (int(row["eval_index"]), float(row["f_true"]), float(row["f_noisy"])))
    records = []
    for key, events in sorted(rows.items()):
        ev = np.asarray(events, dtype=float)
        info = meta[key]
        records.append(RunRecord(
            problem=key[0], seed=key[1], eval_indices=ev[:, 0].astype(int),
            best_true=ev[:, 1], best_noisy=ev[:, 2], **info))
    return records


def profiles_to_csv(profiles, path):
    """Profiles as rows (alpha, proportion, measure, tau_mode)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha", "proportion", "measure", "tau_mode"])
        for prof in profiles:
            for a, v in zip(prof.alphas, prof.proportions):
                writer.writerow([_fmt(a), _fmt(v), prof.measure, prof.tau_mode])
