"""dfls benchmark: named catalog workloads through the public library API.

    python3 benchmarks/run.py --workload dense_smooth --seed 0 --seconds 25 --trace 0

One repetition of a workload solves every (problem, solver seed) pair with
``dfls.bench.run_one``, then builds the true-measure data profile and writes
the records with ``records_to_csv``. Repetitions run until ``--seconds`` is
used up (at least two), and must agree exactly on the records digest and the
solver's evaluation and iteration counts.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` times one
untraced repetition, then repeats traced passes (the tau_crit map, when the
workload has one, plus a repetition) and prints per-layer calls, self time
and share per pass. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
every metric with its unit, the environment and the identity counts. The
process exits non-zero when a correctness check fails.

The workload seed picks the solver seeds (and with them the noise streams),
so a different seed gives different records under the same metric names.
BLAS and OpenMP are pinned to one thread before numpy is imported: the
solver's results, not only its speed, depend on the BLAS thread count.
"""

import os

THREAD_PIN = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREAD_PIN

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

TAU = 1e-5
SETUP_REPS = 3
MIN_REPS = 2


@dataclass(frozen=True)
class Workload:
    """A fixed set of solves; the workload seed only picks the solver seeds."""

    problems: tuple       # catalog names, or "DENSE_SET"
    noise: tuple          # (kind, sigma)
    budget_mult: int      # evaluations per problem = budget_mult * (n + 1)
    seeds_per_rep: int    # solver seeds per problem in one repetition
    params: dict = field(default_factory=dict)  # SolverParams fields
    regression: bool = False  # p = 5 (n + 1) sample points, restarts off
    smoke_problem: str = ""   # --smoke: this problem only ...
    smoke_budget_mult: int = 20  # ... at this budget


NOISY = {"noisy": True}
MULT_NOISE = ("mult_gaussian", 1e-2)

# Why each workload is here (also in BENCHMARK.json):
# dense_smooth: the paper's smooth setting; n <= 12 and a square
#   interpolation system, so the Python loop and Steihaug CG dominate.
# dense_noisy_restarts: the paper's noisy default with soft-moving restarts;
#   the only workload that runs restarts, the noise wrapper, the recorder's
#   out-of-band true objective and the tau_crit set-up.
# dense_noisy_regression: p = 5(n+1) without restarts; every fit is a tall
#   least-squares solve instead of a square LU.
# scalable_n100: n = 100 with reduced initialization; O(n^3) linear algebra
#   dominates while the recorder and residuals stay cheap. These three problems
#   need about the same evaluations whatever the seed: at 5(n+1) the two
#   longest run to the budget, so the median solve is a budget-bound one. (At
#   20(n+1) a seed that stopped rosenbrock_chained_100 early halved the work;
#   the other n = 100 problems need a seed-dependent number of evaluations,
#   which moved the median solve time by a third.)
WORKLOADS = {
    "dense_smooth": Workload("DENSE_SET", ("none", 0.0), 1000, 2,
                             smoke_problem="rosenbrock"),
    "dense_noisy_restarts": Workload("DENSE_SET", MULT_NOISE, 25, 2, NOISY,
                                     smoke_problem="rosenbrock"),
    "dense_noisy_regression": Workload("DENSE_SET", MULT_NOISE, 25, 2, NOISY, regression=True,
                                       smoke_problem="rosenbrock"),
    "scalable_n100": Workload(("rosenbrock_chained_100", "penalty1_100", "integreq_100"),
                              ("none", 0.0), 5, 1, {"p_init": 1},
                              smoke_problem="integreq_100", smoke_budget_mult=2),
}

END_TO_END = {  # name -> unit
    "wall_s": "s", "us_per_eval": "us", "solve_ms_p50": "ms",
    "solved_frac": "1", "profile_auc": "1", "setup_s": "s", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here: no dfls sources in this checkout."""


def solver_seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def import_dfls():
    """Import dfls from this checkout's src/, never from an installed copy."""
    if not (SRC_DIR / "dfls" / "__init__.py").is_file():
        raise BenchError(f"no dfls sources under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    for name in [m for m in sys.modules if m == "dfls" or m.startswith("dfls.")]:
        del sys.modules[name]
    dfls = importlib.import_module("dfls")
    if Path(dfls.__file__).resolve().parent != SRC_DIR / "dfls":
        raise BenchError(f"imported dfls from {dfls.__file__}, not from {SRC_DIR}")
    importlib.import_module("dfls.bench")
    return dfls


@dataclass
class Setup:
    dfls: object
    tasks: list           # (name, NoiseModel, seed, budget_mult, SolverParams)
    noise: object
    budget_mult: int
    budget: dict          # problem name -> evaluation budget
    bounds: dict          # problem name -> (lower, upper) or None
    tau_crit: dict        # problem name -> tau_crit, empty for smooth workloads


def set_up(wl, seed, smoke):
    """Import dfls, resolve problems and params, build the tau_crit map."""
    dfls = import_dfls()
    from dfls.params import RestartConfig, SolverParams, resolve_params
    from dfls.problems import DENSE_SET, NoiseModel, get_problem

    names = DENSE_SET if wl.problems == "DENSE_SET" else list(wl.problems)
    mult = wl.budget_mult
    if smoke:
        names, mult = [wl.smoke_problem], wl.smoke_budget_mult
    noise = NoiseModel(*wl.noise)
    seeds = solver_seeds(seed, wl.seeds_per_rep)
    tasks, budget, bounds = [], {}, {}
    for name in names:
        prob = get_problem(name)
        kwargs = dict(wl.params)
        if wl.regression:
            kwargs.update(p=5 * (prob.n + 1), restarts=RestartConfig(enabled=False))
        params = SolverParams(**kwargs)
        budget[name] = int(mult * (prob.n + 1))
        resolve_params(params, prob.n, float(np.max(np.abs(prob.x0))))
        bounds[name] = prob.bounds
        tasks += [(name, noise, s, mult, params) for s in seeds]
    tau = build_tau_crit(dfls, names, noise)
    return Setup(dfls, tasks, noise, mult, budget, bounds, tau)


def build_tau_crit(dfls, names, noise):
    if noise.deterministic:
        return {}
    from dfls.problems import get_problem
    return {name: dfls.bench.tau_crit(get_problem(name), noise) for name in names}


@dataclass
class Rep:
    wall: float
    solve_times: list
    solves: list          # (task, RunRecord, Results) of the solves that returned
    failed: int
    profile_auc: float
    sha256: str
    audit: dict
    counts: dict


def run_rep(st, tag, tracer=None):
    """One repetition: every solve, then the profile and the records CSV."""
    bench = st.dfls.bench
    captured = []
    real_solve = bench.solve

    def capture(*args, **kwargs):
        res = real_solve(*args, **kwargs)
        captured.append(res)
        return res

    # The one shim in untraced runs: it keeps the Results that run_one drops
    # (best point, iterations, restarts); it times nothing.
    bench.solve = capture
    if tracer is not None:
        tracer.install(st.dfls, dfls_modules())
    st.dfls.trustregion.reset_contract_stats()
    csv_path = OUT_DIR / f"records-{tag}.csv"
    solves, times, failed = [], [], 0
    try:
        t0 = time.perf_counter()
        for k, task in enumerate(st.tasks):
            if tracer is not None:
                tracer.solve_id = k
            ts = time.perf_counter()
            try:
                rec = bench.run_one(*task)
            except Exception as exc:  # a raising solve is counted, not fatal
                failed += 1
                print(f"# solve failed: {task[0]} seed={task[2]}: {exc!r}", file=sys.stderr)
                continue
            finally:
                if tracer is not None:
                    tracer.solve_id = -1
            times.append(time.perf_counter() - ts)
            solves.append((task, rec, captured[-1]))
        records = [rec for _, rec, _ in solves]
        profile_auc = float("nan")
        if records:
            profile = bench.data_profile(records, tau=TAU, measure="true",
                                         tau_crit_by_problem=st.tau_crit or None,
                                         alphas=bench.default_alphas(st.budget_mult))
            profile_auc = float(np.mean(profile.proportions))
        bench.records_to_csv(records, csv_path)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
        bench.solve = real_solve
    results = [res for _, _, res in solves]
    counts = {
        "evals": sum(r.n_evals for r in results),
        "iterations": sum(r.diagnostics["iterations"] for r in results),
        "restarts": sum(r.diagnostics["n_restarts"] for r in results),
    }
    for r in results:
        counts["exit." + r.exit_flag] = counts.get("exit." + r.exit_flag, 0) + 1
    sha = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    return Rep(wall, times, solves, failed, profile_auc, sha,
               st.dfls.trustregion.contract_stats(), counts)


def dfls_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "dfls" or name.startswith("dfls."))]


EXIT_FLAGS = ("small_objective", "small_trust_region", "budget", "slow_progress",
              "noise_level", "restarts_exhausted")


def check_rep(st, rep):
    """Correctness problems of one repetition, as messages (empty when fine)."""
    problems = []
    if rep.audit["violations"] != 0:
        problems.append(f"trust-region audit violations: {rep.audit['violations']}")
    for (name, _, seed, _, _), _, res in rep.solves:
        where = f"{name} seed={seed}"
        if res.n_evals > st.budget[name]:
            problems.append(f"{where}: {res.n_evals} evaluations, budget {st.budget[name]}")
        if res.exit_flag not in EXIT_FLAGS:
            problems.append(f"{where}: undocumented exit flag {res.exit_flag!r}")
        x = np.asarray(res.x, dtype=float)
        lower, upper = st.bounds[name] or (None, None)
        if not np.all(np.isfinite(x)):
            problems.append(f"{where}: best point not finite")
        elif ((lower is not None and np.any(x < lower))
              or (upper is not None and np.any(x > upper))):
            problems.append(f"{where}: best point outside its bounds")
    return problems


def identity(rep):
    return (rep.sha256, rep.counts["evals"], rep.counts["iterations"], rep.counts["restarts"],
            rep.failed)


def solved_frac(st, records):
    bench = st.dfls.bench
    if not records:
        return 0.0
    hits = 0
    for rec in records:
        tau = bench.tau_p(TAU, st.tau_crit[rec.problem]) if st.tau_crit else TAU
        hits += bool(np.isfinite(bench.measure_true(rec, tau)))
    return hits / len(records)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"thread_pin": THREAD_PIN, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "nproc": usable}


def measure(wl_name, seed, seconds, smoke):
    """Untraced run: set-up repetitions, then workload repetitions."""
    wl = WORKLOADS[wl_name]
    setup_times = []
    for _ in range(1 if smoke else SETUP_REPS):
        t0 = time.perf_counter()
        st = set_up(wl, seed, smoke)
        setup_times.append(time.perf_counter() - t0)
    reps = []
    t_start = time.perf_counter()
    while True:
        reps.append(run_rep(st, f"{wl_name}-{seed}"))
        elapsed = time.perf_counter() - t_start
        if len(reps) >= MIN_REPS and elapsed + statistics.median(r.wall for r in reps) > seconds:
            break
    first = reps[0]
    walls = [r.wall for r in reps]
    times = [t for r in reps for t in r.solve_times]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "us_per_eval": wall * 1e6 / max(first.counts["evals"], 1),
        "solve_ms_p50": 1e3 * statistics.median(times) if times else float("nan"),
        "solved_frac": solved_frac(st, [rec for _, rec, _ in first.solves]),
        "profile_auc": first.profile_auc,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"reps": len(reps), "rep_walls": [round(w, 4) for w in walls],
            "solves_per_rep": len(st.tasks), "solve_samples": len(times),
            "fail_frac": sum(r.failed for r in reps) / (len(st.tasks) * len(reps))}
    return st, reps, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, info


def measure_traced(wl_name, seed, seconds, smoke):
    """Traced run: one untraced repetition, then traced passes."""
    wl = WORKLOADS[wl_name]
    st = set_up(wl, seed, smoke)
    t_start = time.perf_counter()
    reps = [run_rep(st, f"{wl_name}-{seed}")]
    tracer = Tracer()
    passes, traced_walls, pass_walls = 0, [], []
    while True:
        t0 = time.perf_counter()
        if st.tau_crit:
            tracer.install(st.dfls, dfls_modules())
            try:
                build_tau_crit(st.dfls, list(st.tau_crit), st.noise)
            finally:
                tracer.uninstall()
        rep = run_rep(st, f"{wl_name}-{seed}", tracer=tracer)
        pass_walls.append(time.perf_counter() - t0)
        traced_walls.append(rep.wall)
        reps.append(rep)
        passes += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(pass_walls) > seconds:
            break
    tracer.save(OUT_DIR / f"spans-{wl_name}-{seed}.npz")
    pass_wall = sum(pass_walls) / passes
    metrics = {}
    for name, (calls, self_s) in tracer.self_times().items():
        metrics[f"{name}.calls"] = (calls / passes, "count")
        metrics[f"{name}.self_s"] = (self_s / passes, "s")
        metrics[f"{name}.share"] = (self_s / passes / pass_wall, "1")
    metrics["linalg.share"] = (sum(v for k, (v, _) in metrics.items()
                                   if k.startswith("linalg.") and k.endswith(".share")), "1")
    last = reps[-1]
    metrics["solver.evals"] = (last.counts["evals"], "count")
    metrics["solver.iterations"] = (last.counts["iterations"], "count")
    metrics["solver.restarts"] = (last.counts["restarts"], "count")
    for flag in EXIT_FLAGS:
        metrics[f"solver.exit.{flag}"] = (last.counts.get("exit." + flag, 0), "count")
    metrics["trustregion.audit_checks"] = (last.audit["checks"], "count")
    metrics["trustregion.audit_violations"] = (last.audit["violations"], "count")
    metrics["trace.wall_s"] = (pass_wall, "s")
    metrics["trace.overhead"] = (statistics.median(traced_walls) / reps[0].wall, "1")
    info = {"reps": len(reps), "traced_passes": passes, "solves_per_rep": len(st.tasks),
            "spans": len(tracer.starts)}
    return st, reps, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one problem per workload at a tiny budget (for the smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    # The solver logs rank-repair fallbacks as warnings; keep them off stderr.
    logging.getLogger("dfls").addHandler(logging.NullHandler())
    try:
        OUT_DIR.mkdir(exist_ok=True)
        run = measure_traced if args.trace else measure
        st, reps, metrics, info = run(args.workload, args.seed, args.seconds, args.smoke)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    problems = []
    for rep in reps:
        problems += check_rep(st, rep)
    ids = {identity(r) for r in reps}
    if len(ids) != 1:
        problems.append(f"repetitions disagree on (records_sha256, evals, iterations, "
                        f"restarts, failed): {sorted(ids)}")
    attempted = len(st.tasks) * len(reps)
    failed = sum(r.failed for r in reps)

    env = environment()
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    first = reps[0]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# identity records_sha256={first.sha256} solver.evals={first.counts['evals']} "
          f"solver.iterations={first.counts['iterations']} "
          f"solver.restarts={first.counts['restarts']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for msg in problems:
        print(f"# CHECK FAILED: {msg}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
