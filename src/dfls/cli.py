"""Command-line front end: single solves, benchmark suites, profile emission.

`dfls solve PROBLEM` runs the solver on a catalog problem and prints a JSON
report; `dfls bench CONFIG.json` runs a suite described by a config file and
writes records.csv, profiles.csv, summary.json and a static SVG chart into
the output directory. All outputs are pure functions of the config and
flags; the fallback seed comes from the DFLS_SEED environment variable.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .bench import (
    data_profile,
    profiles_to_csv,
    records_to_csv,
    run_tasks,
    tau_crit,
)
from .params import RestartConfig, SolverParams, resolve_params
from .problems import DENSE_SET, SCALABLE_SET, NoiseModel, NoisyProblem, get_problem
from .solver import solve

__all__ = ["main"]


def _parse_noise(spec):
    if spec in (None, "none"):
        return NoiseModel("none", 0.0)
    if ":" in spec:
        kind, sigma = spec.split(":", 1)
        return NoiseModel(kind, float(sigma))
    return NoiseModel(spec, 1e-2)


def _parse_pinit(spec, n):
    if spec is None or spec == "full":
        return None
    if spec == "2":
        return 1
    if spec == "quartern":
        return max(1, n // 4)
    if spec == "halfn":
        return max(1, n // 2)
    raise ValueError(f"unknown pinit choice {spec!r}")


def _build_params(d, prob, args):
    """SolverParams for prob from a config-style dict, with the solver flags applied on top.

    The dict takes SolverParams fields plus a "restarts" sub-dict and the
    "regression_points" (p = C(n+1)) and "pinit" shorthands, which is also
    where the --regression-points and --pinit flags land. The result is
    checked by resolve_params against prob before anything runs, so a bad
    value is a ValueError naming its field, not a failed solve.
    """
    n = prob.n
    d = dict(d or {})
    restarts = dict(d.pop("restarts", {}))
    if args.restarts is not None:
        restarts["enabled"] = args.restarts != "off"
        if args.restarts != "off":
            restarts["kind"] = args.restarts
    if args.autodetect is not None:
        restarts["autodetect"] = args.autodetect == "on"
    for key in ("nsamples", "regression_points", "pinit", "growing"):
        if getattr(args, key) is not None:
            d[key] = getattr(args, key)
    if "regression_points" in d:
        d["p"] = int(d.pop("regression_points")) * (n + 1)
    if "pinit" in d:
        d["p_init"] = _parse_pinit(str(d.pop("pinit")), n)
    params = replace(SolverParams(**d), restarts=RestartConfig(**restarts))
    resolve_params(params, n, float(abs(prob.x0).max()))
    return params


def _seed_from(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("DFLS_SEED")
    return int(env) if env else 0


def cmd_solve(args):
    try:
        prob = get_problem(args.problem)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seed = _seed_from(args)
    budget_mult = args.budget_mult if args.budget_mult is not None else 1000
    try:
        noise = _parse_noise(args.noise)
        params = _build_params({"noisy": not noise.deterministic,
                                "max_evals": int(budget_mult * (prob.n + 1))}, prob, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problem_fn = prob.residual if noise.deterministic else NoisyProblem(prob, noise, seed=seed)
    try:
        result = solve(problem_fn, prob.x0, bounds=prob.bounds, params=params, seed=seed)
    except Exception as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return 1
    report = {
        "problem": prob.name,
        "seed": seed,
        "noise": {"kind": noise.kind, "sigma": noise.sigma},
        "x": [float(v) for v in result.x],
        "f": float(result.f),
        "f_true": float(prob.objective(result.x)),
        "n_evals": int(result.n_evals),
        "exit_flag": result.exit_flag,
    }
    print(json.dumps(report, sort_keys=True))
    return 0


def _expand_problems(spec):
    if spec in ("dense", "default"):
        return list(DENSE_SET)
    if spec == "scalable":
        return list(SCALABLE_SET)
    if isinstance(spec, str):
        return [spec]
    return list(spec)


def cmd_bench(args):
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    problems = _expand_problems(config.get("problems", []))
    if not problems:
        print("error: config selects no problems", file=sys.stderr)
        return 2
    try:
        params = {name: _build_params(config.get("solver"), get_problem(name), args)
                  for name in problems}
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TypeError, ValueError) as exc:
        print(f"error: bad solver config: {exc}", file=sys.stderr)
        return 2
    try:
        if args.noise is not None:
            noise = _parse_noise(args.noise)
        else:
            noise_cfg = config.get("noise", {})
            noise = NoiseModel(noise_cfg.get("kind", "none"), float(noise_cfg.get("sigma", 0.0)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seeds_cfg = config.get("seeds", 1)
    base_seed = _seed_from(args)
    if isinstance(seeds_cfg, int):
        seeds = [base_seed + i for i in range(seeds_cfg)]
    else:
        seeds = [int(s) for s in seeds_cfg]
    budget_mult = float(args.budget_mult if args.budget_mult is not None
                        else config.get("budget_multiplier", 100))
    tau = float(args.tau if args.tau is not None else config.get("tau", 1e-5))
    measure = args.measure or config.get("measure", "noisy" if not noise.deterministic else "true")
    measures = ["true", "noisy"] if measure == "both" else [measure]
    tau_mode = config.get("tau_mode", "adaptive" if not noise.deterministic else "fixed")

    out_dir = args.out or "bench_out"
    os.makedirs(out_dir, exist_ok=True)

    tasks = [(name, noise, seed, budget_mult, params[name])
             for name in problems for seed in seeds]
    records, failures = [], []
    for (name, _, seed, _, _), outcome in zip(tasks, run_tasks(tasks, args.jobs)):
        if isinstance(outcome, Exception):
            failures.append({"problem": name, "seed": seed, "error": str(outcome)})
        else:
            records.append(outcome)
    if not records:
        why = "".join(f"; {f['problem']} seed {f['seed']} failed: {f['error']}"
                      for f in failures[:1])
        print(f"error: no records produced{why}", file=sys.stderr)
        return 2

    tc = None
    if tau_mode == "adaptive" and not noise.deterministic:
        tc = {name: tau_crit(get_problem(name), noise) for name in sorted({r.problem for r in records})}

    profiles = [data_profile(records, tau=tau, measure=m, tau_crit_by_problem=tc)
                for m in measures]

    records_to_csv(records, os.path.join(out_dir, "records.csv"))
    profiles_to_csv(profiles, os.path.join(out_dir, "profiles.csv"))
    _write_svg(profiles, os.path.join(out_dir, "profiles.svg"))

    summary = {
        "config": config,
        "n_records": len(records),
        "problems": problems,
        "seeds": seeds,
        "budget_multiplier": budget_mult,
        "tau": tau,
        "tau_mode": tau_mode,
        "tau_crit": tc,
        "final_proportions": {p.measure: p.final_proportion() for p in profiles},
        "failures": failures,
        "exit_flags": {r.problem + ":" + str(r.seed): r.exit_flag for r in records},
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _write_svg(profiles, path, width=640, height=440):
    """Static line chart of the profiles (log-scale budget axis)."""
    margin = 50
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    amin = min(float(p.alphas[0]) for p in profiles)
    amax = max(float(p.alphas[-1]) for p in profiles)
    la0, la1 = math.log10(max(amin, 1e-6)), math.log10(max(amax, 1.0))
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]

    def sx(alpha):
        la = math.log10(max(alpha, 1e-6))
        frac = 0.0 if la1 == la0 else (la - la0) / (la1 - la0)
        return margin + frac * plot_w

    def sy(v):
        return margin + (1.0 - v) * plot_h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
             'fill="none" stroke="black"/>']
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(f'<text x="{margin - 8}" y="{y:.1f}" font-size="11" '
                     f'text-anchor="end">{frac:.2f}</text>')
    for i, prof in enumerate(profiles):
        pts = " ".join(f"{sx(a):.2f},{sy(v):.2f}" for a, v in zip(prof.alphas, prof.proportions))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{margin + 6}" y="{margin + 16 + 14 * i}" font-size="11" '
                     f'fill="{color}">{prof.measure} ({prof.tau_mode})</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="12" '
                 'text-anchor="middle">budget (simplex gradients, log scale)</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _add_common_flags(parser):
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--budget-mult", type=float, default=None)
    parser.add_argument("--noise", default=None, help="kind:sigma, e.g. mult_gaussian:1e-2")
    parser.add_argument("--restarts", choices=["off", "hard", "soft_moving", "soft_fixed"],
                        default=None)
    parser.add_argument("--autodetect", choices=["on", "off"], default=None)
    parser.add_argument("--nsamples", default=None,
                        help="one, const:N, invdelta or restart-scaled")
    parser.add_argument("--regression-points", type=int, default=None, metavar="C",
                        help="use p = C(n+1) interpolation conditions")
    parser.add_argument("--pinit", choices=["full", "2", "quartern", "halfn"], default=None)
    parser.add_argument("--growing", choices=["svd", "perturb"], default=None)
    parser.add_argument("--tau", type=float, default=None)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="dfls",
                                     description="Derivative-free least-squares solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one catalog problem")
    p_solve.add_argument("problem")
    _add_common_flags(p_solve)

    p_bench = sub.add_parser("bench", help="run a benchmark suite from a JSON config")
    p_bench.add_argument("config")
    _add_common_flags(p_bench)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--measure", choices=["true", "noisy", "both"], default=None)
    p_bench.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args)
    return cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
