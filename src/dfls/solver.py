"""Derivative-free trust-region solver for nonlinear least-squares.

The main loop maintains an interpolation set around the current iterate,
builds a linear model of the residuals (regression when the set is full,
minimal-norm interpolation while it is still growing), approximately solves
the trust-region subproblem, and manages two radii: the working radius delta
and a slower-moving lower bound rho. For noisy objectives it supports sample
averaging, regression sets larger than n+1, and several restart strategies
with optional stagnation auto-detection.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DegenerateSetError,
    linear_fit,
    orthogonal_complement_direction,
    random_unit,
)
from .model import (
    InterpolationSet,
    _bounds_arrays,
    build_initial_set,
    build_linear_model,
    choose_point_to_replace,
    fit_model_and_basis,
    full_model,
    geometry_point,
    lagrange_basis,
    needs_geometry_improvement,
)
from .params import SolverParams, nsamples_policy, resolve_params
from .trustregion import _max_feasible_step, solve_trust_region

__all__ = [
    "solve",
    "Results",
    "update_radii",
    "check_slow_decrease",
    "check_noise_level_termination",
    "auto_detect_restart",
    "apply_variable_scaling",
    "EXIT_SMALL_OBJECTIVE",
    "EXIT_SMALL_TRUST_REGION",
    "EXIT_BUDGET",
    "EXIT_SLOW_PROGRESS",
    "EXIT_NOISE_LEVEL",
    "EXIT_RESTARTS_EXHAUSTED",
]

logger = logging.getLogger("dfls")

EXIT_SMALL_OBJECTIVE = "small_objective"
EXIT_SMALL_TRUST_REGION = "small_trust_region"
EXIT_BUDGET = "budget"
EXIT_SLOW_PROGRESS = "slow_progress"
EXIT_NOISE_LEVEL = "noise_level"
EXIT_RESTARTS_EXHAUSTED = "restarts_exhausted"

# Treat the model decrease as numerically zero below this relative level.
_PRED_DECREASE_TOL = 1e-15
_MAX_CONSECUTIVE_FAILURES = 50


@dataclass
class Results:
    """Solver output: best point found, its observed objective value, and counters."""

    x: np.ndarray
    f: float
    n_evals: int
    exit_flag: str
    diagnostics: dict = field(default_factory=dict)

    def __repr__(self):
        return (f"Results(x={self.x!r}, f={self.f!r}, n_evals={self.n_evals}, "
                f"exit_flag={self.exit_flag!r})")


class _OutOfBudget(Exception):
    pass


class _Terminate(Exception):
    def __init__(self, flag):
        self.flag = flag


def update_radii(ratio, delta, rho, step_norm, params):
    """Trust-region radius update after a step of the given norm.

    Returns (new_delta, hit_rho) where hit_rho indicates the new radius has
    dropped to rho, which in the unsuccessful and safety branches triggers the
    (rho, delta) <- (alpha1 rho, alpha2 rho) reduction.
    """
    if ratio >= params.eta2:
        new_delta = min(max(params.gamma_inc * delta, params.gamma_inc_bar * step_norm),
                        params.delta_max)
    elif ratio >= params.eta1:
        new_delta = max(params.gamma_dec * delta, step_norm, rho)
    else:
        new_delta = max(min(params.gamma_dec * delta, step_norm), rho)
    return new_delta, new_delta <= rho


def check_slow_decrease(f_history, cfg):
    """True when the trailing successful iterations all show slow log-decrease.

    f_history holds the objective values of successful iterations in order.
    Iteration i is slow when (log f[i-K] - log f[i]) / K < threshold with
    K = cfg.window; the check fires when the last cfg.consecutive iterations
    are all slow. Nonpositive objective values never count as slow (the
    small-objective test handles them first).
    """
    K = cfg.window
    need = cfg.consecutive
    if len(f_history) < K + need:
        return False
    for back in range(need):
        f_new = f_history[-1 - back]
        f_old = f_history[-1 - back - K]
        if f_new <= 0.0 or f_old <= 0.0:
            return False
        if (np.log(f_old) - np.log(f_new)) / K >= cfg.threshold:
            return False
    return True


def check_noise_level_termination(iset, cfg):
    """True when every set value sits within the configured noise level of the base.

    Additive mode compares |f(y_t) - f(x_k)|, multiplicative mode the ratio
    |f(y_t)/f(x_k)|, each against scale * level / sqrt(N_t). A zero base value
    makes the multiplicative mode fall back to the additive comparison.
    """
    fvals = iset.objective_values()
    fk = iset.base_objective()
    thresholds = cfg.scale * cfg.level / np.sqrt(iset.sample_counts)
    multiplicative = cfg.multiplicative and fk != 0.0
    for t in range(iset.npt):
        if t == iset.base_index:
            continue
        if multiplicative:
            if abs(fvals[t] / fk) > thresholds[t]:
                return False
        else:
            if abs(fvals[t] - fk) > thresholds[t]:
                return False
    return True


def auto_detect_restart(radius_events, jac_history, cfg):
    """Detect noise-induced stagnation from radius and Jacobian-change history.

    radius_events holds one of -1/0/+1 per iteration since the last restart
    (radius decreased / unchanged / increased); jac_history holds pairs
    (iteration, log ||J_k - J_{k-1}||_F). A restart is indicated when, over
    the last cfg.window iterations, the radius never increased and was
    decreased at least twice as often as kept constant, and the linear fit of
    the Jacobian-change log exceeds the slope and correlation thresholds.
    """
    w = cfg.window
    if len(radius_events) < w or len(jac_history) < w:
        return False
    ev = np.asarray(radius_events[-w:])
    if np.any(ev > 0):
        return False
    n_dec = int(np.sum(ev < 0))
    n_const = int(np.sum(ev == 0))
    if n_dec < 2 * n_const:
        return False
    fit = linear_fit(jac_history[-w:])
    return fit.slope >= cfg.slope_threshold and fit.correlation >= cfg.corr_threshold


def apply_variable_scaling(residual, x0, lower, upper):
    """Shift-and-scale a box-constrained problem onto the unit cube.

    Returns (scaled_residual, u0, to_original, to_unit); the feasible region
    of the scaled problem is [0, 1]^n. Requires finite bounds with positive
    width in every coordinate.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("variable scaling requires finite bounds")
    span = upper - lower
    if np.any(span <= 0.0):
        raise ValueError("variable scaling requires upper > lower")

    def to_original(u):
        return lower + np.asarray(u, dtype=float) * span

    def to_unit(x):
        return (np.asarray(x, dtype=float) - lower) / span

    def scaled_residual(u):
        return residual(to_original(u))

    return scaled_residual, to_unit(x0), to_original, to_unit


def _fix_variables(residual, x, free):
    """Restrict a residual to the free coordinates of x; the others stay fixed.

    Returns (free_residual, to_full): free_residual takes the free
    coordinates only, and to_full puts them back among the fixed values.
    """
    x = np.array(x, dtype=float)

    def to_full(z):
        out = x.copy()
        out[free] = z
        return out

    def free_residual(z):
        return residual(to_full(z))

    return free_residual, to_full


def _residual_array(value):
    """The residual as a float vector; any other shape is a ValueError."""
    r = np.asarray(value, dtype=float)
    if r.ndim != 1:
        raise ValueError(f"residuals must return a 1-D array, got shape {r.shape}")
    return r


class _Loop:
    """State and phases of one solver run (single-threaded, owns all state)."""

    def __init__(self, fun, x0, lower, upper, params, rng, eval_hook, record_trace):
        self.fun = fun
        self.x0 = np.asarray(x0, dtype=float)
        self.n = self.x0.size
        self.lower = lower
        self.upper = upper
        self.p = params
        self.rng = rng
        self.eval_hook = eval_hook
        self.record_trace = record_trace

        self.nsamples = nsamples_policy(params.nsamples)
        self.delta = params.delta0
        self.rho = params.delta0
        self.iset = None
        self.n_evals = 0
        self.iter_count = 0
        self.k_local = 0           # iterations since the last restart
        self.n_restarts = 0
        self.failed_restarts = 0
        self.best_f_at_last_restart = np.inf
        self.best_x = None
        self.best_f = np.inf
        self.f0_observed = None
        self.consecutive_failures = 0
        self.prev_J = None
        self.radius_events = []    # -1 / 0 / +1 per iteration since restart
        self.jac_history = []      # (iteration, log ||J_k - J_{k-1}||_F)
        self.success_f = []        # objective at successful iterations
        self.trace = [] if record_trace else None

    # -- evaluation ---------------------------------------------------------

    def _eval_once(self, x):
        try:
            value = self.fun(x)
        except Exception:
            logger.debug("objective evaluation raised; treating value as +inf")
            return None
        r = _residual_array(value)
        if not np.all(np.isfinite(r)):
            return None
        return r

    def evaluate_averaged(self, x):
        """Mean of N residual samples at x; every sample counts against the budget.

        Returns (rbar, fbar, N) with fbar = +inf when any sample failed.
        Raises _OutOfBudget before evaluating when no budget remains; N is
        truncated to the remaining budget otherwise.
        """
        remaining = self.p.max_evals - self.n_evals
        if remaining <= 0:
            raise _OutOfBudget()
        n_req = max(1, int(self.nsamples(self.rho, self.delta, self.k_local, self.n_restarts)))
        n_use = min(n_req, remaining)
        rbar = None
        batch = getattr(self.fun, "sample_mean", None) if n_use > 1 else None
        if batch is not None:
            self.n_evals += n_use
            try:
                rbar = batch(x, n_use)
            except Exception:
                rbar = None
            if rbar is not None:
                rbar = _residual_array(rbar)
                if not np.all(np.isfinite(rbar)):
                    rbar = None
        else:
            acc = None
            failed = False
            for _ in range(n_use):
                self.n_evals += 1
                r = self._eval_once(x)
                if r is None:
                    failed = True
                elif acc is None:
                    acc = r.copy()
                else:
                    acc += r
            if acc is not None and not failed:
                rbar = acc / n_use
        if rbar is None:
            self.consecutive_failures += 1
            if self.consecutive_failures > _MAX_CONSECUTIVE_FAILURES:
                raise RuntimeError("persistent objective evaluation failure")
            return None, np.inf, n_use
        self.consecutive_failures = 0
        fbar = float(rbar @ rbar)
        if fbar < self.best_f:
            self.best_f = fbar
            self.best_x = np.asarray(x, dtype=float).copy()
        if self.eval_hook is not None:
            self.eval_hook(self.n_evals, np.asarray(x, dtype=float), fbar, n_use)
        return rbar, fbar, n_use

    # -- helpers ------------------------------------------------------------

    def _clip(self, x):
        return np.clip(x, self.lower, self.upper)

    def _growing(self):
        return self.iset.npt < self.p.p + 1

    def _geom_epsilon(self):
        return max(self.p.geom_delta_mult * self.delta, self.p.geom_rho_mult * self.rho)

    def _small_objective(self, f):
        return f <= max(self.p.eps_abs, self.p.eps_rel * self.f0_observed)

    def _record_jacobian(self, J):
        if self.prev_J is not None and self.prev_J.shape == J.shape:
            diff = J - self.prev_J
            change = float(np.sqrt(np.sum(diff * diff)))
            self.jac_history.append((self.k_local, np.log(max(change, 1e-300))))
        self.prev_J = J.copy()

    def _reset_histories(self):
        self.k_local = 0
        self.prev_J = None
        self.radius_events = []
        self.jac_history = []
        self.success_f = []

    def _reduce_rho(self):
        """(rho, delta) <- (alpha1 rho, alpha2 rho); restart or stop at rho_end."""
        p = self.p
        self.rho, self.delta = p.alpha1 * self.rho, p.alpha2 * self.rho
        if self.rho <= p.rho_end:
            self._request_restart(EXIT_SMALL_TRUST_REGION)

    # -- phases -------------------------------------------------------------

    def _initialize(self):
        self.iset = build_initial_set(self.x0, self.p.delta0, self.p.p_init,
                                      (self.lower, self.upper), self.rng)
        rbar, fbar, nsamp = self.evaluate_averaged(self.iset.points[0])
        if rbar is None:
            raise RuntimeError("objective evaluation failed at the starting point")
        self.iset.set_value(0, rbar, nsamp)
        self.f0_observed = fbar
        for t in range(1, self.iset.npt):
            self._fill_initial_value(self.iset, t)
        self.iset.rebase()

    def _fill_initial_value(self, iset, t):
        """Evaluate initial point t, retrying flipped and shrunk steps on failure.

        Wide initial radii can push points into regions where the residuals
        overflow; the replacement steps keep the set affinely independent.
        """
        x0 = iset.points[0]
        step = iset.points[t] - x0
        candidates = [iset.points[t]]
        for frac in (-1.0, 0.5, -0.5, 0.25, -0.25, 0.05, -0.05):
            candidates.append(self._clip(x0 + frac * step))
        for y in candidates:
            if iset.has_point(y, skip=t):
                continue
            rbar, fbar, nsamp = self.evaluate_averaged(y)
            if rbar is not None:
                iset.put(t, y, rbar, nsamp)
                return
        raise RuntimeError("objective evaluation failed while building the initial set")

    def _improve_geometry(self, radius):
        """Move the point furthest from the base to a geometry-improving spot."""
        try:
            basis = lagrange_basis(self.iset)
        except DegenerateSetError:
            self._repair_degenerate()
            return
        t = self.iset.furthest_index()
        y = geometry_point(basis, t, self.iset.base_point(), radius,
                           (self.lower, self.upper), self.rng)
        self._move_point(t, y)

    def _move_point(self, t, y):
        """Evaluate y and put it at slot t (t == npt appends), then rebase.

        A duplicate of a set point is skipped unevaluated (returns False); a
        failed evaluation leaves the set unchanged.
        """
        if self.iset.has_point(y):
            return False
        rbar, fbar, nsamp = self.evaluate_averaged(y)
        if rbar is not None:
            self.iset.put(t, y, rbar, nsamp)
            self.iset.rebase()
        return True

    def _repair_degenerate(self):
        """Replace the furthest point with a random direction step from the base."""
        t = self.iset.furthest_index()
        d = random_unit(self.rng, self.n)
        self._move_point(t, self._clip(self.iset.base_point() + self.delta * d))

    def _growing_safety(self):
        """Append a point orthogonal to the current growing directions."""
        xk = self.iset.base_point()
        directions = np.delete(self.iset.points, self.iset.base_index, axis=0) - xk
        for _ in range(10):
            try:
                d = orthogonal_complement_direction(directions, self.rng)
            except DegenerateSetError:
                d = random_unit(self.rng, self.n)
            if self._move_point(self.iset.npt, self._clip(xk + self.delta * d)):
                return

    def _multi_move(self, step):
        """Move the furthest points after a successful regression-mode step."""
        mech = self.p.multi_move
        count = self.p.multi_move_count
        if count is None:
            count = min(3, self.p.p)
        count = min(count, self.iset.npt - 1)
        xk = self.iset.base_point()
        for _ in range(count):
            t = self.iset.furthest_index()
            if mech == "geometry":
                try:
                    basis = lagrange_basis(self.iset)
                except DegenerateSetError:
                    return
                y = geometry_point(basis, t, xk, self.delta, (self.lower, self.upper), self.rng)
            else:  # momentum
                y = self._momentum_point(xk, step)
                if y is None:
                    return
            self._move_point(t, y)

    def _momentum_point(self, xk, step):
        """x_{k+1} + delta d with random unit d, d.step > 0, clipped to the box."""
        def box_step(d):
            return min(_max_feasible_step(xk, d, np.inf, self.lower, self.upper), self.delta)

        for _ in range(50):
            d = random_unit(self.rng, self.n)
            if step @ d <= 0.0:
                d = -d
            alpha = box_step(d)
            if alpha < 1e-3:
                d = -d
                alpha = box_step(d)
                if alpha <= 0.0:
                    continue
            return xk + alpha * d
        return None

    # -- restarts -----------------------------------------------------------

    def _request_restart(self, fallback_flag):
        """Restart if configured, otherwise terminate with the fallback flag."""
        cfg = self.p.restarts
        if not (cfg.enabled and not self._growing()):
            raise _Terminate(fallback_flag)
        if self.best_f < self.best_f_at_last_restart:
            self.failed_restarts = 0
        else:
            self.failed_restarts += 1
        if self.failed_restarts >= cfg.max_failed:
            raise _Terminate(EXIT_RESTARTS_EXHAUSTED)
        self.best_f_at_last_restart = self.best_f
        self.n_restarts += 1
        self._do_restart(cfg.kind)
        self._reset_histories()

    def _do_restart(self, kind):
        self.delta = self.p.delta0
        self.rho = self.p.delta0
        if kind == "hard":
            self._hard_restart()
        elif kind == "soft_moving":
            self._soft_restart(move_base=True)
        else:
            self._soft_restart(move_base=False)

    def _hard_restart(self):
        """Rebuild the whole set around the current base, like the initial set."""
        xk = self.iset.base_point().copy()
        fresh = build_initial_set(xk, self.p.delta0, self.p.p,
                                  (self.lower, self.upper), self.rng)
        base_value = self.iset.base_value().copy()
        base_count = int(self.iset.sample_counts[self.iset.base_index])
        new = InterpolationSet(fresh.points, base_index=0)
        new.set_value(0, base_value, base_count)
        for t in range(1, new.npt):
            self._fill_initial_value(new, t)
        new.rebase()
        self.iset = new

    def _soft_restart(self, move_base):
        """Move the points nearest the base to geometry spots in the inflated ball."""
        n_move = min(self.p.restarts.n_move, self.iset.npt - 1)
        old_base = self.iset.base_index
        old_xk = self.iset.base_point().copy()
        moved = []
        if move_base:
            y0 = self._restart_geometry_point(old_base, old_xk)
            rbar, fbar, nsamp = self.evaluate_averaged(y0)
            if rbar is not None:
                self.iset.put(old_base, y0, rbar, nsamp)
                moved.append(old_base)
            n_move -= 1
            center = self.iset.points[old_base]
        else:
            center = old_xk
        dist = np.linalg.norm(self.iset.points - old_xk, axis=1)
        dist[old_base] = np.inf
        order = np.argsort(dist, kind="stable")
        for t in order[:max(n_move, 0)]:
            y = self._restart_geometry_point(int(t), center)
            rbar, fbar, nsamp = self.evaluate_averaged(y)
            if rbar is not None:
                self.iset.put(int(t), y, rbar, nsamp)
                moved.append(int(t))
        if move_base and moved:
            # Continue from the best of the moved points, even if it is worse
            # than the point the previous iteration ended at.
            fvals = self.iset.objective_values()
            self.iset.set_base(moved[int(np.argmin(fvals[moved]))])
        else:
            self.iset.rebase()

    def _restart_geometry_point(self, t, center):
        try:
            basis = lagrange_basis(self.iset)
            y = geometry_point(basis, t, center, self.p.delta0,
                               (self.lower, self.upper), self.rng)
        except DegenerateSetError:
            y = self._clip(center + self.p.delta0 * random_unit(self.rng, self.n))
        if self.iset.has_point(y):
            d = random_unit(self.rng, self.n)
            y = self._clip(center + self.p.delta0 * self.rng.uniform(0.5, 1.0) * d)
        return y

    # -- main loop ----------------------------------------------------------

    def run(self):
        exit_flag = EXIT_BUDGET
        try:
            self._initialize()
            while True:
                delta_at_start = self.delta
                restarts_before = self.n_restarts
                self._iterate()
                if self.n_restarts == restarts_before:
                    change = np.sign(self.delta - delta_at_start)
                    self.radius_events.append(int(change))
        except _OutOfBudget:
            exit_flag = EXIT_BUDGET
        except _Terminate as stop:
            exit_flag = stop.flag
        return self._results(exit_flag)

    def _iterate(self):
        self.iter_count += 1
        self.k_local += 1
        p = self.p
        iset = self.iset

        f_base = iset.base_objective()
        if self._small_objective(f_base):
            raise _Terminate(EXIT_SMALL_OBJECTIVE)

        if (p.noise_level is not None and not self._growing()
                and check_noise_level_termination(iset, p.noise_level)):
            if p.noisy:
                self._request_restart(EXIT_NOISE_LEVEL)
                return
            raise _Terminate(EXIT_NOISE_LEVEL)

        growing = self._growing()
        basis = None
        try:
            if growing:
                lm = build_linear_model(iset, repair_rank=(p.growing == "svd"))
            else:
                lm, basis = fit_model_and_basis(iset)
        except DegenerateSetError:
            self._repair_degenerate()
            return
        self._record_jacobian(lm.J)
        fm = full_model(lm)
        if not (np.all(np.isfinite(fm.g)) and np.all(np.isfinite(fm.H))):
            self._repair_degenerate()
            return

        xk = iset.base_point()
        s = solve_trust_region(fm, self.delta, self.lower - xk, self.upper - xk)
        step_norm = float(np.sqrt(s @ s))

        if self.trace is not None:
            self.trace.append({"iter": self.iter_count, "delta": self.delta,
                               "rho": self.rho, "f": f_base, "n_evals": self.n_evals,
                               "npt": iset.npt})

        if step_norm < p.gamma_safety * self.rho:
            self._safety_phase(growing)
            return

        if growing and p.growing == "perturb":
            directions = np.vstack([np.delete(iset.points, iset.base_index, axis=0) - xk, s])
            try:
                d = orthogonal_complement_direction(directions, self.rng)
                s = s + p.growing_perturb_mult * self.delta * d
            except DegenerateSetError:
                pass

        xnew = self._clip(xk + s)
        rbar, fnew, nsamp = self.evaluate_averaged(xnew)

        pred = fm.decrease(s)
        if not np.isfinite(fnew):
            ratio = -np.inf
        elif pred <= _PRED_DECREASE_TOL * max(1.0, fm.c):
            ratio = -np.inf
        else:
            ratio = (f_base - fnew) / pred

        new_delta, hit_rho = update_radii(ratio, self.delta, self.rho, step_norm, p)
        self.delta = new_delta

        if rbar is not None and not iset.has_point(xnew):
            if growing:
                t = iset.npt
            else:
                t = choose_point_to_replace(iset, basis, xnew, xk, self.delta)
            iset.put(t, xnew, rbar, nsamp)
            iset.rebase()

        if growing:
            return  # growing phase: no removals, rho unchanged

        if ratio >= p.eta1:
            self.success_f.append(iset.base_objective())
            if p.multi_move != "nothing" and p.p > self.n:
                self._multi_move(s)
            if check_slow_decrease(self.success_f, p.slow):
                self._request_restart(EXIT_SLOW_PROGRESS)
            return

        if (p.noisy and p.restarts.enabled and p.restarts.autodetect
                and auto_detect_restart(self.radius_events, self.jac_history, p.restarts)):
            self._request_restart(EXIT_SLOW_PROGRESS)
            return

        if needs_geometry_improvement(iset, iset.base_point(), self._geom_epsilon()):
            self._improve_geometry(self.delta)
            return

        # Unsuccessful phase: reduce the lower radius once delta has hit it.
        if hit_rho:
            self._reduce_rho()

    def _safety_phase(self, growing):
        if growing:
            self._growing_safety()
            return
        self.delta = max(self.rho, self.p.omega_safety * self.delta)
        self._improve_geometry(self.delta)
        if self.delta <= self.rho:
            self._reduce_rho()

    def _results(self, exit_flag):
        diagnostics = {
            "iterations": self.iter_count,
            "n_restarts": self.n_restarts,
            "delta": self.delta,
            "rho": self.rho,
        }
        if self.trace is not None:
            diagnostics["trace"] = self.trace
        return Results(x=self.best_x if self.best_x is not None else self.x0.copy(),
                       f=self.best_f, n_evals=self.n_evals,
                       exit_flag=exit_flag, diagnostics=diagnostics)


def solve(residuals, x0, bounds=None, params=None, seed=None, rng=None,
          eval_hook=None, record_trace=False):
    """Minimize ||residuals(x)||^2 over an optional box, derivative-free.

    Parameters
    ----------
    residuals : callable mapping a point in R^n to a 1-D residual vector in R^m.
    x0 : finite starting point (clipped into the bounds if needed).
    bounds : optional (lower, upper) pair of vectors or scalars; a None side
        is unbounded, and a NaN bound raises a ValueError. Variables
        with lower == upper are fixed: the solver works in the free
        coordinates only, and when every variable is fixed it evaluates x0
        once and returns with exit flag "small_trust_region".
    params : SolverParams; omitted fields get smooth or noisy defaults.
    seed, rng : seed the solver's random stream (ignored when rng is given).
    eval_hook : optional callable (n_evals, x, f_observed, n_samples) invoked
        after every averaged evaluation, with x in original coordinates.
    record_trace : keep a per-iteration trace in Results.diagnostics.

    Returns a Results with the best point evaluated (across restarts), its
    observed objective value, the evaluation count and the exit flag.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be finite, got {x0}")
    if params is None:
        params = SolverParams()
    if rng is None:
        rng = np.random.default_rng(seed)

    lower, upper = _bounds_arrays(bounds, x0.size)
    if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
        raise ValueError(f"bounds must not be NaN, got {bounds}")
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")
    x0 = np.clip(x0, lower, upper)

    maps = []  # solver coordinates -> caller coordinates, innermost first
    fun = residuals
    free = lower < upper
    if not np.all(free):
        if not np.any(free):
            return _evaluate_fixed_point(residuals, x0, eval_hook)
        fun, to_full = _fix_variables(residuals, x0, free)
        x0, lower, upper = x0[free], lower[free], upper[free]
        maps.append(to_full)
    n = x0.size
    if params.scale_variables:
        fun, x0, to_original, _ = apply_variable_scaling(fun, x0, lower, upper)
        lower = np.zeros(n)
        upper = np.ones(n)
        maps.insert(0, to_original)

    def to_caller(z):
        for to_outer in maps:
            z = to_outer(z)
        return z

    if eval_hook is not None and maps:
        inner_hook = eval_hook

        def eval_hook(n_evals, z, fbar, nsamp):
            inner_hook(n_evals, to_caller(z), fbar, nsamp)

    rp = resolve_params(params, n, float(np.max(np.abs(x0))) if n else 1.0,
                        box_width=float(np.min(upper - lower, initial=np.inf)))
    loop = _Loop(fun, x0, lower, upper, rp, rng, eval_hook, record_trace)
    # Overflowing models and +inf objective values are handled by rejection,
    # not exceptions, so the numpy warnings carry no information here.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        results = loop.run()
    results.x = to_caller(results.x)
    return results


def _evaluate_fixed_point(residuals, x, eval_hook):
    """Every variable is fixed (lower == upper): one evaluation is the solve."""
    r = _residual_array(residuals(x))
    f = float(r @ r)
    if not np.isfinite(f):
        raise RuntimeError("objective evaluation failed at the starting point")
    if eval_hook is not None:
        eval_hook(1, x.copy(), f, 1)
    return Results(x=x, f=f, n_evals=1, exit_flag=EXIT_SMALL_TRUST_REGION,
                   diagnostics={"iterations": 0, "n_restarts": 0})
