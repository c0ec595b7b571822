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
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .linalg import (
    RANK_TOL,
    DegenerateSetError,
    linear_fit,
    orthogonal_complement_direction,
    random_unit,
)
from .model import (
    InterpolationSet,
    _bounds_arrays,
    build_initial_set,
    choose_point_to_replace,
    fit_model_and_basis,
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
_START_FAILED = "objective evaluation failed at the starting point"


@dataclass
class Results:
    """Solver output: best point found, its observed objective value, and counters.

    diagnostics["eval_failures"] counts failed evaluations by exception type
    name or "nonfinite"; diagnostics["refactorizations"] the run's
    interpolation factorizations by cause (InterpolationSet.refactorizations:
    full sets' causes, then growing sets' as "growing_<cause>").
    """

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

    Each |f(y_t) - f(x_k)| is compared with scale * level / sqrt(N_t) in
    additive mode and with scale * level * |f(x_k)| / sqrt(N_t) in
    multiplicative mode. A zero base value makes the multiplicative mode fall
    back to the additive comparison.
    """
    fvals = iset.objective_values()
    fk = iset.base_objective()
    size = abs(fk) if cfg.multiplicative and fk != 0.0 else 1.0
    thresholds = cfg.scale * cfg.level * size / np.sqrt(iset.sample_counts)
    dev = np.abs(fvals - fk)
    dev[iset.base_index] = -np.inf
    return not np.any(dev > thresholds)


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


def _unit_cube_maps(lower, upper):
    """(to_original, to_unit) between a finite box of positive widths and [0, 1]^n."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("variable scaling requires finite bounds")
    span = upper - lower
    if np.any(span <= 0.0):
        raise ValueError("variable scaling requires upper > lower")

    def to_original(u):
        return lower + np.asarray(u, dtype=float) * span

    def to_unit(x):
        return (np.asarray(x, dtype=float) - lower) / span

    return to_original, to_unit


def _with_fixed(x, free, to_original, z):
    """The caller's point for solver point z: x with its free coordinates set to z
    (mapped through to_original when the free coordinates are scaled)."""
    out = x.copy()
    out[free] = z if to_original is None else to_original(z)
    return out


def _residual_array(value):
    """The residual as a contiguous float vector; any other shape is a ValueError."""
    r = np.array(value, dtype=float, copy=None, order="C")
    if r.ndim != 1:
        raise ValueError(f"residuals must return a 1-D array, got shape {r.shape}")
    return r


def _finite_model(lm):
    """The loop's one finiteness test of a fitted model.

    A non-finite r or J shows in g, or in ||H||. The bound hnorm_bound()
    decides cheaply when it is finite; since 2 ||J||_F^2 can overflow where
    every entry of 2 J^T J is finite, an overflowing bound is settled by the
    exact hnorm(), which overflows, or is nan, only when ||H|| itself is out
    of range.
    """
    if not np.isfinite(lm.g).all():
        return False
    if math.isfinite(lm.hnorm_bound()):
        return True
    try:
        return math.isfinite(lm.hnorm())
    except np.linalg.LinAlgError:
        return False


class _Loop:
    """State and phases of one solver run (single-threaded, owns all state).

    to_caller maps solver points to the caller's coordinates where they are
    evaluated; None when the two coincide. bounds is (lower, upper), or None
    when no bound is finite: then nothing is clipped and no box is tested.
    """

    def __init__(self, fun, x0, lower, upper, params, rng, eval_hook, record_trace,
                 to_caller=None):
        self.fun = fun
        self.to_caller = to_caller
        self.x0 = np.asarray(x0, dtype=float)
        self.n = self.x0.size
        finite = np.isfinite(lower).any() or np.isfinite(upper).any()
        self.bounds = (lower, upper) if finite else None
        self.p = params
        self.rng = rng
        self.eval_hook = eval_hook

        self.nsamples = nsamples_policy(params.nsamples)
        # Only the restart autodetection reads the Jacobian history.
        self.autodetect = params.noisy and params.restarts.enabled and params.restarts.autodetect
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
        # The set filled by growing and no safety phase has found it within
        # epsilon since: growing steps move no point, so some may lie far out.
        self.handoff = False
        self.prev_J = None
        self.radius_events = []    # -1 / 0 / +1 per iteration since restart
        self.jac_history = []      # (iteration, log ||J_k - J_{k-1}||_F)
        self.success_f = []        # objective at successful iterations
        self.trace = [] if record_trace else None
        self.eval_failures = Counter()
        self.last_error = None     # the latest exception an evaluation raised

    # -- evaluation ---------------------------------------------------------

    def _eval_once(self, fun, *args):
        """fun(*args) as a residual, or None (counted) when it raised or is not finite."""
        try:
            value = fun(*args)
        except Exception as exc:
            logger.debug("objective evaluation raised; treating value as +inf", exc_info=True)
            self.eval_failures[type(exc).__name__] += 1
            self.last_error = exc
            return None
        r = _residual_array(value)
        if not np.isfinite(r).all():
            self.eval_failures["nonfinite"] += 1
            return None
        return r

    def evaluate_averaged(self, x):
        """Mean of N residual samples at x; every sample counts against the budget.

        Returns (rbar, fbar, N) with fbar = +inf when any sample failed.
        Raises _OutOfBudget before evaluating when no budget remains; N is
        truncated to the remaining budget otherwise.
        """
        if self.to_caller is not None:
            x = self.to_caller(x)
        remaining = self.p.max_evals - self.n_evals
        if remaining <= 0:
            raise _OutOfBudget()
        n_req = max(1, int(self.nsamples(self.rho, self.delta, self.k_local, self.n_restarts)))
        n_use = min(n_req, remaining)
        self.n_evals += n_use
        batch = getattr(self.fun, "sample_mean", None) if n_use > 1 else None
        if batch is not None:
            rbar = self._eval_once(batch, x, n_use)
        else:
            samples = [self._eval_once(self.fun, x) for _ in range(n_use)]
            if any(r is None for r in samples):
                rbar = None
            else:
                rbar = samples[0] if n_use == 1 else sum(samples[1:], samples[0]) / n_use
        if rbar is None:
            self.consecutive_failures += 1
            if self.consecutive_failures > _MAX_CONSECUTIVE_FAILURES:
                raise RuntimeError("persistent objective evaluation failure")
            return None, np.inf, n_use
        self.consecutive_failures = 0
        fbar = float(rbar.dot(rbar))
        if fbar < self.best_f:
            self.best_f = fbar
            self.best_x = np.asarray(x, dtype=float).copy()
        if self.eval_hook is not None:
            self.eval_hook(self.n_evals, np.asarray(x, dtype=float), fbar, n_use)
        return rbar, fbar, n_use

    # -- helpers ------------------------------------------------------------

    def _clip(self, x):
        return x if self.bounds is None else np.clip(x, *self.bounds)

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
        self.prev_J = J  # each fit returns a fresh J, and nothing writes to it

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
        self.iset = build_initial_set(self.x0, self.p.delta0, self.p.p_init, self.bounds,
                                      self.rng)
        rbar, fbar, nsamp = self.evaluate_averaged(self.iset.points[0].copy())
        if rbar is None:
            raise RuntimeError(_START_FAILED) from self.last_error
        self.iset.set_value(0, rbar, nsamp)
        self.f0_observed = fbar
        self._fill_initial_values(self.iset)

    def _fill_initial_values(self, iset):
        """Evaluate points 1.. of a fresh set around its valued point 0, then rebase.

        A failed point is retried at flipped and shrunk steps: wide initial
        radii can push points into regions where the residuals overflow, and
        the replacement steps keep the set affinely independent.
        """
        x0 = iset.points[0]
        for t in range(1, iset.npt):
            step = iset.points[t] - x0
            candidates = [iset.points[t].copy()]
            for frac in (-1.0, 0.5, -0.5, 0.25, -0.25, 0.05, -0.05):
                candidates.append(self._clip(x0 + frac * step))
            for y in candidates:
                if iset.has_point(y, skip=t):
                    continue
                rbar, fbar, nsamp = self.evaluate_averaged(y)
                if rbar is not None:
                    iset.put(t, y, rbar, nsamp)
                    break
            else:
                raise RuntimeError("objective evaluation failed while building the initial set")
        iset.rebase()

    def _geometry_point(self, t, center, radius):
        """Maximizer of |L_t| over the ball B(center, radius) within the box.

        On a degenerate set, which has no Lagrange basis, this is a random
        step of length radius from center, clipped to the box.
        """
        try:
            basis = lagrange_basis(self.iset)
        except DegenerateSetError:
            return self._clip(center + radius * random_unit(self.rng, self.n))
        return geometry_point(basis, t, center, radius, self.bounds, self.rng)

    def _improve_geometry(self):
        """Move the point furthest from the base to a geometry-improving spot.

        When that spot fails to evaluate, a random step of the same length
        replaces it: the set, delta and rho would otherwise stay as they were,
        and the next iteration would propose the same points again.
        """
        t = self.iset.furthest_index()
        y = self._geometry_point(t, self.iset.base_point(), self.delta)
        if self._move_point(t, y) is False:
            self._repair_degenerate()

    def _move_point(self, t, y):
        """Evaluate y and put it at slot t (t == npt appends), then rebase.

        Returns True when y was put, False when its evaluation failed (the set
        is unchanged), and None for a duplicate of a set point, which is
        skipped unevaluated.
        """
        if self.iset.has_point(y):
            return None
        rbar, fbar, nsamp = self.evaluate_averaged(y)
        if rbar is None:
            return False
        self.iset.put(t, y, rbar, nsamp)
        self.iset.rebase()
        return True

    def _repair_degenerate(self):
        """Replace the furthest point with a random direction step from the base."""
        t = self.iset.furthest_index()
        d = random_unit(self.rng, self.n)
        self._move_point(t, self._clip(self.iset.base_point() + self.delta * d))

    def _growing_safety(self, hull):
        """Append a point delta from the base along a direction orthogonal to hull."""
        xk = self.iset.base_point()
        for _ in range(10):
            try:
                d = orthogonal_complement_direction(hull, self.rng)
            except DegenerateSetError:
                d = random_unit(self.rng, self.n)
            if self._move_point(self.iset.npt, self._clip(xk + self.delta * d)) is not None:
                return

    def _perturb(self, hull, s):
        """s plus growing_perturb_mult * delta times a random unit direction orthogonal
        to s and to the columns of hull; s itself when they span R^n.

        s's component q off span(hull) is projected twice: after one pass a q
        barely above RANK_TOL ||s|| still leans into span(hull) by rounding."""
        q = s - hull.dot(hull.T.dot(s))
        if math.sqrt(float(q.dot(q))) > RANK_TOL * math.sqrt(float(s.dot(s))):
            q -= hull.dot(hull.T.dot(q))
            hull = np.column_stack([hull, q / math.sqrt(float(q.dot(q)))])
        try:
            d = orthogonal_complement_direction(hull, self.rng)
        except DegenerateSetError:
            return s
        return s + self.p.growing_perturb_mult * self.delta * d

    def _multi_move(self, step):
        """Move the furthest points after a successful regression-mode step."""
        mech = self.p.multi_move
        count = min(self.p.multi_move_count, self.iset.npt - 1)
        xk = self.iset.base_point()
        for _ in range(count):
            t = self.iset.furthest_index()
            if mech == "geometry":
                y = self._geometry_point(t, xk, self.delta)
            else:  # momentum
                y = self._momentum_point(xk, step)
                if y is None:
                    return
            self._move_point(t, y)

    def _momentum_point(self, xk, step):
        """x_{k+1} + delta d with random unit d, d.step > 0, clipped to the box."""
        def box_step(d):
            return min(_max_feasible_step(xk, d, np.inf, self.bounds), self.delta)

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
        else:
            self._soft_restart(move_base=(kind == "soft_moving"))

    def _hard_restart(self):
        """Rebuild the whole set around the current base, like the initial set."""
        old = self.iset
        fresh = build_initial_set(old.base_point(), self.p.delta0, self.p.p, self.bounds,
                                  self.rng)
        fresh.set_value(0, old.base_value(), old.sample_counts[old.base_index])
        # The run's counts go on.
        fresh.refactorizations = old.refactorizations
        self._fill_initial_values(fresh)
        self.iset = fresh

    def _soft_restart(self, move_base):
        """Move the points nearest the base to geometry spots in the inflated ball."""
        iset = self.iset
        old_base = iset.base_index
        dist = np.linalg.norm(iset.points - iset.base_point(), axis=1)
        dist[old_base] = np.inf
        n_move = min(self.p.restarts.n_move, iset.npt - 1)
        targets = np.argsort(dist, kind="stable")[:max(n_move - move_base, 0)].tolist()
        if move_base:
            targets.insert(0, old_base)
        moved = []
        for t in targets:
            # The center is the base slot: moved first when move_base is set.
            y = self._restart_geometry_point(t, iset.points[old_base])
            rbar, fbar, nsamp = self.evaluate_averaged(y)
            if rbar is not None:
                iset.put(t, y, rbar, nsamp)
                moved.append(t)
        if move_base and moved:
            # Continue from the best of the moved points, even if it is worse
            # than the point the previous iteration ended at.
            fvals = iset.objective_values()
            iset.set_base(moved[int(np.argmin(fvals[moved]))])
        else:
            iset.rebase()

    def _restart_geometry_point(self, t, center):
        y = self._geometry_point(t, center, self.p.delta0)
        if self.iset.has_point(y):
            d = random_unit(self.rng, self.n)
            y = self._clip(center + self.p.delta0 * self.rng.uniform(0.5, 1.0) * d)
        return y

    # -- main loop ----------------------------------------------------------

    def run(self):
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
        if self.trace is not None:
            # One entry per iteration, taken before anything in it moves.
            self.trace.append({"iter": self.iter_count, "delta": self.delta,
                               "rho": self.rho, "f": f_base, "n_evals": self.n_evals,
                               "npt": iset.npt})
        if self._small_objective(f_base):
            raise _Terminate(EXIT_SMALL_OBJECTIVE)

        if (p.noise_level is not None and not self._growing()
                and check_noise_level_termination(iset, p.noise_level)):
            if p.noisy:
                self._request_restart(EXIT_NOISE_LEVEL)
                return
            raise _Terminate(EXIT_NOISE_LEVEL)

        growing = self._growing()
        try:
            lm, basis = fit_model_and_basis(iset, repair_rank=(p.growing == "svd"))
        except DegenerateSetError:
            self._repair_degenerate()
            return
        if not _finite_model(lm):
            self._repair_degenerate()
            return
        if self.autodetect:
            self._record_jacobian(lm.J)

        xk = iset.base_point()
        if self.bounds is None:
            s = solve_trust_region(lm, self.delta)
        else:
            s = solve_trust_region(lm, self.delta, self.bounds[0] - xk, self.bounds[1] - xk)
        step_norm = math.sqrt(float(s.dot(s)))

        if step_norm < p.gamma_safety * self.rho:
            self._safety_phase(lm.hull() if growing else None)
            return

        if growing and p.growing == "perturb":
            s = self._perturb(lm.hull(), s)

        xnew = self._clip(xk + s)
        rbar, fnew, nsamp = self.evaluate_averaged(xnew)

        pred = lm.decrease(s)
        if not np.isfinite(fnew):
            ratio = -np.inf
        elif pred <= _PRED_DECREASE_TOL * max(1.0, lm.c):
            ratio = -np.inf
        else:
            ratio = (f_base - fnew) / pred

        new_delta, hit_rho = update_radii(ratio, self.delta, self.rho, step_norm, p)
        self.delta = new_delta
        # A step that failed to evaluate counts as delta reaching rho: a noisy
        # solve's gentle radius factors would otherwise spend many evaluations
        # in a region where the residuals fail.
        hit_rho = hit_rho or rbar is None

        if rbar is not None and not iset.has_point(xnew):
            if growing:
                t = iset.npt
            else:
                t = choose_point_to_replace(iset, basis, xnew, self.delta)
            iset.put(t, xnew, rbar, nsamp)
            iset.rebase()

        if growing:
            self.handoff = not self._growing()
            return  # growing phase: no removals, rho unchanged

        if ratio >= p.eta1:
            self.success_f.append(iset.base_objective())
            if p.multi_move != "nothing" and p.p > self.n:
                self._multi_move(s)
            if check_slow_decrease(self.success_f, p.slow):
                self._request_restart(EXIT_SLOW_PROGRESS)
            return

        if self.autodetect and auto_detect_restart(self.radius_events, self.jac_history,
                                                   p.restarts):
            self._request_restart(EXIT_SLOW_PROGRESS)
            return

        if needs_geometry_improvement(iset, self._geom_epsilon()):
            self._improve_geometry()
            return

        # Unsuccessful phase: reduce the lower radius once delta has hit it.
        if hit_rho:
            self._reduce_rho()

    def _safety_phase(self, hull):
        """Growing: append a point. Full: move the furthest point, then reduce rho once
        delta is down to it, except while a set that just filled by growing has a
        point beyond the epsilon of the radii this iteration started with (the
        unsuccessful branch's geometry test)."""
        if hull is not None:
            self._growing_safety(hull)
            self.handoff = not self._growing()
            return
        far = self.handoff and needs_geometry_improvement(self.iset, self._geom_epsilon())
        self.delta = max(self.rho, self.p.omega_safety * self.delta)
        self._improve_geometry()
        if far:
            return
        self.handoff = False
        if self.delta <= self.rho:
            self._reduce_rho()

    def _results(self, exit_flag):
        diagnostics = {
            "iterations": self.iter_count,
            "n_restarts": self.n_restarts,
            "delta": self.delta,
            "rho": self.rho,
            "eval_failures": dict(self.eval_failures),
            "refactorizations": dict(self.iset.refactorizations),
        }
        if self.trace is not None:
            diagnostics["trace"] = self.trace
        x0 = self.x0 if self.to_caller is None else self.to_caller(self.x0)
        return Results(x=self.best_x if self.best_x is not None else x0.copy(), f=self.best_f,
                       n_evals=self.n_evals, exit_flag=exit_flag, diagnostics=diagnostics)


def solve(residuals, x0, bounds=None, params=None, seed=None, eval_hook=None,
          record_trace=False):
    """Minimize ||residuals(x)||^2 over an optional box, derivative-free.

    Parameters
    ----------
    residuals : callable mapping a point in R^n to a 1-D residual vector in R^m.
    x0 : finite, non-empty 1-D starting point (clipped into the bounds if
        needed); any other x0 is a ValueError that names x0.
    bounds : optional (lower, upper) pair; each side is None (unbounded), a
        scalar or a vector of x0's length; any other length, or a NaN, is a
        ValueError that names bounds.
        Variables with lower == upper are fixed: the solver works in the
        free coordinates only, and when every variable is fixed it evaluates
        x0 once and returns with exit flag "small_trust_region".
    params : SolverParams; omitted fields get smooth or noisy defaults.
    seed : None, an int, a SeedSequence or a Generator (used as is) for the
        solver's random stream, through np.random.default_rng.
    eval_hook : optional callable (n_evals, x, f_observed, n_samples) invoked
        after every averaged evaluation.
    record_trace : keep a per-iteration trace in Results.diagnostics.

    Fixed and scaled variables are mapped back where residuals are evaluated,
    so residuals (and its sample_mean), eval_hook and Results.x all see the
    caller's coordinates. A residual failing at x0 raises a RuntimeError
    chained from the residual's exception, if it raised one.

    Returns a Results with the best point evaluated (across restarts), its
    observed objective value, the evaluation count and the exit flag.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError(f"x0 must be a non-empty 1-D array, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be finite, got {x0}")
    if params is None:
        params = SolverParams()

    lower, upper = _bounds_arrays(bounds, x0.size)
    if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
        raise ValueError(f"bounds must not be NaN, got {bounds}")
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")
    x0 = np.clip(x0, lower, upper)

    free = lower < upper
    if not np.any(free):
        return _evaluate_fixed_point(residuals, x0, eval_hook)
    x_caller, x0, lower, upper = x0, x0[free], lower[free], upper[free]
    to_caller = None  # solver -> caller coordinates, applied where residuals are evaluated
    if params.scale_variables:
        to_caller, to_unit = _unit_cube_maps(lower, upper)
        x0, lower, upper = to_unit(x0), np.zeros(x0.size), np.ones(x0.size)
    if not np.all(free):
        to_caller = partial(_with_fixed, x_caller, free, to_caller)

    rp = resolve_params(params, x0.size, float(np.max(np.abs(x0))),
                        box_width=float(np.min(upper - lower)))
    loop = _Loop(residuals, x0, lower, upper, rp, np.random.default_rng(seed), eval_hook,
                 record_trace, to_caller)
    # Overflowing models and +inf objective values are handled by rejection,
    # not exceptions, so the numpy warnings carry no information here.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return loop.run()


def _evaluate_fixed_point(residuals, x, eval_hook):
    """Every variable is fixed (lower == upper): one evaluation is the solve."""
    try:
        value = residuals(x)
    except Exception as exc:
        raise RuntimeError(_START_FAILED) from exc
    r = _residual_array(value)
    f = float(r @ r)
    if not np.isfinite(f):
        raise RuntimeError(_START_FAILED)
    if eval_hook is not None:
        eval_hook(1, x.copy(), f, 1)
    return Results(x=x, f=f, n_evals=1, exit_flag=EXIT_SMALL_TRUST_REGION,
                   diagnostics={"iterations": 0, "n_restarts": 0, "eval_failures": {},
                                "refactorizations": InterpolationSet(x).refactorizations})
