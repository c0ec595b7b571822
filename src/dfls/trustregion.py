"""Bound-constrained trust-region subproblem with a guaranteed Cauchy decrease.

The quadratic model here always has a positive-semidefinite Hessian (it comes
from a Gauss-Newton construction), so a projected truncated conjugate-gradient
refinement of the Cauchy point is enough. Every returned step is checked
against the decrease bound

    m(0) - m(s) >= 0.5 ||g|| min(delta, ||g|| / max(||H||, 1)),

and the module keeps counters so a whole benchmark run can be audited for
violations afterwards.

The exact spectral norm ||H|| enters only two tests, the Cauchy point's
degenerate-curvature test and the bound above, and each is monotone in it.
Both are first decided from certified bounds on ||H|| that cost O(n^2); the
eigendecomposition runs only when a bound cannot decide, and the test is then
repeated with the exact norm, so steps and audit outcomes are those of the
exact test.
"""

import math

import numpy as np

__all__ = ["solve_trust_region", "cauchy_point", "contract_stats", "reset_contract_stats"]

_FEAS_TOL = 1e-12

# Decrease-contract audit counters (per process).
_STATS = {"checks": 0, "violations": 0, "exact_norms": 0}


def contract_stats():
    return dict(_STATS)


def reset_contract_stats():
    for key in _STATS:
        _STATS[key] = 0


def _bounds(lower, upper, n):
    lo = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    up = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    return lo, up


def _max_feasible_step(s, d, delta, lower, upper, box=True):
    """Largest t >= 0 with s + t d inside the ball and the box."""
    dd = float(d @ d)
    if dd == 0.0:
        return 0.0
    # Ball: ||s + t d|| = delta.
    sd = float(s @ d)
    ss = float(s @ s)
    disc = sd * sd + dd * (delta * delta - ss)
    t_ball = (-sd + np.sqrt(max(disc, 0.0))) / dd if disc > 0.0 else 0.0
    if not box:
        return max(0.0, t_ball)
    # Box, coordinate-wise; inactive directions contribute +inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        t_up = np.where(d > 0, (upper - s) / d, np.inf)
        t_lo = np.where(d < 0, (lower - s) / d, np.inf)
    t_box = min(np.min(t_up), np.min(t_lo))
    return max(0.0, min(t_ball, t_box))


def cauchy_point(model, delta, lower=None, upper=None, hnorm=None):
    """Exact line search along -g truncated by the ball and the box.

    The computed directional curvature d.H.d can round to zero or negative
    when H mixes huge magnitudes (ill-conditioned interpolation sets); in
    that regime the spectral norm of H, which is computed stably, bounds the
    curvature instead so the step can never increase the model. hnorm is the
    _HessianNorm of model.H along d = -g/||g|| (built here when omitted).
    """
    g = model.g
    n = g.size
    lo, up = _bounds(lower, upper, n)
    gnorm = np.sqrt(float(g @ g))
    if gnorm == 0.0:
        return np.zeros(n)
    d = -g / gnorm
    if hnorm is None:
        hnorm = _HessianNorm(model.H, d)
    box = not (np.all(np.isinf(lo)) and np.all(np.isinf(up)))
    t_max = _max_feasible_step(np.zeros(n), d, delta, lo, up, box=box)
    curv = hnorm.curv
    # curv > 1e-8 * upper implies curv > 1e-8 ||H||; only the other case
    # needs the exact norm, to decide the test or to bound the curvature.
    if curv > 1e-8 * hnorm.upper and curv > 0.0:
        t_opt = gnorm / curv
    elif curv > 1e-8 * hnorm.exact() and curv > 0.0:
        t_opt = gnorm / curv
    elif hnorm.exact() > 0.0:
        t_opt = gnorm / hnorm.exact()  # conservative curvature bound
    else:
        t_opt = np.inf
    t = min(t_opt, t_max)
    return t * d


def _spectral_norm(H):
    # H is symmetric PSD, so the spectral norm is the top eigenvalue.
    if H.shape[0] == 1:
        return abs(float(H[0, 0]))
    return float(np.linalg.eigvalsh(H)[-1])


class _HessianNorm:
    """Certified bounds lower <= ||H|| <= upper, and ||H|| itself on demand.

    d is a unit vector (-g/||g||). lower is ||d^T H||, taken from the product
    that also gives the curvature d.H.d (evaluated as (d @ H) @ d, as the
    Cauchy point always did); upper is the largest absolute row sum of H.
    Each carries a 4(n+4) eps margin for the rounding of both norms and of
    eigvalsh. exact() runs the eigendecomposition once, counts it, and then
    serves as both bounds; non-finite bounds get it at once.
    """

    def __init__(self, H, d):
        margin = 4.0 * (d.size + 4) * _EPS
        dH = d @ H
        self.H = H
        self.curv = float(dH @ d)
        self.lower = math.sqrt(float(dH @ dH)) * (1.0 - margin)
        self.upper = float(np.abs(H).sum(axis=1).max()) * (1.0 + margin)
        self._exact = None
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            self.exact()

    def exact(self):
        if self._exact is None:
            self._exact = _spectral_norm(self.H)
            self.lower = self.upper = self._exact
            _STATS["exact_norms"] += 1
        return self._exact


def _cg_ball_only(model, s0, delta, max_iter):
    """Steihaug truncated CG inside the ball (no box constraints)."""
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


def _projected_cg(model, s0, delta, lower, upper, max_iter):
    """Truncated CG from s0 on the free coordinates, restarting at box hits.

    Monotone in the model value; stops at the ball boundary (Steihaug rule)
    or after max_iter total CG iterations.
    """
    H = model.H
    g = model.g
    n = g.size
    s = s0.copy()
    tol_lo = np.where(np.isfinite(lower), _FEAS_TOL * np.maximum(1.0, np.abs(lower)), 0.0)
    tol_up = np.where(np.isfinite(upper), _FEAS_TOL * np.maximum(1.0, np.abs(upper)), 0.0)
    iters = 0
    for _ in range(n + 1):
        grad = g + H @ s
        at_lo = s <= lower + tol_lo
        at_up = s >= upper - tol_up
        fixed = (at_lo & (grad >= 0)) | (at_up & (grad <= 0))
        free = ~fixed
        if not np.any(free) or iters >= max_iter:
            break
        r = -grad.copy()
        r[fixed] = 0.0
        if np.linalg.norm(r) <= 1e-14 * max(1.0, np.linalg.norm(g)):
            break
        d = r.copy()
        rr = float(r @ r)
        hit_box = False
        while iters < max_iter:
            iters += 1
            Hd = H @ d
            dHd = float(d @ Hd)
            t_max = _max_feasible_step(s, d, delta, lower, upper)
            if dHd <= 1e-15 * float(d @ d):
                t = t_max
            else:
                t = min(rr / dHd, t_max)
            if t <= 0.0:
                break
            s = s + t * d
            if t >= t_max - 1e-15 * max(1.0, t_max):
                # Hit the ball or a box face; if a box face, fix and restart.
                if np.linalg.norm(s) >= delta * (1.0 - 1e-12):
                    return s
                hit_box = True
                break
            r = r - t * Hd
            r[fixed] = 0.0
            rr_new = float(r @ r)
            if rr_new <= 1e-28 * max(1.0, float(g @ g)):
                break
            d = r + (rr_new / rr) * d
            d[fixed] = 0.0
            rr = rr_new
        if not hit_box:
            break
    return s


def solve_trust_region(model, delta, lower=None, upper=None):
    """Approximate minimizer of the model over the ball intersected with the box.

    The step starts from the Cauchy point and is refined by projected
    truncated CG (at most 2n iterations), so the Cauchy decrease bound holds;
    it is verified on every call and an AssertionError is raised on violation.
    Returns the zero step when the model gradient vanishes.
    """
    if delta <= 0.0:
        raise ValueError("need delta > 0")
    g = model.g
    n = g.size
    lo, up = _bounds(lower, upper, n)
    if np.any(lo > _FEAS_TOL) or np.any(up < -_FEAS_TOL):
        raise ValueError("bounds must contain the origin (shift to the current iterate)")
    lo = np.minimum(lo, 0.0)
    up = np.maximum(up, 0.0)
    gnorm = np.sqrt(float(g @ g))
    if gnorm == 0.0:
        return np.zeros(n)

    d = -g / gnorm
    hnorm = _HessianNorm(model.H, d)
    unconstrained = bool(np.all(np.isinf(lo)) and np.all(np.isinf(up)))
    # With bounds, the reachable length along -g caps the decrease any step
    # can achieve; without bounds this is exactly the ball radius.
    if unconstrained:
        t_reach = delta
    else:
        t_reach = _max_feasible_step(np.zeros(n), d, delta, lo, up)
    s_c = _finalize(cauchy_point(model, delta, lo, up, hnorm=hnorm), lo, up, delta)
    if unconstrained:
        s = _cg_ball_only(model, s_c, delta, max_iter=2 * n)
    else:
        s = _projected_cg(model, s_c, delta, lo, up, max_iter=2 * n)
    s = _finalize(s, lo, up, delta)

    # Keep the CG refinement only when its decrease verifiably beats the
    # Cauchy step and the bound; the evaluation of the decrease itself is
    # noise-limited for the huge near-singular models an ill-conditioned
    # interpolation set can produce, while the Cauchy step always evaluates
    # cleanly (its products stay at the scale of the bound).
    cg = _decrease(model, s, gnorm)
    cauchy = _decrease(model, s_c, gnorm)
    bound, keep_cg, passes = _certified_audit(gnorm, t_reach, hnorm, cg, cauchy)

    _STATS["checks"] += 1
    if not passes:
        _STATS["violations"] += 1
        decrease = (cg if keep_cg else cauchy)[0]
        raise AssertionError(
            "trust-region step failed the Cauchy decrease bound: "
            f"decrease={decrease:.6e} bound={bound:.6e}"
        )
    return s if keep_cg else s_c


def _finalize(s, lo, up, delta):
    # Exact feasibility clean-up; scaling towards the origin stays in the box.
    s = np.clip(s, lo, up)
    snorm = np.sqrt(float(s @ s))
    if snorm > delta:
        s = s * (delta / snorm)
    return s


_EPS = float(np.finfo(float).eps)


def _cauchy_bound(gnorm, t_reach, hnorm):
    return 0.5 * gnorm * min(t_reach, gnorm / max(hnorm, 1.0))


def _decrease(model, s, gnorm):
    """Model decrease at s and the rounding error of its evaluation.

    The error is the cancellation error of the two dot products; _audit adds
    the allowance for exact-equality cases (isotropic H) at the scale of the
    bound.
    """
    Hs = model.H @ s
    gs = float(model.g @ s)
    sHs = float(s @ Hs)
    decrease = -gs - 0.5 * sHs
    n = s.size
    snorm = np.sqrt(float(s @ s))
    cancel = gnorm * snorm + 0.5 * snorm * np.sqrt(float(Hs @ Hs))
    return decrease, 8.0 * (n + 4) * _EPS * cancel


def _audit(bound, cg, cauchy):
    """(keep the CG step, the kept step passes) for one bound.

    cg and cauchy are the (decrease, rounding error) pairs of the two steps.
    """
    def threshold(rounding):
        return bound - (1e-12 * max(1.0, abs(bound)) + rounding)

    keep_cg = cg[0] >= cauchy[0] and cg[0] >= threshold(cg[1])
    decrease, rounding = cg if keep_cg else cauchy
    return keep_cg, not decrease < threshold(rounding)


def _certified_audit(gnorm, t_reach, hnorm, cg, cauchy):
    """_audit at the exact ||H||, decided from hnorm.lower when that can.

    The lower bound on ||H|| gives a bound no smaller than the exact one, and
    both tests get harder as the bound grows. So an outcome that passes and
    keeps CG, or passes and falls back because CG loses to the Cauchy step
    outright, is the exact test's outcome too; otherwise ||H|| decides.
    Returns (bound, keep the CG step, the kept step passes).
    """
    bound = _cauchy_bound(gnorm, t_reach, hnorm.lower)
    keep_cg, passes = _audit(bound, cg, cauchy)
    if not (passes and (keep_cg or cg[0] < cauchy[0])):
        bound = _cauchy_bound(gnorm, t_reach, hnorm.exact())
        keep_cg, passes = _audit(bound, cg, cauchy)
    return bound, keep_cg, passes
