"""Bound-constrained trust-region subproblem with a guaranteed Cauchy decrease.

The quadratic model here always has a positive-semidefinite Hessian: it is
m(s) = ||r + J s||^2 with g = 2 J^T r and H = 2 J^T J (the Gauss-Newton
construction). H is never read as a matrix: the model answers the product
H v (hdot), the curvature v.H.v, a certified upper bound on ||H||
(hnorm_bound) and ||H|| itself (hnorm), from J or from a growing set's
factors (FullModel). When no box face binds and n is at most
EXACT_STEP_MAX_N, the step is the exact minimizer of ||r + J s|| over the
ball, taken from J's thin SVD with Newton's method on the secular equation
(More 1978; More and Sorensen 1983). It works on cond(J), where a CG on H would see cond(J)^2.
Otherwise one truncated conjugate-gradient loop from the Cauchy point serves
the ball and the box alike: Steihaug CG that stops at the ball boundary and,
when a step reaches a box face, holds that coordinate fixed and restarts on
the others (the scheme of Powell's TRSBOX). Every returned step is checked
against the decrease bound

    m(0) - m(s) >= 0.5 ||g|| min(delta, ||g|| / max(||H||, 1)),

and the module keeps counters so a whole benchmark run can be audited for
violations afterwards.

The quantities along d = -g/||g||, the feasible length along d and the
bounds on ||H||, are computed once per step and shared by the Cauchy step,
the CG and the audit. The exact spectral norm ||H|| enters only two tests,
the Cauchy step's degenerate-curvature test and the bound above, and each is
monotone in it. On the SVD path ||H|| is 2 sigma_1^2 exactly. Otherwise both
tests are first decided from certified bounds on ||H||: ||H d|| below and the
model's hnorm_bound above. The model's exact norm is asked for only when a
bound cannot decide, and the test is then repeated with it, so steps and
audit outcomes are those of the exact test.
"""

import math

import numpy as np

from .model import _EPS, _bounds_arrays, _certified

__all__ = ["solve_trust_region", "contract_stats", "reset_contract_stats"]

_FEAS_TOL = 1e-12

# Unbounded steps of models with at most this many variables are the exact
# Gauss-Newton step from J's thin SVD; box steps and larger n run the CG on H.
# Per call the SVD step costs about what the CG costs at n = 12 and 1.8 times
# as much at n = 20, but whole solves at n = 20 still finish sooner on it, and
# at n = 25 they do not (BENCH_exact_step.json).
EXACT_STEP_MAX_N = 20
# The secular-equation Newton iteration stops once ||s(mu)|| <= (1 + tol) delta,
# or after _SECULAR_MAX_ITER iterations.
_SECULAR_TOL = 0.01
_SECULAR_MAX_ITER = 30

# Decrease-contract audit counters (per process).
_STATS = {"checks": 0, "violations": 0, "exact_norms": 0}


def contract_stats():
    return dict(_STATS)


def reset_contract_stats():
    for key in _STATS:
        _STATS[key] = 0


def _face_steps(s, d, lower, upper):
    """Per coordinate, the t >= 0 at which s + t d meets its box face (+inf if never)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d > 0, (upper - s) / d, np.where(d < 0, (lower - s) / d, np.inf))


def _ball_step(sd, dd, ss, delta):
    """The t with ||s + t d|| = delta from sd = s.d, dd = d.d and ss = s.s; 0 if none.

    np.sqrt keeps numpy's division: in the CG dd can underflow to 0.
    """
    disc = sd * sd + dd * (delta * delta - ss)
    return (-sd + np.sqrt(disc)) / dd if disc > 0.0 else 0.0


def _max_feasible_step(s, d, delta, box=None):
    """Largest t >= 0 with s + t d inside the ball and, unless box is None, the box."""
    dd = float(d.dot(d))
    if dd == 0.0:
        return 0.0
    t_ball = _ball_step(float(s.dot(d)), dd, float(s.dot(s)), delta)
    if box is None:
        return max(0.0, t_ball)
    return max(0.0, min(t_ball, float(np.min(_face_steps(s, d, *box)))))


class _Descent:
    """The steepest-descent quantities of one step, computed once.

    gnorm = ||g|| > 0 and d = -g/||g||; box tells whether a box face lies
    strictly inside the ball (otherwise the box cannot bind and the step is
    the ball-only one); t_max is the feasible length along d and t_reach the
    length the decrease bound uses (delta itself without a binding box);
    hnorm is the _HessianNorm of H along d, given ||H|| as exact_hnorm when
    that is already known.
    """

    def __init__(self, model, delta, box, gnorm, exact_hnorm=None):
        self.gnorm = gnorm
        self.d = -model.g / gnorm
        self.box = _binds(box, delta)
        self.t_max = _max_feasible_step(np.zeros(self.d.size), self.d, delta,
                                        box if self.box else None)
        self.t_reach = self.t_max if self.box else delta
        self.hnorm = _HessianNorm(model, self.d, exact_hnorm)


def _binds(box, delta):
    """Whether a face of the box lies strictly inside the ball."""
    return box is not None and bool((box[0] > -delta).any() or (box[1] < delta).any())


def _cauchy_step(descent):
    """Exact line search along d, truncated at t_max.

    The computed directional curvature d.H.d can round to zero or negative
    when H mixes huge magnitudes (ill-conditioned interpolation sets); in
    that regime the spectral norm of H, which is computed stably, bounds the
    curvature instead so the step can never increase the model.
    """
    gnorm, hnorm = descent.gnorm, descent.hnorm
    curv = hnorm.curv
    # curv > 1e-8 * upper implies curv > 1e-8 ||H||; only the other case
    # needs the exact norm, to decide the test or to bound the curvature.
    if curv > 0.0 and (curv > 1e-8 * hnorm.upper or curv > 1e-8 * hnorm.exact()):
        t_opt = gnorm / curv
    elif hnorm.exact() > 0.0:
        t_opt = gnorm / hnorm.exact()  # conservative curvature bound
    else:
        t_opt = np.inf
    return min(t_opt, descent.t_max) * descent.d


class _HessianNorm:
    """Certified bounds lower <= ||H|| <= upper, and ||H|| itself on demand.

    d is a unit vector (-g/||g||) and curv the model's curvature d.H.d. lower
    is ||H d||, less the certified margin for its rounding, and curv is
    d.(H d) from the same product (the model's hdot); upper is
    the model's certified hnorm_bound(). exact() asks the model for hnorm()
    once, counts it, and then serves as both bounds; non-finite bounds get it
    at once. A norm known beforehand (2 sigma_1^2 from J's SVD) is given as
    exact and serves as both bounds from the start; then no product H d is
    taken, and curv is the model's curvature(d), 2 ||J d||^2.
    """

    def __init__(self, model, d, exact=None):
        self.model = model
        self._exact = exact
        if exact is not None:
            self.curv = model.curvature(d)
            self.lower = self.upper = exact
            return
        Hd = model.hdot(d)
        self.curv = float(d.dot(Hd))
        self.lower = _certified(math.sqrt(float(Hd.dot(Hd))), d.size, -1.0)
        self.upper = model.hnorm_bound()
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            self.exact()

    def exact(self):
        if self._exact is None:
            self._exact = self.model.hnorm()
            self.lower = self.upper = self._exact
            _STATS["exact_norms"] += 1
        return self._exact


def _truncated_cg(model, s0, delta, max_iter, bounds=None):
    """Steihaug truncated CG from s0 inside the ball, restarted at box faces.

    With bounds = (lower, upper), coordinates at a face whose gradient points
    out of the box are held fixed, and a step that reaches a face stops on
    it, fixes that coordinate and restarts CG on the others. Stops at the
    ball boundary, on a residual below 1e-14 max(1, ||g||), or after
    max_iter iterations in all. Without bounds the arithmetic is plain
    Steihaug CG with ||s||^2 updated incrementally. H enters only through
    the model's products hdot, so on a growing model every product, and with
    it every residual and direction, lies in span(Q[:, :p+k]).
    """
    hdot = model.hdot
    g = model.g
    s = s0.copy()
    tol = 1e-28 * max(1.0, float(g.dot(g)))
    if bounds is not None:
        lower, upper = bounds
        tol_lo = np.where(np.isfinite(lower), _FEAS_TOL * np.maximum(1.0, np.abs(lower)), 0.0)
        tol_up = np.where(np.isfinite(upper), _FEAS_TOL * np.maximum(1.0, np.abs(upper)), 0.0)
    iters = 0
    while True:
        r = -(g + hdot(s))
        if bounds is not None:
            fixed = ((s <= lower + tol_lo) & (r <= 0)) | ((s >= upper - tol_up) & (r >= 0))
            r[fixed] = 0.0
        rr = float(r.dot(r))
        if rr <= tol:
            return s
        d = r.copy()
        ss = float(s.dot(s))
        while iters < max_iter:
            iters += 1
            Hd = hdot(d)
            dHd = float(d.dot(Hd))
            sd = float(s.dot(d))
            dd = float(d.dot(d))
            t_ball = _ball_step(sd, dd, ss, delta)
            on_ball = dHd <= 1e-15 * dd or rr / dHd >= t_ball
            t = t_ball if on_ball else rr / dHd
            if bounds is not None:
                t_face = _face_steps(s, d, lower, upper)
                k = int(np.argmin(t_face))
                if t_face[k] < t:
                    s += t_face[k] * d
                    s[k] = lower[k] if d[k] < 0 else upper[k]
                    break
            if on_ball:
                return s + t_ball * d
            s += t * d
            ss += t * (2.0 * sd + t * dd)
            r -= t * Hd
            if bounds is not None:
                r[fixed] = 0.0
            rr_new = float(r.dot(r))
            if rr_new <= tol:
                return s
            d = r + (rr_new / rr) * d
            rr = rr_new
        else:
            return s


def _svd_step(J, r, delta):
    """The exact step min ||r + J s|| over ||s|| <= delta from J's thin SVD, and ||H||.

    With J = U diag(sigma) V^T and b = U^T r, singular values below
    sigma_1 m eps dropped, s(mu) = -V diag(sigma / (sigma^2 + mu)) b. The step
    is s(0) when that lies in the ball. Otherwise mu solves the secular
    equation 1/||s(mu)|| = 1/delta by Newton's method (MINPACK lmpar), started
    from the More-Sorensen lower bound ||diag(sigma) b|| / delta - sigma_1^2.
    The secular function is increasing and concave in mu, so the iterates stay
    below the root and ||s(mu)|| falls to delta from above. Iteration stops
    at ||s(mu)|| <= (1 + _SECULAR_TOL) delta, and _finalize scales s(mu) onto
    the ball. s(mu) decreases the model at least as much as the exact step,
    and the model is convex along the ray through s(mu). So the scaled step
    keeps at least 1 / (1 + _SECULAR_TOL) of the exact step's decrease.
    ||H|| = ||2 J^T J|| is 2 sigma_1^2.
    """
    U, sigma, Vt = np.linalg.svd(J, full_matrices=False)
    hnorm = 2.0 * float(sigma[0]) ** 2
    k = int(np.count_nonzero(sigma > sigma[0] * J.shape[0] * _EPS))
    sigma2 = sigma[:k] * sigma[:k]
    sb = sigma[:k] * U[:, :k].T.dot(r)   # diag(sigma) b
    q = sb / sigma2
    qq = float(q.dot(q))
    if qq > delta * delta:
        mu = max(0.0, math.sqrt(float(sb.dot(sb))) / delta - float(sigma2[0]))
        for _ in range(_SECULAR_MAX_ITER):
            den = sigma2 + mu
            q = sb / den
            qq = float(q.dot(q))
            qnorm = math.sqrt(qq)
            if qnorm <= (1.0 + _SECULAR_TOL) * delta:
                break
            # Newton on 1/||s(mu)|| - 1/delta; d||s||^2/dmu = -2 q.(q / den).
            mu += (qnorm / delta - 1.0) * qq / float(q.dot(q / den))
    return -q.dot(Vt[:k]), hnorm


def solve_trust_region(model, delta, lower=None, upper=None):
    """Approximate minimizer of the model over the ball intersected with the box.

    When no box face binds, n <= EXACT_STEP_MAX_N and the model is a fitted
    residual model (model.r is not None), the step is the exact one from the
    SVD of model.J; only then is J read, so a growing model at larger n never
    forms it. Otherwise the step starts from the Cauchy point and is refined
    by truncated CG on the model's products H v (at most 2n iterations).
    Neither path forms H. Either step is kept only when it beats the Cauchy
    step, so the Cauchy decrease bound holds; it is verified on every call
    and an AssertionError is raised on violation.
    Returns the zero step when the model gradient vanishes. Without lower and
    upper there is no box: no bound vectors are built and no step is clipped.
    """
    if not delta > 0.0:
        raise ValueError("need delta > 0")
    g = model.g
    n = g.size
    box = None
    if lower is not None or upper is not None:
        lo, up = _bounds_arrays((lower, upper), n)
        if np.any(lo > _FEAS_TOL) or np.any(up < -_FEAS_TOL):
            raise ValueError("bounds must contain the origin (shift to the current iterate)")
        box = (np.minimum(lo, 0.0), np.maximum(up, 0.0))
    gnorm = math.sqrt(float(g.dot(g)))
    if gnorm == 0.0:
        return np.zeros(n)

    s = hnorm = None
    if n <= EXACT_STEP_MAX_N and model.r is not None and not _binds(box, delta):
        s, hnorm = _svd_step(model.J, model.r, delta)
    descent = _Descent(model, delta, box, gnorm, hnorm)
    s_c = _finalize(_cauchy_step(descent), box, delta)
    if s is None:
        s = _truncated_cg(model, s_c, delta, 2 * n, box if descent.box else None)
    s = _finalize(s, box, delta)

    # Keep the refined step (the CG's or the SVD's, "cg" below) only when its
    # decrease verifiably beats the Cauchy step and the bound; the evaluation
    # of the decrease itself is noise-limited for the huge near-singular
    # models an ill-conditioned interpolation set can produce, while the
    # Cauchy step always evaluates cleanly (its products stay at the scale of
    # the bound).
    cg = _decrease(model, s, gnorm, hnorm)
    cauchy = _decrease(model, s_c, gnorm, hnorm)
    bound, keep_cg, passes = _certified_audit(gnorm, descent.t_reach, descent.hnorm, cg, cauchy)

    _STATS["checks"] += 1
    if not passes:
        _STATS["violations"] += 1
        decrease = (cg if keep_cg else cauchy)[0]
        raise AssertionError(
            "trust-region step failed the Cauchy decrease bound: "
            f"decrease={decrease:.6e} bound={bound:.6e}"
        )
    return s if keep_cg else s_c


def _finalize(s, box, delta):
    # Exact feasibility clean-up; scaling towards the origin stays in the box.
    if box is not None:
        s = np.clip(s, *box)
    snorm = math.sqrt(float(s.dot(s)))
    if snorm > delta:
        s = s * (delta / snorm)
    return s


def _cauchy_bound(gnorm, t_reach, hnorm):
    return 0.5 * gnorm * min(t_reach, gnorm / max(hnorm, 1.0))


def _decrease(model, s, gnorm, exact=None):
    """Model decrease at s and the rounding error of its evaluation.

    The error is the cancellation error of g.s and s.H.s; _audit adds the
    allowance for exact-equality cases (isotropic H) at the scale of the
    bound. Both come from the product H s, except on the SVD path, where
    ||H|| = exact is known: there s.H.s is the model's curvature(s),
    2 ||J s||^2, whose error scales with ||H s|| <= (||H|| s.H.s)^(1/2).
    """
    gs = float(model.g.dot(s))
    if exact is None:
        Hs = model.hdot(s)
        sHs = float(s.dot(Hs))
        hs = math.sqrt(float(Hs.dot(Hs)))
    else:
        sHs = model.curvature(s)
        hs = math.sqrt(exact) * math.sqrt(max(sHs, 0.0))
    decrease = -gs - 0.5 * sHs
    n = s.size
    snorm = math.sqrt(float(s.dot(s)))
    cancel = gnorm * snorm + 0.5 * snorm * hs
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
