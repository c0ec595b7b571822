"""Interpolation-set maintenance and local model construction.

The solver keeps a set of points with residual-vector values and builds a
linear model r(x_k + s) ~ r_k + J_k s for the residuals by regression (when
the set has at least n+1 points) or by minimal-norm interpolation (while the
set is still growing). Each linear model is also the quadratic objective
model ||r + J s||^2 that the trust-region step minimizes. The Lagrange
polynomials of the set and the geometry-improvement machinery live here too.
"""

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    RANK_TOL,
    DegenerateSetError,
    clamp_singular_values,
    qr_append_column,
    random_orthonormal,
    random_unit,
    repair_level,
    solve_min_norm,
    solve_regression,
)

__all__ = [
    "InterpolationSet",
    "LinearResidualModel",
    "MinNormModel",
    "FullModel",
    "LagrangeBasis",
    "build_initial_set",
    "build_linear_model",
    "lagrange_basis",
    "geometry_point",
    "needs_geometry_improvement",
    "choose_point_to_replace",
]

logger = logging.getLogger("dfls")

# Smallest acceptable step fraction when both signs of an initial direction
# have to be projected onto the bounds.
MIN_INITIAL_STEP_FRAC = 1e-3

# Cached W^+: an update whose denominator |L_t(y)| (square) is below
# INVERSE_DENOM_TOL, or sigma (tall) below its square, or an updated W^+ whose
# probe residual exceeds INVERSE_PROBE_TOL, is refactorized from scratch. So
# are a growing set's kept factors when their probe residual exceeds it. The
# probe is the one guard against drift: no count of updates caps either.
INVERSE_DENOM_TOL = 1e-3
INVERSE_PROBE_TOL = 1e-10

_EPS = float(np.finfo(float).eps)


@dataclass
class _GrowingFactors:
    """A growing set's factors, J = C Q[:, :p]^T with C's complete QR for the repair."""

    Q: np.ndarray          # (n, n) orthogonal; Q[:, :p] spans the displacements
    C: np.ndarray          # (m, p)
    gram: np.ndarray       # C^T C
    rdiag: tuple           # (min, max) of |diag R| in the displacements' QR
    repair: bool           # factorized for a rank repair
    Qc: np.ndarray         # (m, m) complete Householder factor of C, or None
    Rc: np.ndarray         # (p, p) its triangle, or None
    level: float           # repair_level(Rc) once computed, or None


class InterpolationSet:
    """Point set with residual values, per-point sample counts and a base index.

    The base point is kept at the minimum of ||values[t]||^2 over the set;
    call sites that fill values lazily must call rebase() once done.

    With p >= n points beyond the base the set caches Z = W^+ for rows
    [1, (y_t - b_f)/alpha_f] in a frame (b_f, alpha_f) fixed, and Z tested for
    finiteness, when Z was factorized. put() keeps Z current for each replaced
    point, by a Sherman-Morrison step when square and a rank-two Woodbury step
    when tall (_update_inverse), and every read after an update runs the
    probe (_probe_residual). pseudo_inverse() returns Z with its frame and
    its readers work in that frame, so neither a base move nor a radius
    change needs a hook or a remap.

    With p < n points beyond the base the set keeps the growing model's
    factors instead (min_norm_model): an append updates them in O(n^2 + m^2)
    and a base move leaves them as they are, since J, and with it Q_p, C, C^T C
    and sigma_p, do not depend on the base.

    The set keeps one factorization of either kind, one cause for the next
    one (_drop) and one count of them by cause, refactorizations. Full:
    "first" use, small "denominator", failed "probe". Growing, as
    "growing_<cause>": "first" use, a "replaced" point, an appended
    displacement that fails the "rank" test, a failed "probe".

    base_distances() is computed once per set state: put(), a rebase() that
    moves the base and set_base() drop it, so points and base_index must
    change only through those three.
    """

    def __init__(self, points, values=None, sample_counts=None, base_index=0):
        self.points = np.atleast_2d(np.asarray(points, dtype=float)).copy()
        npt = self.points.shape[0]
        if values is None:
            self.values = None
            self._fvals = np.full(npt, np.inf)
        else:
            self.values = np.atleast_2d(np.asarray(values, dtype=float)).copy()
            self._fvals = np.einsum("ij,ij->i", self.values, self.values)
        if sample_counts is None:
            self.sample_counts = np.ones(npt, dtype=int)
        else:
            self.sample_counts = np.asarray(sample_counts, dtype=int).copy()
        self.base_index = int(base_index)
        self._inv = None           # Z in the frame (b_f, alpha_f) while p >= n, or None
        self._frame = None
        self._updated = False      # Z updated since it was factorized: reads probe it
        self._grown = None         # _GrowingFactors while p < n, or None
        self._stale = "first"      # cause of the next factorization, of either kind
        self._dist = None          # distances from the base point, or None
        self._probe = None         # the probe vector v of _probe_residual and ||v||
        self.refactorizations = dict.fromkeys(("first", "denominator", "probe", "growing_first",
                                               "growing_replaced", "growing_rank",
                                               "growing_probe"), 0)

    @property
    def npt(self):
        return self.points.shape[0]

    @property
    def n(self):
        return self.points.shape[1]

    @property
    def m(self):
        return None if self.values is None else self.values.shape[1]

    def base_point(self):
        return self.points[self.base_index]

    def base_value(self):
        return self.values[self.base_index]

    def base_objective(self):
        return self._fvals[self.base_index]

    def objective_values(self):
        return self._fvals.copy()

    def set_value(self, t, value, n_samples=1):
        value = np.asarray(value, dtype=float)
        if self.values is None:
            self.values = np.full((self.npt, value.size), np.nan)
        elif value.shape != self.values.shape[1:]:
            raise ValueError(f"residual has shape {value.shape}, "
                             f"expected ({self.values.shape[1]},)")
        self.values[t] = value
        self._fvals[t] = float(value.dot(value))
        self.sample_counts[t] = n_samples

    def rebase(self):
        """Point the base at the strictly smallest objective value."""
        t = int(self._fvals.argmin())
        if self._fvals[t] < self._fvals[self.base_index]:
            self.base_index = t
            self._dist = None

    def set_base(self, t):
        """Point the base at slot t, whatever its objective value."""
        self.base_index = int(t)
        self._dist = None

    def distances_from(self, center):
        diff = self.points - np.asarray(center, dtype=float)
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def base_distances(self):
        """distances_from(base_point()), cached: callers must not write into it."""
        if self._dist is None:
            self._dist = self.distances_from(self.base_point())
        return self._dist

    def has_point(self, y, skip=None):
        """True iff y equals a point of the set, not counting slot skip.

        Duplicate points would make the interpolation system singular.
        """
        same = (self.points == y).all(axis=1)
        if skip is not None:
            same[skip] = False
        return bool(same.any())

    def put(self, t, point, value, n_samples=1):
        """Write point and value into slot t (t == npt appends); no rebase."""
        self._dist = None
        if t < self.npt:
            if self._inv is not None:
                self._update_inverse(t, np.asarray(point, dtype=float))
            elif self.npt <= self.n and (self._grown is not None or self._stale != "first"):
                self._drop("replaced")  # also after a failed from-scratch fit
            self.points[t] = point
            self.set_value(t, value, n_samples)
            return
        self.points = np.vstack([self.points, point])
        self._fvals = np.append(self._fvals, np.inf)
        self.sample_counts = np.append(self.sample_counts, 1)
        if self.values is not None:
            self.values = np.vstack([self.values, np.full(self.values.shape[1], np.nan)])
        self.set_value(t, value, n_samples)
        if self.npt > self.n:
            self._drop("first")
        elif self._grown is not None:
            self._append_growing(t)

    def _drop(self, cause):
        """Drop the kept factorization, of either kind; cause counts the next one."""
        self._inv = self._grown = None
        self._stale = cause

    def _append_growing(self, t):
        """Update the growing factors for the point appended at slot t: O(n^2 + m^2).

        With d = y_t - x_k, Q gains one reflector (qr_append_column) and C the
        column c = (v_t - r_k - C R[:p, p]) / R[p, p], so that J d = v_t - r_k
        and J keeps its values on the old displacements; C^T C is bordered and
        C's complete QR gains one reflector too. A |R[p, p]| that fails
        solve_min_norm's RANK_TOL test against the others drops them for a
        from-scratch fit.
        """
        f = self._grown
        p = t - 1  # displacements before the append
        Q, z = qr_append_column(f.Q, p, self.points[t] - self.base_point())
        beta = abs(z[p])
        rdiag = (min(f.rdiag[0], beta), max(f.rdiag[1], beta))
        if not rdiag[0] > RANK_TOL * rdiag[1]:
            self._drop("rank")
            return
        c = (self.values[t] - self.base_value() - f.C.dot(z[:p])) / z[p]
        C = np.column_stack((f.C, c))
        gram = np.empty((p + 1, p + 1))
        gram[:p, :p] = f.gram
        gram[p, :p] = gram[:p, p] = f.C.T.dot(c)
        gram[p, p] = c.dot(c)
        Qc = Rc = None
        if f.Qc is not None and min(self.n, self.m) - t >= 1:
            Qc, zc = qr_append_column(f.Qc, p, c)
            Rc = np.zeros((p + 1, p + 1))
            Rc[:p, :p] = f.Rc
            Rc[:, p] = zc
        self._grown = _GrowingFactors(Q, C, gram, rdiag, f.repair, Qc, Rc, None)

    def min_norm_model(self, repair_rank):
        """The growing model (p < n) from the kept factors, or from scratch.

        Kept factors serve a fit once they pass _growing_probe_passes; the
        fit is then O(mk) for y = U^T r, and repair_level runs once per factor
        state. The from-scratch fit is solve_min_norm and
        clamp_singular_values, counted by cause when it runs.
        """
        f = self._grown
        if f is not None and repair_rank and not f.repair:
            self._drop("first")
        elif f is not None and not self._growing_probe_passes(f):
            self._drop("probe")
        r = self.base_value().copy()
        m, p = r.size, self.npt - 1
        k = min(self.n, m) - p if repair_rank else 0
        if self._grown is None:
            self.refactorizations["growing_" + self._stale] += 1
            b = self.base_index
            D = np.delete(self.points, b, axis=0) - self.base_point()
            Q, Y, rdiag = solve_min_norm(D, np.delete(self.values, b, axis=0) - r)
            self._stale = "first"
            C = Y.T
            gram, Qc, Rc = clamp_singular_values(C, k) if k > 0 else (C.T @ C, None, None)
            self._grown = _GrowingFactors(Q, C, gram, (rdiag.min(), rdiag.max()), repair_rank,
                                          Qc, Rc, None)
        f = self._grown
        if k > 0:
            U = f.Qc[:, p:p + k]
            if f.level is None:
                f.level = repair_level(f.Rc)
            return MinNormModel(r, f.Q, f.C, f.gram, f.level, U.T.dot(r), U)
        return MinNormModel(r, f.Q, f.C, f.gram, 0.0, np.empty(0), np.empty((m, 0)))

    def _growing_probe_passes(self, f):
        """Probe of the kept factors f against the set for the fixed v: O((n + m) p).

        With D the displacements from the base, dV the value differences,
        u = D^T v and a = Q_p^T u: Q_p must hold u (||u - Q_p a|| <=
        INVERSE_PROBE_TOL ||u||) and J = C Q_p^T must interpolate
        (||C a - dV^T v|| <= INVERSE_PROBE_TOL (||C||_F ||a|| + ||dV^T v||)).
        """
        v = self._probe_vector()[0]
        Qp = f.Q[:, :self.npt - 1]
        u = v.dot(self.points - self.base_point())
        a = u.dot(Qp)
        span = u - Qp.dot(a)
        e = v.dot(self.values - self.base_value())
        fit = f.C.dot(a) - e
        return (math.sqrt(float(span.dot(span))) <= INVERSE_PROBE_TOL * math.sqrt(float(u.dot(u)))
                and math.sqrt(float(fit.dot(fit))) <= INVERSE_PROBE_TOL * (
                    math.sqrt(float(np.trace(f.gram)) * float(a.dot(a)))
                    + math.sqrt(float(e.dot(e)))))

    def _probe_vector(self):
        """(v, ||v||) for v = cos(0, 1, .., npt - 1), cached per set size."""
        if self._probe is None or self._probe[0].size != self.npt:
            v = np.cos(np.arange(self.npt))
            self._probe = (v, math.sqrt(float(v.dot(v))))
        return self._probe

    def _update_inverse(self, t, y):
        """Update Z in the frame for row t moving to y: O(pn).

        ell = w(y)^T Z holds the Lagrange values at y. A square Z takes one
        Sherman-Morrison step with denominator L_t(y): column t becomes
        z_t / L_t(y) and column j loses z_t L_j(y) / L_t(y). A tall Z takes
        Woodbury's rank-two step on G = W^T W, read through Z = G^-1 W^T alone:
        with ell0 = w(y_t)^T Z, a = Z ell, b = z_t, beta = |ell|^2, h = |ell0|^2
        and tau = ell_t, the denominator is sigma = (1 + beta)(1 - h) + tau^2
        (L_t(y)^2 when square, as h = 1), tested against INVERSE_DENOM_TOL^2.
        """
        tall = self.npt > self.n + 1
        Z = self._inv
        base, alpha = self._frame
        ell = Z[0] + ((y - base) / alpha).dot(Z[1:])
        if tall:
            ell0 = Z[0] + ((self.points[t] - base) / alpha).dot(Z[1:])
            a, b = Z.dot(ell), Z[:, t].copy()
            beta, h, tau = ell.dot(ell), ell0.dot(ell0), ell[t]
            sigma = (1.0 + beta) * (1.0 - h) + tau * tau
            if not sigma >= INVERSE_DENOM_TOL ** 2:
                self._drop("denominator")
                return
            u = ((1.0 - h) * a + tau * b) / sigma
            v = (tau * a - (1.0 + beta) * b) / sigma
            Z -= u[:, None] * ell + v[:, None] * ell0
            Z[:, t] += a - b - (beta - tau) * u - (tau - h) * v
        else:
            denom = ell[t]
            if not abs(denom) >= INVERSE_DENOM_TOL:
                self._drop("denominator")
                return
            zt = Z[:, t] / denom
            ell[t] -= 1.0
            Z -= zt[:, None] * ell
        self._updated = True

    def _probe_residual(self):
        """Moore-Penrose residual of Z for a fixed v, relative to ||v||, in the frame: O(pn).

        Square: ||W (Z v) - v||. Tall, where W Z is only a projection: Z W = I
        on c = v[:n+1] and W Z symmetric on v, ||Z (W c) - c|| and
        ||W (Z v) - Z^T (W^T v)||.
        """
        base, alpha = self._frame
        v, vnorm = self._probe_vector()
        Z = self._inv
        D = (self.points - base) / alpha
        u = Z.dot(v)
        WZv = u[0] + D.dot(u[1:])
        if self.npt > self.n + 1:
            c = v[:self.n + 1]
            res = np.concatenate((WZv - np.concatenate(([v.sum()], v.dot(D))).dot(Z),
                                  Z.dot(c[0] + D.dot(c[1:])) - c))
        else:
            res = WZv - v
        return math.sqrt(float(res.dot(res))) / vnorm

    def pseudo_inverse(self):
        """(Z, b_f, alpha_f): W^+ for the p >= n interpolation matrix W, in its frame.

        W has rows [1, (y_t - b_f)/alpha_f] (W^{-1} if p == n), b_f and alpha_f
        the base point and set radius when Z was factorized; put() keeps Z
        current in that frame. Column t of Z holds the coefficients of the
        regression Lagrange polynomial L_t(y) = Z[0, t] + Z[1:, t].(y -
        b_f)/alpha_f, and Z @ values those of the linear model. Z and b_f are
        read-only views of the cache, valid until the next put(). Raises
        DegenerateSetError for p < n and for a singular or non-finite system.
        """
        alpha = set_radius(self)
        if self.npt <= self.n or alpha <= 0.0:
            raise DegenerateSetError("degenerate interpolation set")
        if (self._inv is not None and self._updated
                and not self._probe_residual() <= INVERSE_PROBE_TOL):
            self._drop("probe")
        if self._inv is None:
            W = _interp_matrix(self, alpha)
            if self.npt == self.n + 1:
                try:
                    inv = np.linalg.solve(W, np.eye(self.npt))
                except np.linalg.LinAlgError:
                    raise DegenerateSetError("degenerate interpolation set") from None
            else:
                inv = solve_regression(W, np.eye(self.npt))
            if not np.isfinite(inv).all():
                raise DegenerateSetError("degenerate interpolation set")
            base = self.base_point().copy()
            base.flags.writeable = False
            self._inv, self._frame, self._updated = inv, (base, alpha), False
            self.refactorizations[self._stale] += 1
            self._stale = "first"
        Z = self._inv.view()
        Z.flags.writeable = False
        return (Z, *self._frame)

    def furthest_index(self):
        """Index of the non-base point furthest from the base point."""
        dist = self.base_distances().copy()
        dist[self.base_index] = -np.inf
        return int(dist.argmax())


def _spectral_norm(S):
    # S is symmetric PSD, so the spectral norm is the top eigenvalue.
    if S.shape[0] == 1:
        return abs(float(S[0, 0]))
    return float(np.linalg.eigvalsh(S)[-1])


def _certified(bound, n, sign=1.0):
    """bound moved outward by 4(n+4) eps, a margin for the rounding of it and of eigvalsh.

    sign = 1 raises an upper bound on ||H||, sign = -1 lowers a lower bound.
    """
    return bound * (1.0 + sign * 4.0 * (n + 4) * _EPS)


class FullModel:
    """Gauss-Newton model m(s) = ||r + J s||^2 = c + g.s + 0.5 s.H.s of a fitted residual model.

    The base of LinearResidualModel and MinNormModel, which set c = ||r||^2
    and g = 2 J^T r. H = 2 J^T J is never formed: the trust-region step and
    the solver loop ask each model for the product hdot(v) = H v, the
    curvature curvature(v) = v.H.v, a certified upper bound hnorm_bound() >=
    ||H|| and the exact spectral norm hnorm(), which it answers from J or its
    factors. The step reads r and J when it takes the step from J's SVD.
    """

    def decrease(self, s):
        s = np.asarray(s, dtype=float)
        return -(self.g.dot(s)) - 0.5 * self.curvature(s)

    def hull(self):
        """Orthonormal basis of the set's displacements: I_n once they span R^n."""
        return np.eye(self.g.size)


class LinearResidualModel(FullModel):
    """Linear residual model r(x_k + s) ~ r_k + J_k s around the base point.

    H = 2 J^T J answers from J: H v = 2 J^T (J v), v.H.v = 2 ||J v||^2,
    ||H|| <= 2 ||J||_F^2 and ||H|| = 2 sigma_1(J)^2.
    """

    def __init__(self, r, J):
        self.r = r             # (m,)
        self.J = J             # (m, n)
        self.c = float(r.dot(r))
        self.g = 2.0 * J.T.dot(r)

    def hdot(self, v):
        return 2.0 * self.J.T.dot(self.J.dot(v))

    def curvature(self, v):
        Jv = self.J.dot(v)
        return 2.0 * float(Jv.dot(Jv))

    def hnorm_bound(self):
        """2 ||J||_F^2."""
        f = self.J.ravel("K")
        return _certified(2.0 * float(f.dot(f)), self.g.size)

    def hnorm(self):
        sigma = float(np.linalg.norm(self.J, 2))
        return 2.0 * sigma * sigma


class MinNormModel(FullModel):
    """Linear residual model of a growing set (p < n), its Jacobian in factors.

    J = C Q_p^T + level U N^T: Q = [Q_p, N, ...] is the complete orthogonal
    factor of the displacements' QR (Q_p spans them), U the k = y.size
    complement columns of C's complete Householder factor, and y = U^T r
    (k = 0 without a rank repair). J^T r = Q_p C^T r + level N y, and with
    Q~ = Q[:, :p+k], H = 2 Q~ blockdiag(gram, level^2 I_k) Q~^T: H v, v.H.v,
    the bound 2 max(largest row sum of gram, level^2) and ||H|| =
    2 max(lambda_max(gram), level^2) come from the p x p gram = C^T C and
    Q~^T v. H is never formed, and J only when it is read.
    """

    def __init__(self, r, Q, C, gram, level, y, U):
        self.r = r             # (m,)
        self.Q = Q             # (n, n)
        self.C = C             # (m, p)
        self.gram = gram       # C^T C
        self.level = level
        self.y = y             # (k,)
        self.U = U             # (m, k)
        p, k = C.shape[1], y.size
        self._basis = Q[:, :p + k]
        Jtr = Q[:, :p].dot(C.T.dot(r))
        if k:
            Jtr += level * Q[:, p:p + k].dot(y)
        self.c = float(r.dot(r))
        self.g = 2.0 * Jtr

    @cached_property
    def J(self):
        p, k = self.C.shape[1], self.y.size
        J = self.C @ self.Q[:, :p].T
        if k:
            J += self.level * (self.U @ self.Q[:, p:p + k].T)
        return J

    def hdot(self, v):
        a = v.dot(self._basis)
        p = self.gram.shape[0]
        a[:p] = self.gram.dot(a[:p])
        a[p:] *= self.level ** 2
        return 2.0 * self._basis.dot(a)

    def curvature(self, v):
        a = v.dot(self._basis)
        p = self.gram.shape[0]
        ap, ak = a[:p], a[p:]
        return 2.0 * (float(ap.dot(self.gram.dot(ap))) + self.level ** 2 * float(ak.dot(ak)))

    def hnorm_bound(self):
        """2 max(largest absolute row sum of gram, level^2)."""
        top = float(np.abs(self.gram).sum(axis=1).max())
        return _certified(2.0 * max(top, self.level ** 2), self.g.size)

    def hnorm(self):
        return 2.0 * max(_spectral_norm(self.gram), self.level ** 2)

    def hull(self):
        """Q_p, the orthonormal basis of the growing set's displacements."""
        return self.Q[:, :self.C.shape[1]]


@dataclass
class LagrangeBasis:
    """Regression Lagrange polynomials L_t(y) = c[t] + g[t].(y - center).

    The center is the frame's base point b_f (InterpolationSet.pseudo_inverse),
    and c a read-only view of W^+, valid until the set's next put().
    """

    c: np.ndarray        # (p+1,)
    g: np.ndarray        # (p+1, n)
    center: np.ndarray   # (n,)

    def evaluate(self, y):
        """Values of all polynomials at y."""
        return self.c + self.g.dot(np.asarray(y, dtype=float) - self.center)


def _feasible_step(x0, direction, delta, lower, upper):
    """Initial-set step along +/- direction, adjusted for the bounds.

    Prefers the + step; flips the sign if that is infeasible; if both signs
    are infeasible projects the + step onto the box. Returns None when even
    the projected step is shorter than MIN_INITIAL_STEP_FRAC * delta.
    """
    for sign in (1.0, -1.0):
        y = x0 + sign * delta * direction
        if np.all(y >= lower) and np.all(y <= upper):
            return y
    for sign in (1.0, -1.0):
        y = np.clip(x0 + sign * delta * direction, lower, upper)
        if np.linalg.norm(y - x0) >= MIN_INITIAL_STEP_FRAC * delta:
            return y
    return None


def build_initial_set(x0, delta0, p_init, bounds, rng):
    """Initial geometry: x0 plus p_init points at distance delta0.

    Directions are random orthonormal vectors q_t; the first min(p_init, n)
    points are x0 + delta0 q_t, the next n are x0 - delta0 q_t, and any
    remainder uses fresh random unit directions. Values are not evaluated
    here; the caller fills them and calls rebase().
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if p_init < 1:
        raise ValueError("need p_init >= 1")
    if delta0 <= 0.0:
        raise ValueError("need delta0 > 0")
    lower, upper = _bounds_arrays(bounds, n)
    if np.any(x0 < lower) or np.any(x0 > upper):
        raise ValueError("x0 is not within the bounds")

    k = min(p_init, n)
    Q = random_orthonormal(n, k, rng)
    points = [x0]
    for t in range(p_init):
        if t < n:
            direction = Q[t]
        elif t < 2 * n:
            direction = -Q[t - n]
        else:
            direction = random_unit(rng, n)
        y = _feasible_step(x0, direction, delta0, lower, upper)
        if y is None:
            raise ValueError("infeasible initial geometry")
        points.append(y)
    return InterpolationSet(np.array(points), base_index=0)


def _interp_matrix(iset, scale):
    """Rows [1, (y_t - x_k)^T / scale] for every point of the set."""
    W = np.empty((iset.npt, iset.n + 1))
    W[:, 0] = 1.0
    W[:, 1:] = (iset.points - iset.base_point()) / scale
    return W


def set_radius(iset):
    """Max distance of the set points from the base point."""
    return float(iset.base_distances().max())


def build_linear_model(iset, repair_rank=True):
    """Fit the linear residual model to the current set: fit_model_and_basis's model.

    A growing set's Jacobian is formed when its J is first read. Raises
    ValueError when a point of the set has not been evaluated.
    """
    if iset.values is None or np.any(np.isnan(iset.values)):
        raise ValueError("interpolation set has unevaluated points")
    return fit_model_and_basis(iset, repair_rank)[0]


def _solve_interpolation(iset):
    """(W^+ and alpha_f in the set's frame, its columns as the Lagrange basis); p >= n."""
    Z, base, alpha = iset.pseudo_inverse()
    return Z, alpha, LagrangeBasis(c=Z[0], g=Z[1:].T / alpha, center=base)


def lagrange_basis(iset):
    """Regression Lagrange polynomials of the set, centred at its frame's base point.

    Requires p >= n points beyond the base and a full-column-rank system.
    """
    return _solve_interpolation(iset)[2]


def fit_model_and_basis(iset, repair_rank=True):
    """Linear residual model and Lagrange basis of the set from one factorization.

    With p >= n points beyond the base the model is the regression fit
    W^+ values, and the basis the columns of the same cached W^+, both read in
    the set's frame (b_f, alpha_f): J = (W^+ values)[1:]^T / alpha_f and
    r = (W^+ values)[0] + J (x_k - b_f). With p < n
    the basis is None and the model a MinNormModel: interpolation at the base
    pins r to the base value, and J is the minimal-Frobenius-norm solution of
    D J^T = dV, D the p x n displacements from the base and dV the value
    differences. Its rank p is then repaired (unless repair_rank is false, for
    the perturbed-step growing variant) by raising min(n, m) - p more singular
    values to sigma_p along the complements of the two QRs, which the set
    keeps across appends and base moves (InterpolationSet.min_norm_model).
    Either model is also its Gauss-Newton quadratic ||r + J s||^2 (FullModel),
    the one object the trust-region step and the solver loop read. r and J
    are not tested for finiteness here; a non-finite one shows in g or in
    hnorm_bound().
    """
    p = iset.npt - 1
    if p >= iset.n:
        Z, alpha, basis = _solve_interpolation(iset)
        Zm = Z @ iset.values
        J = Zm[1:].T / alpha
        return LinearResidualModel(r=Zm[0] + J.dot(iset.base_point() - basis.center), J=J), basis
    if set_radius(iset) <= 0.0:
        raise DegenerateSetError("degenerate interpolation set")
    return iset.min_norm_model(repair_rank), None


def _bounds_arrays(bounds, n):
    """(lower, upper) as new float vectors of length n; a None side is unbounded."""
    lower, upper = (None, None) if bounds is None else bounds
    return _bound_vector(lower, n, -np.inf), _bound_vector(upper, n, np.inf)


def _bound_vector(bound, n, fill):
    if bound is None:
        return np.full(n, fill)
    bound = np.array(bound, dtype=float)
    if bound.shape not in ((), (n,)):
        raise ValueError(f"bounds must be scalars or length-{n} vectors, got shape {bound.shape}")
    return bound if bound.ndim else np.full(n, bound)


def geometry_point(basis, t, center, delta, bounds=None, rng=None):
    """Point maximizing |L_t| over the ball B(center, delta), box-projected.

    Unconstrained the maximizer is center +/- delta g_t/||g_t|| with the sign
    picked to maximize |L_t|. With bounds, both endpoints are projected onto
    the box and the better one is returned; bounds=None clips nothing.
    """
    center = np.asarray(center, dtype=float)
    n = center.size
    box = None if bounds is None else _bounds_arrays(bounds, n)

    def clip(y):
        return y if box is None else np.clip(y, *box)

    g = basis.g[t]
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        logger.warning("geometry step: zero Lagrange gradient, using a random direction")
        d = np.eye(n)[0] if rng is None else random_unit(rng, n)
        return clip(center + delta * d)
    step = delta * g / gnorm
    cands = [clip(center + step), clip(center - step)]
    vals = [abs(basis.evaluate(y)[t]) for y in cands]
    return cands[int(np.argmax(vals))]


def needs_geometry_improvement(iset, epsilon):
    """True iff some point lies strictly further than epsilon from the base point."""
    return bool(iset.base_distances().max() > epsilon)


def choose_point_to_replace(iset, basis, new_point, delta):
    """Index of the point to drop when new_point enters the set.

    Scores each non-base point by |L_t(new_point)| * max(dist_t^4 / delta^4, 1),
    dist_t its distance from the base point, so distant points are evicted
    preferentially; ties in distance reduce the criterion to the Lagrange
    magnitude.
    """
    lam = np.abs(basis.evaluate(new_point))
    score = lam * np.maximum((iset.base_distances() / delta) ** 4, 1.0)
    score[iset.base_index] = -np.inf
    return int(score.argmax())
