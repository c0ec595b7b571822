"""Interpolation-set maintenance and local model construction.

The solver keeps a set of points with residual-vector values and builds a
linear model r(x_k + s) ~ r_k + J_k s for the residuals by regression (when
the set has at least n+1 points) or by minimal-norm interpolation (while the
set is still growing). The quadratic objective model, the Lagrange polynomials
of the set and the geometry-improvement machinery all live here.
"""

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DegenerateSetError,
    clamp_singular_values,
    random_orthonormal,
    random_unit,
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
    "full_model",
    "lagrange_basis",
    "poisedness_estimate",
    "geometry_point",
    "needs_geometry_improvement",
    "choose_point_to_replace",
]

logger = logging.getLogger("dfls")

# Smallest acceptable step fraction when both signs of an initial direction
# have to be projected onto the bounds.
MIN_INITIAL_STEP_FRAC = 1e-3

# Cached square inverse: a rank-one update whose denominator |L_t(y)| is below
# INVERSE_DENOM_TOL, or an updated inverse whose probe residual
# ||W (Z v) - v|| / ||v|| exceeds INVERSE_PROBE_TOL, is refactorized from scratch.
INVERSE_DENOM_TOL = 1e-3
INVERSE_PROBE_TOL = 1e-10


class InterpolationSet:
    """Point set with residual values, per-point sample counts and a base index.

    The base point is kept at the minimum of ||values[t]||^2 over the set;
    call sites that fill values lazily must call rebase() once done.

    With p >= n points beyond the base the set caches Z = W^+ for rows
    [1, (y_t - b_f)/alpha_f] in a frame (b_f, alpha_f) fixed, and Z tested for
    finiteness, when Z was factorized. put() keeps a square Z current with one
    Sherman-Morrison update per replaced point and drops a tall one;
    pseudo_inverse() maps Z to the current base and radius, so neither a base
    move nor a radius change needs a hook. refactorizations counts the
    from-scratch factorizations by cause: "first" use, n+1 "updates" (a tall
    set allows none), small "denominator", failed "probe".
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
        self._inv = None           # Z in the frame (b_f, alpha_f), or None
        self._frame = None
        self._updates = 0          # rank-one updates since the last factorization
        self._stale = "first"      # cause of the next factorization
        self.refactorizations = {"first": 0, "updates": 0, "denominator": 0, "probe": 0}

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
        self._fvals[t] = float(value @ value)
        self.sample_counts[t] = n_samples

    def rebase(self):
        """Point the base at the strictly smallest objective value."""
        t = int(np.argmin(self._fvals))
        if self._fvals[t] < self._fvals[self.base_index]:
            self.base_index = t

    def set_base(self, t):
        """Point the base at slot t, whatever its objective value."""
        self.base_index = int(t)

    def distances_from(self, center):
        diff = self.points - np.asarray(center, dtype=float)
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def has_point(self, y, skip=None):
        """True iff y equals a point of the set, not counting slot skip.

        Duplicate points would make the interpolation system singular.
        """
        same = np.all(self.points == y, axis=1)
        if skip is not None:
            same[skip] = False
        return bool(np.any(same))

    def put(self, t, point, value, n_samples=1):
        """Write point and value into slot t (t == npt appends); no rebase."""
        if t == self.npt:
            self.points = np.vstack([self.points, point])
            self._fvals = np.append(self._fvals, np.inf)
            self.sample_counts = np.append(self.sample_counts, 1)
            if self.values is not None:
                self.values = np.vstack([self.values, np.full(self.values.shape[1], np.nan)])
            self._drop_inverse("first")
        else:
            if self._inv is not None:
                self._update_inverse(t, np.asarray(point, dtype=float))
            self.points[t] = point
        self.set_value(t, value, n_samples)

    def _drop_inverse(self, cause):
        self._inv = None
        self._stale = cause

    def _update_inverse(self, t, y):
        """Sherman-Morrison update of a square Z for row t moving to y.

        The denominator is L_t(y), the t-th Lagrange polynomial in the frame;
        column t becomes z_t / L_t(y) and column j loses z_t L_j(y) / L_t(y).
        """
        if self._updates > self.n or self.npt > self.n + 1:
            self._drop_inverse("updates")
            return
        Z = self._inv
        base, alpha = self._frame
        ell = Z[0] + ((y - base) / alpha) @ Z[1:]
        denom = ell[t]
        if not abs(denom) >= INVERSE_DENOM_TOL:
            self._drop_inverse("denominator")
            return
        zt = Z[:, t] / denom
        ell[t] -= 1.0
        Z -= np.outer(zt, ell)
        self._updates += 1

    def _probe_residual(self):
        """||W (Z v) - v|| / ||v|| for a fixed v, with W in the frame: O(n^2)."""
        base, alpha = self._frame
        v = np.cos(np.arange(self.npt))
        u = self._inv @ v
        res = u[0] + ((self.points - base) / alpha) @ u[1:] - v
        return float(np.linalg.norm(res) / np.linalg.norm(v))

    def pseudo_inverse(self):
        """(Z, alpha): W^+ for the p >= n interpolation matrix W (W^{-1} if p == n).

        W has rows [1, (y_t - x_k)/alpha], x_k the base point and alpha the set
        radius. Column t of Z holds the coefficients of the regression Lagrange
        polynomial L_t; Z @ values those of the linear model. The cached frame
        Z is mapped in O(pn), exactly for any full-column-rank W: Z_0 +=
        ((x_k - b_f)/alpha_f) Z_1:, then Z_1: *= alpha/alpha_f. Raises
        DegenerateSetError for p < n and for a singular or non-finite system.
        """
        alpha = set_radius(self)
        if self.npt <= self.n or alpha <= 0.0:
            raise DegenerateSetError("degenerate interpolation set")
        if (self._inv is not None and self._updates
                and not self._probe_residual() <= INVERSE_PROBE_TOL):
            self._drop_inverse("probe")
        if self._inv is None:
            W = _interp_matrix(self, alpha)
            if self.npt == self.n + 1:
                try:
                    inv = np.linalg.solve(W, np.eye(self.npt))
                except np.linalg.LinAlgError:
                    raise DegenerateSetError("degenerate interpolation set") from None
            else:
                inv = solve_regression(W, np.eye(self.npt))
            if not np.all(np.isfinite(inv)):
                raise DegenerateSetError("degenerate interpolation set")
            self._inv = inv
            self._frame = (self.base_point().copy(), alpha)
            self._updates = 0
            self.refactorizations[self._stale] += 1
            self._stale = "first"
        base, alpha_f = self._frame
        Z = self._inv.copy()
        Z[0] += ((self.base_point() - base) / alpha_f) @ Z[1:]
        Z[1:] *= alpha / alpha_f
        return Z, alpha

    def furthest_index(self):
        """Index of the non-base point furthest from the base point."""
        dist = self.distances_from(self.base_point())
        dist[self.base_index] = -np.inf
        return int(np.argmax(dist))


@dataclass
class LinearResidualModel:
    """Linear residual model r(x_k + s) ~ r_k + J_k s around the base point."""

    r: np.ndarray          # (m,)
    J: np.ndarray          # (m, n)
    alpha: float           # max distance of set points from the base

    def gauss_newton(self):
        """(J^T r, J^T J)."""
        return self.J.T @ self.r, self.J.T @ self.J


@dataclass
class MinNormModel:
    """Linear residual model of a growing set (p < n), its Jacobian in factors.

    J = C Q_p^T + level U N^T: Q = [Q_p, N, ...] is the complete orthogonal
    factor of the displacements' QR (Q_p spans them), U the k = y.size
    complement columns of C's Householder QR, and y = U^T r (k = 0 without a
    rank repair). gauss_newton() never forms J; reading J does, once.
    """

    r: np.ndarray          # (m,)
    alpha: float           # max distance of set points from the base
    Q: np.ndarray          # (n, n)
    C: np.ndarray          # (m, p)
    gram: np.ndarray       # C^T C
    level: float
    y: np.ndarray          # (k,)

    @cached_property
    def J(self):
        p, k = self.C.shape[1], self.y.size
        J = self.C @ self.Q[:, :p].T
        if k:
            U = np.linalg.qr(self.C, mode="complete")[0][:, p:p + k]
            J += self.level * (U @ self.Q[:, p:p + k].T)
        return J

    def gauss_newton(self):
        """(J^T r, J^T J) = (Q_p C^T r + level N y, Q_p gram Q_p^T + level^2 N N^T)."""
        p, k = self.C.shape[1], self.y.size
        Qp, N = self.Q[:, :p], self.Q[:, p:p + k]
        Jtr = Qp @ (self.C.T @ self.r)
        JtJ = (Qp @ self.gram) @ Qp.T
        if k:
            Jtr += self.level * (N @ self.y)
            JtJ += self.level ** 2 * (N @ N.T)
        return Jtr, JtJ


@dataclass
class FullModel:
    """Quadratic model of the sum-of-squares objective derived from a linear model.

    m(s) = c + g.s + 0.5 s.H.s with c = ||r||^2, g = 2 J^T r, H = 2 J^T J,
    which equals ||r + J s||^2 identically.
    """

    c: float
    g: np.ndarray
    H: np.ndarray

    def value(self, s):
        s = np.asarray(s, dtype=float)
        return self.c + self.g @ s + 0.5 * (s @ self.H @ s)

    def decrease(self, s):
        s = np.asarray(s, dtype=float)
        return -(self.g @ s) - 0.5 * (s @ self.H @ s)


@dataclass
class LagrangeBasis:
    """Regression Lagrange polynomials L_t(y) = c[t] + g[t].(y - center)."""

    c: np.ndarray        # (p+1,)
    g: np.ndarray        # (p+1, n)
    center: np.ndarray   # (n,)

    def evaluate(self, y):
        """Values of all polynomials at y."""
        return self.c + self.g @ (np.asarray(y, dtype=float) - self.center)


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
    return float(np.max(iset.distances_from(iset.base_point())))


def build_linear_model(iset, repair_rank=True):
    """Fit the linear residual model to the current set: fit_model_and_basis's model.

    A growing set's Jacobian is formed when its J is first read. Raises
    ValueError when a point of the set has not been evaluated.
    """
    if iset.values is None or np.any(np.isnan(iset.values)):
        raise ValueError("interpolation set has unevaluated points")
    return fit_model_and_basis(iset, repair_rank)[0]


def full_model(lm):
    """Quadratic objective model ||r + J s||^2 from a linear residual model."""
    Jtr, JtJ = lm.gauss_newton()
    return FullModel(c=float(lm.r @ lm.r), g=2.0 * Jtr, H=2.0 * JtJ)


def _solve_interpolation(iset):
    """(W^+, its columns as the Lagrange basis at the base point, alpha); p >= n."""
    Z, alpha = iset.pseudo_inverse()
    basis = LagrangeBasis(c=Z[0].copy(), g=Z[1:].T / alpha, center=iset.base_point().copy())
    return Z, basis, alpha


def lagrange_basis(iset):
    """Regression Lagrange polynomials of the set, centred at the base point.

    Requires p >= n points beyond the base and a full-column-rank system.
    """
    return _solve_interpolation(iset)[1]


def fit_model_and_basis(iset, repair_rank=True):
    """Linear residual model and Lagrange basis of the set from one factorization.

    With p >= n points beyond the base the model is the regression fit
    W^+ values, and the basis the columns of the same cached W^+. With p < n
    the basis is None and the model a MinNormModel: interpolation at the base
    pins r to the base value, and J is the minimal-Frobenius-norm solution of
    D J^T = dV, D the p x n displacements from the base and dV the value
    differences. Its rank p is then repaired (unless repair_rank is false, for
    the perturbed-step growing variant) by raising min(n, m) - p more singular
    values to sigma_p along the complements of the two QRs. r and J are not
    tested for finiteness here; a non-finite one shows in full_model's g or H.
    """
    p = iset.npt - 1
    if p >= iset.n:
        Z, basis, alpha = _solve_interpolation(iset)
        Zm = Z @ iset.values
        return LinearResidualModel(r=Zm[0].copy(), J=Zm[1:].T / alpha, alpha=alpha), basis
    alpha = set_radius(iset)
    if alpha <= 0.0:
        raise DegenerateSetError("degenerate interpolation set")
    b = iset.base_index
    r = iset.base_value().copy()
    D = np.delete(iset.points, b, axis=0) - iset.base_point()
    Q, Y = solve_min_norm(D, np.delete(iset.values, b, axis=0) - r)
    C = Y.T
    k = min(iset.n, r.size) - p if repair_rank else 0
    if k > 0:
        level, gram, y = clamp_singular_values(C, r, k)
    else:
        level, gram, y = 0.0, C.T @ C, np.empty(0)
    return MinNormModel(r, alpha, Q, C, gram, level, y), None


def poisedness_estimate(iset, center, delta):
    """Largest Lagrange-polynomial magnitude over the ball B(center, delta).

    For linear polynomials the ball maximum is |L_t(center)| + delta ||g_t||,
    which is exact. Returns +inf for a degenerate set.
    """
    try:
        basis = lagrange_basis(iset)
    except DegenerateSetError:
        return np.inf
    vals = np.abs(basis.evaluate(center)) + delta * np.linalg.norm(basis.g, axis=1)
    return float(np.max(vals))


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
    the box and the better one is returned.
    """
    center = np.asarray(center, dtype=float)
    n = center.size
    lower, upper = _bounds_arrays(bounds, n)
    g = basis.g[t]
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        logger.warning("geometry step: zero Lagrange gradient, using a random direction")
        d = np.eye(n)[0] if rng is None else random_unit(rng, n)
        return np.clip(center + delta * d, lower, upper)
    step = delta * g / gnorm
    cands = [np.clip(center + step, lower, upper), np.clip(center - step, lower, upper)]
    vals = [abs(basis.evaluate(y)[t]) for y in cands]
    return cands[int(np.argmax(vals))]


def needs_geometry_improvement(iset, center, epsilon):
    """True iff some point lies strictly further than epsilon from center."""
    return bool(np.max(iset.distances_from(center)) > epsilon)


def choose_point_to_replace(iset, basis, new_point, center, delta):
    """Index of the point to drop when new_point enters the set.

    Scores each non-base point by |L_t(new_point)| * max(dist_t^4 / delta^4, 1)
    so distant points are evicted preferentially; ties in distance reduce the
    criterion to the Lagrange magnitude.
    """
    lam = np.abs(basis.evaluate(new_point))
    dist = iset.distances_from(center)
    score = lam * np.maximum((dist / delta) ** 4, 1.0)
    score[iset.base_index] = -np.inf
    return int(np.argmax(score))
