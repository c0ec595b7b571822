"""Dense linear-algebra and statistics kernels used by the model and restart machinery.

All routines are pure functions of their inputs; random routines take an
explicit ``numpy.random.Generator``.
"""

import logging
from collections import namedtuple

import numpy as np

__all__ = [
    "DegenerateSetError",
    "LinearFit",
    "solve_regression",
    "solve_min_norm",
    "clamp_singular_values",
    "linear_fit",
    "random_orthonormal",
    "random_unit",
    "orthogonal_complement_direction",
]

logger = logging.getLogger("dfls")

# Relative threshold below which a singular value (or, for the min-norm QR, a
# diagonal entry of R) counts as zero.
RANK_TOL = 1e-12

LinearFit = namedtuple("LinearFit", ["slope", "correlation"])


class DegenerateSetError(Exception):
    """Raised when an interpolation system is numerically rank-deficient."""


def solve_regression(W, B):
    """Least-squares solution of the overdetermined system W z = B.

    W is (p+1) x (n+1) with p >= n and B is (p+1,) or (p+1, m); the result has
    one column per column of B. The residual of each column is orthogonal to
    the column space of W.

    Raises DegenerateSetError if W is column-rank-deficient, which signals the
    caller to repair the interpolation geometry.
    """
    if np.shape(W)[0] < np.shape(W)[1]:
        raise ValueError("system is underdetermined; use solve_min_norm")
    Z, _, rank, _ = np.linalg.lstsq(np.asarray(W, dtype=float), np.asarray(B, dtype=float),
                                    rcond=RANK_TOL)
    if rank < np.shape(W)[1]:
        raise DegenerateSetError("degenerate interpolation set")
    return Z


def solve_min_norm(W, B):
    """Minimal Euclidean-norm solution of the underdetermined system W z = B, in factors.

    W is q x N with q <= N and must have full row rank; B is (q,) or (q, m).
    Returns (Q, Y) from one complete Householder QR W^T = Q [R; 0]: Q is the
    N x N orthogonal factor and Y = R^{-T} B. The solution is z = Q[:, :q] Y,
    which satisfies W z = B exactly and lies in the row space of W; Q[:, q:]
    spans the null space of W.

    Raises DegenerateSetError when a diagonal entry of R is at most RANK_TOL
    times the largest one (R is singular exactly when one is zero).
    """
    W = np.asarray(W, dtype=float)
    if W.shape[0] > W.shape[1]:
        raise ValueError("system is overdetermined; use solve_regression")
    Q, R = np.linalg.qr(W.T, mode="complete")
    q = W.shape[0]
    d = np.abs(np.diag(R))
    if not d.min() > RANK_TOL * d.max():
        raise DegenerateSetError("degenerate interpolation set")
    return Q, np.linalg.inv(R[:q]).T @ B


def clamp_singular_values(C, r, k):
    """Rank repair of a rank-p Jacobian J = C Q^T, Q (n x p) with orthonormal columns.

    Returns (level, gram, y) from one Householder QR [C, r] = Q_C R in LAPACK's
    raw form: gram = C^T C (as R_C^T R_C), level = sigma_p, the smallest
    singular value of C (those of its p x p factor R_C), and y = U^T r, U the
    k complement columns p.. of the complete Householder Q of C. For N (n x k)
    with orthonormal columns orthogonal to Q, J + level U N^T keeps the singular
    triplets of J and has k more singular values equal to level, so it has rank
    p + k; its gradient and Gauss-Newton Hessian are Q C^T r + level N y and
    Q gram Q^T + level^2 N N^T. If sigma_p is below RANK_TOL sigma_1 the level
    is 1.0 instead, and a diagnostic is logged.

    C is m x p with 1 <= k <= m - p.
    """
    C = np.asarray(C, dtype=float)
    m, p = C.shape
    if not 1 <= k <= m - p:
        raise ValueError("need 1 <= k <= m - p")
    h, tau = np.linalg.qr(np.column_stack([C, r]), mode="raw")
    h = h.T  # R on and above the diagonal, reflectors below it
    Rc = np.triu(h[:p, :p])
    sigma = np.linalg.svd(Rc, compute_uv=False)
    level = float(sigma[-1])
    if level < RANK_TOL * max(sigma[0], 1e-300):
        level = 1.0
        logger.warning("rank repair fallback: smallest singular value below tolerance")
    # Column p's reflector I - tau v v^T (v_0 = 1) maps w = (Q_C^T r)[p:] to
    # beta e_1; it is its own inverse, so w = beta (e_1 - tau v).
    beta, t = h[p, p], tau[p]
    y = -beta * t * h[p:p + k, p]
    y[0] = beta * (1.0 - t)
    return level, Rc.T @ Rc, y


def linear_fit(points):
    """Ordinary least-squares slope and Pearson correlation of value vs index.

    `points` is a sequence of (index, value) pairs, at least two of them.
    A zero-variance value sequence gives slope 0 and correlation 0 so that
    threshold checks never fire on flat histories.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.shape[0] < 2:
        raise ValueError("need at least 2 points")
    k = pts[:, 0]
    v = pts[:, 1]
    dk = k - k.mean()
    dv = v - v.mean()
    skk = float(dk @ dk)
    svv = float(dv @ dv)
    skv = float(dk @ dv)
    if skk <= 0.0:
        raise ValueError("indices have zero variance")
    if svv <= 0.0:
        return LinearFit(0.0, 0.0)
    return LinearFit(skv / skk, skv / np.sqrt(skk * svv))


def random_orthonormal(n, k, rng):
    """k pairwise-orthonormal vectors in R^n (rows of the result).

    Drawn rotation-invariantly via the QR factorization of a Gaussian matrix,
    with the sign convention diag(R) > 0 so results are reproducible.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    A = rng.standard_normal((n, k))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.where(np.diag(R) == 0.0, 1.0, np.diag(R)))
    return Q.T


def random_unit(rng, n):
    """A rotation-invariant random unit vector in R^n."""
    d = rng.standard_normal(n)
    d /= np.linalg.norm(d)
    return d


def orthogonal_complement_direction(Q, rng):
    """A random unit vector orthogonal to the columns of Q.

    Q is n x k with orthonormal columns; the vector is z - Q (Q^T z) for a
    standard normal z, normalized. Raises DegenerateSetError at once when
    k >= n, where the columns span R^n, and after 50 numerically zero draws.
    """
    n, k = Q.shape
    if k < n:
        for _ in range(50):
            v = rng.standard_normal(n)
            v -= Q @ (Q.T @ v)
            nv = np.linalg.norm(v)
            if nv > 1e-10:
                return v / nv
    raise DegenerateSetError("no orthogonal direction found")
