"""Dense linear-algebra and statistics kernels used by the model and restart machinery.

All routines are pure functions of their inputs; random routines take an
explicit ``numpy.random.Generator``.
"""

import logging
import math
from collections import namedtuple

import numpy as np

__all__ = [
    "DegenerateSetError",
    "LinearFit",
    "solve_regression",
    "solve_min_norm",
    "clamp_singular_values",
    "repair_level",
    "qr_append_column",
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
    Returns (Q, Y, d) from one complete Householder QR W^T = Q [R; 0]: Q is the
    N x N orthogonal factor, Y = R^{-T} B and d = |diag R|. The solution is
    z = Q[:, :q] Y, which satisfies W z = B exactly and lies in the row space
    of W; Q[:, q:] spans the null space of W.

    Raises DegenerateSetError when an entry of d is at most RANK_TOL times the
    largest one (R is singular exactly when one is zero).
    """
    W = np.asarray(W, dtype=float)
    if W.shape[0] > W.shape[1]:
        raise ValueError("system is overdetermined; use solve_regression")
    Q, R = np.linalg.qr(W.T, mode="complete")
    q = W.shape[0]
    d = np.abs(np.diag(R))
    if not d.min() > RANK_TOL * d.max():
        raise DegenerateSetError("degenerate interpolation set")
    return Q, np.linalg.inv(R[:q]).T @ B, d


def clamp_singular_values(C, k):
    """Factors of the rank repair of a rank-p Jacobian J = C Q^T, Q (n x p) orthonormal.

    Returns (gram, Qc, Rc) from one complete Householder QR C = Qc [Rc; 0]:
    Qc is m x m, Rc p x p and gram = C^T C (as Rc^T Rc). With
    level = repair_level(Rc), U = Qc[:, p:p+k] (the first k complement
    columns) and N (n x k) with orthonormal columns orthogonal to Q,
    J + level U N^T keeps the singular triplets of J and has k more singular
    values equal to level, so it has rank p + k; its gradient and Gauss-Newton
    Hessian are Q C^T r + level N U^T r and Q gram Q^T + level^2 N N^T. Qc and
    Rc are what qr_append_column updates when C gains a column.

    C is m x p with 1 <= k <= m - p.
    """
    C = np.asarray(C, dtype=float)
    m, p = C.shape
    if not 1 <= k <= m - p:
        raise ValueError("need 1 <= k <= m - p")
    Qc, R = np.linalg.qr(C, mode="complete")
    Rc = R[:p]
    return Rc.T @ Rc, Qc, Rc


def repair_level(Rc):
    """sigma_p, the smallest singular value of the p x p factor Rc (values-only SVD).

    If sigma_p is below RANK_TOL sigma_1 the level is 1.0 instead, and a
    diagnostic is logged.
    """
    sigma = np.linalg.svd(Rc, compute_uv=False)
    level = float(sigma[-1])
    if level < RANK_TOL * max(sigma[0], 1e-300):
        logger.warning("rank repair fallback: smallest singular value below tolerance")
        return 1.0
    return level


def qr_append_column(Q, p, a):
    """Complete QR of [A, a] from the complete QR A = Q [R; 0] of an N x p matrix A.

    Golub & Van Loan's column append: z = Q^T a, then one Householder
    reflector H (LAPACK's dlarfg convention) maps z[p:] to beta e_1. Returns
    (Q H', z') with H' = diag(I_p, H), which differs from Q in columns p..
    only, and z' = (z[:p], beta), the new column of R down to its diagonal.
    O(N^2); Q is not modified. Needs p < N.
    """
    z = Q.T.dot(a)
    w = z[p:]
    alpha = w[0]
    xnorm = math.sqrt(float(w[1:].dot(w[1:])))
    Q = Q.copy()
    if xnorm > 0.0:
        beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
        v = w / (alpha - beta)
        v[0] = 1.0
        T = Q[:, p:]
        T -= np.outer(T.dot(v) * ((beta - alpha) / beta), v)
        z[p] = beta
    return Q, z[:p + 1]


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
