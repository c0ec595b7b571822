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

# Relative threshold below which a singular value counts as zero.
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
    W = np.asarray(W, dtype=float)
    B = np.asarray(B, dtype=float)
    if W.shape[0] < W.shape[1]:
        raise ValueError("system is underdetermined; use solve_min_norm")
    Z, _, rank, _ = np.linalg.lstsq(W, B, rcond=RANK_TOL)
    if rank < W.shape[1]:
        raise DegenerateSetError("degenerate interpolation set")
    return Z


def solve_min_norm(W, B):
    """Minimal Euclidean-norm solution of the underdetermined system W z = B.

    W is (p+1) x (n+1) with p < n and must have full row rank. Each output
    column satisfies W z = b exactly and lies in the row space of W.
    """
    W = np.asarray(W, dtype=float)
    B = np.asarray(B, dtype=float)
    if W.shape[0] > W.shape[1]:
        raise ValueError("system is overdetermined; use solve_regression")
    Z, _, rank, _ = np.linalg.lstsq(W, B, rcond=RANK_TOL)
    if rank < W.shape[0]:
        raise DegenerateSetError("degenerate interpolation set")
    return Z


def clamp_singular_values(J, p):
    """Raise the trailing singular values of a rank-p matrix to sigma_p.

    Returns a matrix with the same leading p singular triplets as J but whose
    singular values p+1.. are raised to the level of sigma_p, so the result
    has full rank. If sigma_p itself is (numerically) zero the clamped
    directions are set to 1.0 instead, and a diagnostic is logged.

    Idempotent: applying the repair twice gives the same matrix.
    """
    J = np.asarray(J, dtype=float)
    m, n = J.shape
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    U, sigma, Vt = np.linalg.svd(J, full_matrices=False)
    level = sigma[p - 1] if p <= len(sigma) else 0.0
    if level < RANK_TOL * max(sigma[0], 1e-300):
        level = 1.0
        logger.warning("rank repair fallback: leading singular value below tolerance")
    sigma = sigma.copy()
    sigma[p:] = np.maximum(sigma[p:], level)
    return (U * sigma) @ Vt


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


def orthogonal_complement_direction(directions, rng):
    """A random unit vector orthogonal to the span of the given row vectors.

    `directions` is a (k, n) array with k < n.
    """
    D = np.atleast_2d(np.asarray(directions, dtype=float))
    n = D.shape[1]
    Q, _ = np.linalg.qr(D.T)  # columns span the row space of D
    for _ in range(50):
        v = rng.standard_normal(n)
        v -= Q @ (Q.T @ v)
        nv = np.linalg.norm(v)
        if nv > 1e-10:
            return v / nv
    raise DegenerateSetError("no orthogonal direction found")
