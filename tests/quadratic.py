"""The bare quadratic and the formed Hessian: reference objects for the tests.

The solver's only models are the fitted residual models, which never form
H = 2 J^T J. The tests' references read H as a matrix: a Quadratic holds it,
and formed_hessian(model) forms it for a fitted model.
"""

import numpy as np

from dfls.model import FullModel, MinNormModel, _certified, _spectral_norm


class Quadratic(FullModel):
    """m(s) = c + g.s + 0.5 s.H.s, answering from H by row sums and eigvalsh.

    It has no r or J, so solve_trust_region must take the CG on it: n above
    EXACT_STEP_MAX_N or a box face inside the ball.
    """

    def __init__(self, c, g, H):
        self.c = c
        self.g = g
        self.H = H

    def hdot(self, v):
        return self.H.dot(v)

    def curvature(self, v):
        return float(v.dot(self.H).dot(v))

    def hnorm_bound(self):
        """The largest absolute row sum of H."""
        return _certified(float(np.abs(self.H).sum(axis=1).max()), self.g.size)

    def hnorm(self):
        return _spectral_norm(self.H)


def formed_hessian(model):
    """H = 2 J^T J of a fitted model: from J, or from a growing model's factors.

    A MinNormModel's H is 2 Q~ blockdiag(gram, level^2 I_k) Q~^T, so its J is
    not formed.
    """
    if isinstance(model, MinNormModel):
        p, k = model.C.shape[1], model.y.size
        Qp, N = model.Q[:, :p], model.Q[:, p:p + k]
        JtJ = Qp.dot(model.gram).dot(Qp.T)
        if k:
            JtJ += model.level ** 2 * N.dot(N.T)
        return 2.0 * JtJ
    return 2.0 * model.J.T.dot(model.J)
