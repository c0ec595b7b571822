"""Derivative-free trust-region solver for nonlinear least-squares problems.

The solver builds linear regression models of the residual vector over an
interpolation set, minimizes the induced quadratic objective model inside a
trust region, and adds restart, sampling and regression mechanisms for noisy
objectives. A benchmark harness with noise models and adaptive-accuracy data
profiles lives in :mod:`dfls.bench`.

Basic use::

    import numpy as np, dfls

    def residuals(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    result = dfls.solve(residuals, np.array([-1.2, 1.0]), seed=0)
    print(result.x, result.f)
"""

from .linalg import DegenerateSetError, LinearFit, linear_fit, random_orthonormal
from .model import (
    FullModel,
    InterpolationSet,
    LagrangeBasis,
    LinearResidualModel,
    MinNormModel,
    build_initial_set,
    build_linear_model,
    full_model,
    geometry_point,
    lagrange_basis,
    needs_geometry_improvement,
    poisedness_estimate,
)
from .params import (
    NoiseLevelConfig,
    RestartConfig,
    SlowDecreaseConfig,
    SolverParams,
    nsamples_policy,
)
from .problems import (
    LeastSquaresProblem,
    NoiseModel,
    NoisyProblem,
    catalog,
    expected_noisy_objective,
    get_problem,
    noise_std_at,
)
from .solver import (
    EXIT_BUDGET,
    EXIT_NOISE_LEVEL,
    EXIT_RESTARTS_EXHAUSTED,
    EXIT_SLOW_PROGRESS,
    EXIT_SMALL_OBJECTIVE,
    EXIT_SMALL_TRUST_REGION,
    Results,
    apply_variable_scaling,
    solve,
)
from .trustregion import cauchy_point, solve_trust_region

__version__ = "0.1.0"
