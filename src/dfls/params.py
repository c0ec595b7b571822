"""Solver parameters, with separate default profiles for smooth and noisy objectives.

Fields left as None are resolved at solve time from the problem dimension and
the `noisy` flag: gamma_dec/alpha1/alpha2 default to (0.5, 0.1, 0.5) for
smooth objectives and (0.98, 0.9, 0.95) for noisy ones, p defaults to n,
p_init to p, delta0 to 0.1*max(||x0||_inf, 1) clamped to half the narrowest
free box width, and restarts default to enabled (soft, moving the base point)
exactly when the objective is noisy.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

__all__ = [
    "SolverParams",
    "RestartConfig",
    "SlowDecreaseConfig",
    "NoiseLevelConfig",
    "resolve_params",
    "nsamples_policy",
]

RESTART_KINDS = ("hard", "soft_moving", "soft_fixed")
# "svd" is the singular-value rank repair of the growing Jacobian (computed
# from QRs, see model.fit_model_and_basis); "perturb" perturbs steps instead.
GROWING_MODES = ("svd", "perturb")
MULTI_MOVE_MECHANISMS = ("nothing", "geometry", "momentum")


@dataclass
class RestartConfig:
    enabled: Optional[bool] = None   # None -> follow the noisy flag
    kind: str = "soft_moving"
    n_move: Optional[int] = None     # None -> min(3, p)
    max_failed: int = 10             # consecutive restarts without improvement
    autodetect: bool = True
    window: int = 30
    slope_threshold: float = 0.015
    corr_threshold: float = 0.1


@dataclass
class SlowDecreaseConfig:
    window: int = 5          # successful iterations per log-decrease average
    threshold: float = 1e-4
    consecutive: int = 5     # slow successes in a row before triggering


@dataclass
class NoiseLevelConfig:
    """Terminate (or restart) when all set values sit within the noise level."""

    level: float
    multiplicative: bool = False
    scale: float = 1.0


@dataclass
class SolverParams:
    delta0: Optional[float] = None
    delta_max: float = 1e10
    rho_end: float = 1e-8
    gamma_dec: Optional[float] = None
    gamma_inc: float = 2.0
    gamma_inc_bar: float = 4.0
    alpha1: Optional[float] = None
    alpha2: Optional[float] = None
    eta1: float = 0.1
    eta2: float = 0.7
    omega_safety: float = 0.1
    gamma_safety: float = 0.5
    noisy: bool = False
    p: Optional[int] = None
    p_init: Optional[int] = None
    max_evals: Optional[int] = None  # None -> 1000 * (n + 1)
    eps_abs: float = 1e-12
    eps_rel: float = 1e-20
    geom_delta_mult: float = 2.0
    geom_rho_mult: float = 10.0
    restarts: RestartConfig = field(default_factory=RestartConfig)
    slow: SlowDecreaseConfig = field(default_factory=SlowDecreaseConfig)
    noise_level: Optional[NoiseLevelConfig] = None
    nsamples: Union[str, Callable] = "one"
    multi_move: str = "nothing"
    multi_move_count: Optional[int] = None  # None -> min(3, p)
    growing: str = "svd"
    growing_perturb_mult: float = 1.0
    scale_variables: bool = False


def nsamples_policy(spec):
    """Turn an nsamples spec into a callable (rho, delta, k, n_restarts) -> int.

    Accepted names: "one", "invdelta", "restart-scaled", "const:N". Callables
    pass through unchanged.
    """
    if callable(spec):
        return spec
    if spec == "one":
        return lambda rho, delta, k, n_restarts: 1
    if spec == "invdelta":
        return lambda rho, delta, k, n_restarts: max(1, math.floor(1.0 / delta))
    if spec == "restart-scaled":
        return lambda rho, delta, k, n_restarts: min(n_restarts + 1, 30)
    if isinstance(spec, str) and spec.startswith("const:"):
        const = int(spec.split(":", 1)[1])
        if const < 1:
            raise ValueError("const sample count must be >= 1")
        return lambda rho, delta, k, n_restarts: const
    raise ValueError(f"unknown nsamples policy {spec!r}")


def resolve_params(params, n, x0_norm_inf, box_width=math.inf):
    """Fill in dimension- and noise-dependent defaults and validate invariants.

    box_width is the narrowest width of the box over the free variables. Half
    of it caps delta0, so the initial points fit in the box: the default is
    clamped to it, and an explicit delta0 above it, or a half-width no larger
    than rho_end, is a ValueError.
    """
    p = replace(params)
    noisy = p.noisy
    if p.gamma_dec is None:
        p.gamma_dec = 0.98 if noisy else 0.5
    if p.alpha1 is None:
        p.alpha1 = 0.9 if noisy else 0.1
    if p.alpha2 is None:
        p.alpha2 = 0.95 if noisy else 0.5
    if p.delta0 is None:
        p.delta0 = min(0.1 * max(x0_norm_inf, 1.0), 0.5 * box_width)
    if p.p is None:
        p.p = n
    if p.p_init is None:
        p.p_init = p.p
    if p.max_evals is None:
        p.max_evals = 1000 * (n + 1)
    p.restarts = replace(p.restarts)
    if p.restarts.enabled is None:
        p.restarts.enabled = noisy
    if p.restarts.n_move is None:
        p.restarts.n_move = min(3, p.p)
    if p.multi_move_count is None:
        p.multi_move_count = min(3, p.p)
    p.slow = replace(p.slow)

    if not 0.0 < p.gamma_dec < 1.0 < p.gamma_inc <= p.gamma_inc_bar:
        raise ValueError("need 0 < gamma_dec < 1 < gamma_inc <= gamma_inc_bar")
    if not 0.0 < p.alpha1 < p.alpha2 < 1.0:
        raise ValueError("need 0 < alpha1 < alpha2 < 1")
    if not 0.0 < p.eta1 <= p.eta2 < 1.0:
        raise ValueError("need 0 < eta1 <= eta2 < 1")
    if not 0.5 * box_width > p.rho_end:
        raise ValueError(f"the narrowest free box width {box_width:g} must exceed "
                         f"2 * rho_end = {2.0 * p.rho_end:g}")
    if p.delta0 > 0.5 * box_width:
        raise ValueError(f"delta0 = {p.delta0:g} exceeds half the narrowest free "
                         f"box width {box_width:g}")
    if not 0.0 < p.rho_end < p.delta0 <= p.delta_max:
        raise ValueError("need 0 < rho_end < delta0 <= delta_max")
    if not 0.0 < p.omega_safety < 1.0:
        raise ValueError("need 0 < omega_safety < 1")
    if not 0.0 < p.gamma_safety < 1.0:
        raise ValueError("need 0 < gamma_safety < 1")
    if not 1 <= p.p_init <= p.p or p.p < n:
        raise ValueError("need 1 <= p_init <= p and p >= n")
    if p.max_evals < 1:
        raise ValueError("need max_evals >= 1")
    if p.restarts.kind not in RESTART_KINDS:
        raise ValueError(f"unknown restart kind {p.restarts.kind!r}")
    if p.growing not in GROWING_MODES:
        raise ValueError(f"unknown growing mode {p.growing!r}")
    if p.multi_move not in MULTI_MOVE_MECHANISMS:
        raise ValueError(f"unknown multi-move mechanism {p.multi_move!r}")
    nsamples_policy(p.nsamples)  # validate eagerly
    return p
