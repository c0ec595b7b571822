"""Built-in nonlinear least-squares test problems and stochastic noise wrappers.

The catalog covers a classic set of small dense least-squares problems plus
scalable medium-dimensional families at n in {25, 50, 100}. Reference optimal
values f_star (and minimizers, where recorded) were obtained from a
high-accuracy derivative-based solve started at x0 and are frozen here;
tests re-derive them independently.
"""

import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "LeastSquaresProblem",
    "NoiseModel",
    "NoisyProblem",
    "expected_noisy_objective",
    "noise_std_at",
    "catalog",
    "get_problem",
]

NOISE_KINDS = ("none", "mult_gaussian", "add_gaussian", "add_chi2")


@dataclass
class LeastSquaresProblem:
    name: str
    n: int
    m: int
    residual: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    f_star: float
    bounds: Optional[tuple] = None
    x_star: Optional[np.ndarray] = None
    zero_residual: bool = False
    scalable: bool = False

    def objective(self, x):
        r = self.residual(np.asarray(x, dtype=float))
        return float(r @ r)


@dataclass
class NoiseModel:
    kind: str = "none"
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    @property
    def deterministic(self):
        return self.kind == "none" or self.sigma == 0.0


def _apply_noise(r, noise, eps):
    if noise.kind == "mult_gaussian":
        return (1.0 + eps) * r
    if noise.kind == "add_gaussian":
        return r + eps
    if noise.kind == "add_chi2":
        return np.sqrt(r * r + eps * eps)
    return r


class NoisyProblem:
    """A least-squares problem observed through one of the noise models.

    Each instance owns a seeded random stream keyed by (seed, problem name,
    run index), so suites parallelized over (problem, seed) tuples give
    schedule-independent results. Callable: returns one noisy residual draw.
    Both evaluation methods keep the noise-free residual they computed in
    ``last_residual``, so callers can read the true objective out of band.
    """

    def __init__(self, base, noise, seed=0, run=0):
        self.base = base
        self.noise = noise
        self.seed = int(seed)
        self.run = int(run)
        key = (int(seed), zlib.crc32(base.name.encode()), int(run))
        self._rng = np.random.default_rng(np.random.SeedSequence(key))
        self.last_residual = None

    def _clean_residual(self, x):
        r = self.base.residual(np.asarray(x, dtype=float))
        if not np.all(np.isfinite(r)):
            raise FloatingPointError(f"residual evaluation failed for {self.base.name}")
        self.last_residual = r
        return r

    def __call__(self, x):
        """One noisy residual-vector evaluation; draws fresh noise per component."""
        r = self._clean_residual(x)
        if self.noise.deterministic:
            return r
        eps = self._rng.normal(0.0, self.noise.sigma, size=r.shape)
        return _apply_noise(r, self.noise, eps)

    def sample_mean(self, x, n_samples):
        """Mean of n_samples independent noisy draws at x.

        The base residual is deterministic, so it is evaluated once and the
        noise drawn as a batch; equivalent in distribution to averaging
        n_samples separate calls, at a fraction of the cost.
        """
        r = self._clean_residual(x)
        if self.noise.deterministic:
            return r.copy()
        eps = self._rng.normal(0.0, self.noise.sigma, size=(int(n_samples), r.size))
        return _apply_noise(r[None, :], self.noise, eps).mean(axis=0)



def expected_noisy_objective(problem, noise, x=None, f=None):
    """Closed-form E[f~(x)] under the given noise model.

    Either x or the true objective value f must be supplied; with f given,
    problem only needs the residual count m (a RunRecord serves as well).
    """
    if f is None:
        f = problem.objective(x)
    if noise.deterministic:
        return float(f)
    if noise.kind == "mult_gaussian":
        return float((1.0 + noise.sigma**2) * f)
    # Additive Gaussian and additive chi^2 both shift the mean by m sigma^2.
    return float(f + problem.m * noise.sigma**2)


def noise_std_at(problem, noise, x):
    """Closed-form standard deviation of the noisy objective f~(x).

    With eps_i ~ N(0, sigma^2) independent and r = r(x): multiplicative noise
    gives sqrt((4 sigma^2 + 2 sigma^4) sum r_i^4), additive Gaussian noise
    sqrt(4 sigma^2 f + 2 m sigma^4) with f = ||r||^2, and additive chi^2
    noise sigma^2 sqrt(2 m).
    """
    if noise.deterministic:
        return 0.0
    r = problem.residual(np.asarray(x, dtype=float))
    s2 = noise.sigma**2
    if noise.kind == "mult_gaussian":
        return float(np.sqrt((4.0 * s2 + 2.0 * s2 * s2) * np.sum(r**4)))
    if noise.kind == "add_gaussian":
        return float(np.sqrt(4.0 * s2 * (r @ r) + 2.0 * r.size * s2 * s2))
    return float(s2 * np.sqrt(2.0 * r.size))


# ---------------------------------------------------------------------------
# Residual functions (classic dense test set)
# ---------------------------------------------------------------------------

def _linear_full_rank(x, m):
    n = x.size
    t = 2.0 * x.sum() / m + 1.0
    out = np.full(m, -t)
    out[:n] += x
    return out


def _linear_rank1(x, m):
    n = x.size
    s = float(np.arange(1, n + 1) @ x)
    return np.arange(1, m + 1) * s - 1.0


def _rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def _helical_valley(x):
    if x[0] > 0:
        theta = np.arctan(x[1] / x[0]) / (2 * np.pi)
    elif x[0] < 0:
        theta = np.arctan(x[1] / x[0]) / (2 * np.pi) + 0.5
    else:
        theta = 0.25 * np.sign(x[1])
    return np.array([
        10.0 * (x[2] - 10.0 * theta),
        10.0 * (np.hypot(x[0], x[1]) - 1.0),
        x[2],
    ])


def _powell_singular(x):
    return np.array([
        x[0] + 10.0 * x[1],
        np.sqrt(5.0) * (x[2] - x[3]),
        (x[1] - 2.0 * x[2]) ** 2,
        np.sqrt(10.0) * (x[0] - x[3]) ** 2,
    ])


def _freudenstein_roth(x):
    return np.array([
        -13.0 + x[0] + ((5.0 - x[1]) * x[1] - 2.0) * x[1],
        -29.0 + x[0] + ((1.0 + x[1]) * x[1] - 14.0) * x[1],
    ])


_BARD_Y = np.array([0.14, 0.18, 0.22, 0.25, 0.29, 0.32, 0.35, 0.39,
                    0.37, 0.58, 0.73, 0.96, 1.34, 2.10, 4.39])


def _bard(x):
    m = 15
    i = np.arange(1, m + 1)
    u = i
    v = m + 1 - i
    w = np.minimum(u, v)
    return _BARD_Y - (x[0] + u / (x[1] * v + x[2] * w))


_KOWALIK_Y = np.array([0.1957, 0.1947, 0.1735, 0.1600, 0.0844, 0.0627,
                       0.0456, 0.0342, 0.0323, 0.0235, 0.0246])
_KOWALIK_U = np.array([4.0, 2.0, 1.0, 0.5, 0.25, 0.167, 0.125, 0.1,
                       0.0833, 0.0714, 0.0625])


def _kowalik_osborne(x):
    u = _KOWALIK_U
    return _KOWALIK_Y - x[0] * u * (u + x[1]) / (u * (u + x[2]) + x[3])


_MEYER_Y = np.array([34780.0, 28610.0, 23650.0, 19630.0, 16370.0, 13720.0,
                     11540.0, 9744.0, 8261.0, 7030.0, 6005.0, 5147.0,
                     4427.0, 3820.0, 3307.0, 2872.0])


def _meyer(x):
    t = 45.0 + 5.0 * np.arange(1, 17)
    return x[0] * np.exp(x[1] / (t + x[2])) - _MEYER_Y


_WATSON_POWERS = {}  # n -> per row i: (t^0 .. t^(n-2), t^0 .. t^(n-1)), t = i/29


def _watson(x):
    n = x.size
    powers = _WATSON_POWERS.get(n)
    if powers is None:
        powers = _WATSON_POWERS[n] = [(t ** np.arange(n - 1), t ** np.arange(n))
                                      for t in (i / 29.0 for i in range(1, 30))]
    dx = np.arange(1, n) * x[1:]
    out = np.zeros(31)
    for i, (tp1, tp) in enumerate(powers):
        s1 = float(dx @ tp1)
        s2 = float(x @ tp)
        out[i] = s1 - s2 * s2 - 1.0
    out[29] = x[0]
    out[30] = x[1] - x[0] ** 2 - 1.0
    return out


def _box_3d(x, m):
    i = np.arange(1, m + 1)
    t = i / 10.0
    return np.exp(-t * x[0]) - np.exp(-t * x[1]) - x[2] * (np.exp(-t) - np.exp(-i * 1.0))


def _jennrich_sampson(x, m):
    i = np.arange(1, m + 1)
    return 2.0 + 2.0 * i - (np.exp(i * x[0]) + np.exp(i * x[1]))


def _brown_dennis(x, m):
    t = np.arange(1, m + 1) / 5.0
    a = x[0] + t * x[1] - np.exp(t)
    b = x[2] + x[3] * np.sin(t) - np.cos(t)
    return a * a + b * b


def _gaussian(x):
    t = (8.0 - np.arange(1, 16)) / 2.0
    y = np.array([0.0009, 0.0044, 0.0175, 0.0540, 0.1295, 0.2420, 0.3521,
                  0.3989, 0.3521, 0.2420, 0.1295, 0.0540, 0.0175, 0.0044, 0.0009])
    return x[0] * np.exp(-0.5 * x[1] * (t - x[2]) ** 2) - y


def _chebyquad(x, m):
    n = x.size
    out = np.zeros(m)
    for xi in x:
        t0 = 1.0
        t1 = 2.0 * xi - 1.0
        z = 2.0 * t1
        for j in range(m):
            out[j] += t1
            t0, t1 = t1, z * t1 - t0
    i = np.arange(1, m + 1)
    out /= n
    out[1::2] += 1.0 / (i[1::2] ** 2 - 1.0)
    return out


def _brown_almost_linear(x):
    n = x.size
    out = x + x.sum() - (n + 1)
    out[-1] = x.prod() - 1.0
    return out


_OSBORNE1_Y = np.array([0.844, 0.908, 0.932, 0.936, 0.925, 0.908, 0.881,
                        0.850, 0.818, 0.784, 0.751, 0.718, 0.685, 0.658,
                        0.628, 0.603, 0.580, 0.558, 0.538, 0.522, 0.506,
                        0.490, 0.478, 0.467, 0.457, 0.448, 0.438, 0.431,
                        0.424, 0.420, 0.414, 0.411, 0.406])


def _osborne1(x):
    t = 10.0 * np.arange(33)
    return _OSBORNE1_Y - (x[0] + x[1] * np.exp(-t * x[3]) + x[2] * np.exp(-t * x[4]))


_OSBORNE2_Y = np.array([1.366, 1.191, 1.112, 1.013, 0.991, 0.885, 0.831,
                        0.847, 0.786, 0.725, 0.746, 0.679, 0.608, 0.655,
                        0.616, 0.606, 0.602, 0.626, 0.651, 0.724, 0.649,
                        0.649, 0.694, 0.644, 0.624, 0.661, 0.612, 0.558,
                        0.533, 0.495, 0.500, 0.423, 0.395, 0.375, 0.372,
                        0.391, 0.396, 0.405, 0.428, 0.429, 0.523, 0.562,
                        0.607, 0.653, 0.672, 0.708, 0.633, 0.668, 0.645,
                        0.632, 0.591, 0.559, 0.597, 0.625, 0.739, 0.710,
                        0.729, 0.720, 0.636, 0.581, 0.428, 0.292, 0.162,
                        0.098, 0.054])


def _osborne2(x):
    t = np.arange(65) / 10.0
    return _OSBORNE2_Y - (x[0] * np.exp(-t * x[4])
                          + x[1] * np.exp(-x[5] * (t - x[8]) ** 2)
                          + x[2] * np.exp(-x[6] * (t - x[9]) ** 2)
                          + x[3] * np.exp(-x[7] * (t - x[10]) ** 2))


def _broyden_tridiagonal(x):
    n = x.size
    out = (3.0 - 2.0 * x) * x + 1.0
    out[1:] -= x[:-1]
    out[:-1] -= 2.0 * x[1:]
    return out


def _broyden_banded(x):
    n = x.size
    out = x * (2.0 + 5.0 * x * x) + 1.0
    for i in range(n):
        lo = max(0, i - 5)
        hi = min(n, i + 2)
        for j in range(lo, hi):
            if j != i:
                out[i] -= x[j] * (1.0 + x[j])
    return out


def _mancino(x):
    n = x.size
    out = np.zeros(n)
    i = np.arange(1, n + 1)
    for k in range(n):
        h = np.sqrt(x[k] ** 2 + (k + 1) / i)
        logh = np.log(h)
        out[k] = 1400.0 * x[k] + (k + 1 - 50.0) ** 3 + np.sum(
            h * (np.sin(logh) ** 5 + np.cos(logh) ** 5))
    return out


def _mancino_x0(n):
    x = np.zeros(n)
    for k in range(1, n + 1):
        s = 0.0
        for j in range(1, n + 1):
            h = np.sqrt(k / j)
            s += h * (np.sin(np.log(h)) ** 5 + np.cos(np.log(h)) ** 5)
        x[k - 1] = -8.7110e-04 * ((k - 50.0) ** 3 + s)
    return x


def _bdqrtic(x):
    n = x.size
    out = np.empty(2 * (n - 4))
    out[:n - 4] = -4.0 * x[:n - 4] + 3.0
    out[n - 4:] = (x[:n - 4] ** 2 + 2.0 * x[1:n - 3] ** 2 + 3.0 * x[2:n - 2] ** 2
                   + 4.0 * x[3:n - 1] ** 2 + 5.0 * x[n - 1] ** 2)
    return out


def _cube(x):
    out = np.empty(x.size)
    out[0] = x[0] - 1.0
    out[1:] = 10.0 * (x[1:] - x[:-1] ** 3)
    return out


def _rosenbrock_chained(x):
    out = np.empty(2 * (x.size - 1))
    out[0::2] = 10.0 * (x[1:] - x[:-1] ** 2)
    out[1::2] = 1.0 - x[:-1]
    return out


def _vardim(x):
    n = x.size
    s = float(np.arange(1, n + 1) @ (x - 1.0))
    return np.concatenate([x - 1.0, [s, s * s]])


def _vardim_x0(n):
    return 1.0 - np.arange(1, n + 1) / n


def _penalty1(x):
    a = np.sqrt(1e-5)
    return np.concatenate([a * (x - 1.0), [float(x @ x) - 0.25]])


def _integreq(x):
    n = x.size
    h = 1.0 / (n + 1)
    t = h * np.arange(1, n + 1)
    cube = (x + t + 1.0) ** 3
    left = np.cumsum(t * cube)
    right = np.concatenate([np.cumsum(((1.0 - t) * cube)[::-1])[::-1][1:], [0.0]])
    return x + h * ((1.0 - t) * left + t * right) / 2.0


def _integreq_x0(n):
    t = np.arange(1, n + 1) / (n + 1)
    return t * (t - 1.0)


def _rosenbrock_chained_x0(n):
    x = np.empty(n)
    x[0::2] = -1.2
    x[1::2] = 1.0
    return x

# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------
# f_star / x_star frozen from a high-accuracy derivative-based solve started
# at x0 (zero-residual optima are recorded as exactly 0). watson_12 was
# refined by Gauss-Newton in 50-digit arithmetic with the exact Jacobian.

_XSTAR = {
    "linear_full_rank": -np.ones(9),
    "linear_rank1": np.array([46.130577363586, 91.261154727172, -55.974277280188,
                              181.522309454344, -91.766278074941, -112.948554560376,
                              49.963668351907]),
    "rosenbrock": np.array([1.0, 1.0]),
    "helical_valley": np.array([1.0, 0.0, 0.0]),
    "powell_singular": np.zeros(4),
    "freudenstein_roth": np.array([11.412778838019, -0.896805257117]),
    "bard": np.array([0.082410560089, 1.133036100408, 2.343695170712]),
    "kowalik_osborne": np.array([0.192806935575, 0.191282315944, 0.123056508694, 0.136062324416]),
    "meyer": np.array([5.609636212014e-03, 6.181346384753e+03, 3.452236359181e+02]),
    "watson": np.array([-0.015725072746, 1.012434861768, -0.232991591172,
                        1.260430120393, -1.513729040254, 0.992996521962]),
    "box_3d": np.array([1.0, 10.0, 1.0]),
    "jennrich_sampson": np.array([0.257825213736, 0.257825213493]),
    "brown_dennis": np.array([-11.594439741351, 13.203629989624, -0.403439519786, 0.236778725372]),
    "chebyquad": np.array([0.043152763024, 0.193090844479, 0.266328708785, 0.500000000991,
                           0.500000005148, 0.733671295959, 0.806909163608, 0.956847243767]),
    "brown_almost_linear": np.ones(10),
    "osborne1": np.array([0.375410051796, 1.935846881618, -1.46468710527,
                          0.012867534575, 0.022122699784]),
    "osborne2": np.array([1.309977154911, 0.431553794201, 0.633661698539, 0.599430532253,
                          0.754183223739, 0.904288596179, 1.3658118185, 4.82369884146,
                          2.398684865128, 4.568874598049, 5.675341471352]),
    "gaussian": np.array([3.989561378384e-01, 1.000019084485e+00, 0.0]),
    "broyden_tridiagonal": np.array([-0.570722132011, -0.681806949984, -0.702210076018,
                                     -0.705510629895, -0.704906155729, -0.70149660703,
                                     -0.691889322355, -0.665796514406, -0.596035109026,
                                     -0.416412257529]),
    "broyden_banded": np.array([-0.428302863587, -0.476596424356, -0.519652463647,
                                -0.558099324832, -0.592506156829, -0.624503682199,
                                -0.623239471441, -0.621393841797, -0.620453596659,
                                -0.58646927072]),
    "mancino": np.array([84.635919215942, 79.507642310522, 74.588572492086, 69.877914068339,
                         65.374448246849, 61.076265307889, 56.980540884282, 53.083389216602,
                         49.379816810524, 45.863785918332, 42.528382259398, 39.36606891417]),
    "rosenbrock_x10": np.array([1.0, 1.0]),
    "helical_valley_x10": np.array([1.0, 0.0, 0.0]),
    "powell_singular_x10": np.zeros(4),
    "freudenstein_roth_x10": np.array([11.412779039976, -0.89680525479]),
    "bard_x10": np.array([8.406666708291e-01, 4.207208731765e+10, 3.954970933122e+10]),
    "box_3d_x10": np.array([1.0, 10.0, 1.0]),
    "brown_dennis_x10": np.array([-11.594439777842, 13.20362997547, -0.403439606896, 0.236779347727]),
    "brown_almost_linear_x10": np.array([0.97943030335, 0.97943030335, 0.97943030335,
                                         0.97943030335, 0.97943030335, 0.97943030335,
                                         0.97943030335, 0.97943030335, 0.97943030335,
                                         1.205696966501]),
    "broyden_tridiagonal_x10": np.array([-0.570722132011, -0.681806949984, -0.702210076018,
                                         -0.705510629895, -0.704906155729, -0.70149660703,
                                         -0.691889322355, -0.665796514406, -0.596035109026,
                                         -0.416412257529]),
    "watson_9": np.array([-1.535301794048e-05, 9.997897406534e-01, 1.476307224783e-02,
                          1.463495628160e-01, 1.000791210266e+00, -2.617666441889e+00,
                          4.104326509668e+00, -3.143565118848e+00, 1.052614568934e+00]),
    "watson_12": np.array([-6.638060464521e-09, 1.000001644118e+00, -5.639322103423e-04,
                           3.478205405040e-01, -1.567315040962e-01, 1.052815177207e+00,
                           -3.247271153460e+00, 7.288434897938e+00, -1.027184824132e+01,
                           9.074113647075e+00, -4.541375466693e+00, 1.012011888553e+00]),
    "bdqrtic_8": np.array([6.160754436332e-01, 4.861767172160e-01, 3.919029365969e-01,
                           3.263505234244e-01, 5.456699328889e-06, 4.421007056232e-06,
                           3.425988972945e-07, -2.281562373581e-09]),
    "bdqrtic_12": np.array([6.248003655844e-01, 4.853765219885e-01, 3.716591296278e-01,
                            2.859718454535e-01, 3.155200194244e-01, 3.253724443497e-01,
                            3.378186094813e-01, 3.740202252976e-01, 1.188394717172e-06,
                            -4.160725147298e-06, 4.018272343484e-06, 2.220446049250e-16]),
    "cube_5": np.ones(5),
    "cube_8": np.ones(8),
}


def _make_catalog():
    probs = []

    def add(name, residual, x0, m, f_star, zero=False, scalable=False, x_star=None):
        x0 = np.asarray(x0, dtype=float)
        probs.append(LeastSquaresProblem(
            name=name, n=x0.size, m=m, residual=residual, x0=x0,
            f_star=f_star, x_star=_XSTAR.get(name) if x_star is None else x_star,
            zero_residual=zero, scalable=scalable))

    add("linear_full_rank", lambda x: _linear_full_rank(x, 45), np.ones(9), 45, 36.0)
    add("linear_rank1", lambda x: _linear_rank1(x, 35), np.ones(7), 35, 8.380281690141e+00)
    add("rosenbrock", _rosenbrock, [-1.2, 1.0], 2, 0.0, zero=True)
    add("helical_valley", _helical_valley, [-1.0, 0.0, 0.0], 3, 0.0, zero=True)
    add("powell_singular", _powell_singular, [3.0, -1.0, 0.0, 1.0], 4, 0.0, zero=True)
    add("freudenstein_roth", _freudenstein_roth, [0.5, -2.0], 2, 4.898425367924e+01)
    add("bard", _bard, [1.0, 1.0, 1.0], 15, 8.214877306579e-03)
    add("kowalik_osborne", _kowalik_osborne, [0.25, 0.39, 0.415, 0.39], 11, 3.075056038492e-04)
    add("meyer", _meyer, [0.02, 4000.0, 250.0], 16, 8.794585517047e+01)
    add("watson", _watson, 0.5 * np.ones(6), 31, 2.287670053553e-03)
    add("box_3d", lambda x: _box_3d(x, 10), [0.0, 10.0, 20.0], 10, 0.0, zero=True)
    add("jennrich_sampson", lambda x: _jennrich_sampson(x, 10), [0.3, 0.4], 10, 1.243621823556e+02)
    add("brown_dennis", lambda x: _brown_dennis(x, 20), [25.0, 5.0, -5.0, -1.0], 20, 8.582220162636e+04)
    add("chebyquad", lambda x: _chebyquad(x, 8), np.arange(1.0, 9.0) / 9.0, 8, 3.516873725678e-03)
    add("brown_almost_linear", _brown_almost_linear, 0.5 * np.ones(10), 10, 0.0, zero=True)
    add("osborne1", _osborne1, [0.5, 1.5, -1.0, 0.01, 0.02], 33, 5.464894697483e-05)
    add("osborne2", _osborne2,
        [1.3, 0.65, 0.65, 0.7, 0.6, 3.0, 5.0, 7.0, 2.0, 4.5, 5.5], 65, 4.013773629355e-02)
    add("gaussian", _gaussian, [0.4, 1.0, 0.0], 15, 1.127932769619e-08)
    add("broyden_tridiagonal", _broyden_tridiagonal, -np.ones(10), 10, 0.0, zero=True)
    add("broyden_banded", _broyden_banded, -np.ones(10), 10, 0.0, zero=True)
    add("mancino", _mancino, _mancino_x0(12), 12, 0.0, zero=True)

    # Scaled-start variants (10 x0), as in the source collection, plus a
    # higher-dimensional fit; these supply the harder journeys of the set.
    add("rosenbrock_x10", _rosenbrock, [-12.0, 10.0], 2, 0.0, zero=True)
    add("helical_valley_x10", _helical_valley, [-10.0, 0.0, 0.0], 3, 0.0, zero=True)
    add("powell_singular_x10", _powell_singular, [30.0, -10.0, 0.0, 10.0], 4, 0.0, zero=True)
    add("freudenstein_roth_x10", _freudenstein_roth, [5.0, -20.0], 2, 4.898425367924e+01)
    add("bard_x10", _bard, [10.0, 10.0, 10.0], 15, 1.742869333184e+01)
    add("box_3d_x10", lambda x: _box_3d(x, 10), [0.0, 100.0, 200.0], 10, 0.0, zero=True)
    add("brown_dennis_x10", lambda x: _brown_dennis(x, 20), [250.0, 50.0, -50.0, -10.0], 20,
        8.582220162636e+04)
    add("brown_almost_linear_x10", _brown_almost_linear, 5.0 * np.ones(10), 10, 0.0, zero=True)
    add("broyden_tridiagonal_x10", _broyden_tridiagonal, -10.0 * np.ones(10), 10, 0.0, zero=True)
    add("watson_9", _watson, 0.5 * np.ones(9), 31, 1.399760156101e-06)
    add("watson_12", _watson, 0.5 * np.ones(12), 31, 4.722381105892e-10)
    add("bdqrtic_8", _bdqrtic, np.ones(8), 8, 1.023897342167e+01)
    add("bdqrtic_12", _bdqrtic, np.ones(12), 16, 2.627276639689e+01)
    add("cube_5", _cube, 0.5 * np.ones(5), 5, 0.0, zero=True)
    add("cube_8", _cube, 0.5 * np.ones(8), 8, 0.0, zero=True)

    penalty1_fstar = {25: 2.024979752025e-04, 50: 4.317850045986e-04,
                      100: 9.024909768043e-04}
    for n in (25, 50, 100):
        add(f"rosenbrock_chained_{n}", _rosenbrock_chained, _rosenbrock_chained_x0(n),
            2 * (n - 1), 0.0, zero=True, scalable=True, x_star=np.ones(n))
        add(f"broyden_tridiagonal_{n}", _broyden_tridiagonal, -np.ones(n), n,
            0.0, zero=True, scalable=True, x_star=False)
        add(f"broyden_banded_{n}", _broyden_banded, -np.ones(n), n,
            0.0, zero=True, scalable=True, x_star=False)
        add(f"linear_full_rank_{n}", lambda x, m=2 * n: _linear_full_rank(x, m), np.ones(n),
            2 * n, float(n), scalable=True, x_star=-np.ones(n))
        add(f"vardim_{n}", _vardim, _vardim_x0(n), n + 2, 0.0, zero=True,
            scalable=True, x_star=np.ones(n))
        add(f"penalty1_{n}", _penalty1, np.arange(1.0, n + 1), n + 1,
            penalty1_fstar[n], scalable=True, x_star=False)
        add(f"integreq_{n}", _integreq, _integreq_x0(n), n, 0.0, zero=True,
            scalable=True, x_star=False)
        add(f"brown_almost_linear_{n}", _brown_almost_linear, 0.5 * np.ones(n), n,
            0.0, zero=True, scalable=True, x_star=False)

    for p in probs:
        if p.x_star is False:
            p.x_star = None
    return {p.name: p for p in probs}


_CATALOG = _make_catalog()

# The small dense problems used as the default benchmark collection.
DENSE_SET = [name for name, p in _CATALOG.items() if not p.scalable]
SCALABLE_SET = [name for name, p in _CATALOG.items() if p.scalable]


def get_problem(name):
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}") from None


def catalog(names=None, scalable=None):
    """Problems from the registry, optionally filtered by name or scalability."""
    if names is not None:
        return [get_problem(name) for name in names]
    out = list(_CATALOG.values())
    if scalable is not None:
        out = [p for p in out if p.scalable == scalable]
    return out
