"""Every function the benchmark tracer wraps still exists under dfls.

The tracer (benchmarks/tracer.py) looks its entries up by name when it is
installed, so a renamed function would only fail once a traced benchmark
runs. The tracer's source is executed here without importing it as a module.
"""

import runpy
import sys
from collections import Counter
from pathlib import Path

import pytest

import dfls
import dfls.bench  # noqa: F401  (the benchmark imports it before installing the tracer)

TRACER = runpy.run_path(str(Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"))
PAIRS = [(entry, owner, attr) for entry, pairs in TRACER["ENTRIES"].items()
         for owner, attr in pairs]


@pytest.mark.parametrize("entry, owner_path, attr", PAIRS,
                         ids=[f"{owner}.{attr}" for _, owner, attr in PAIRS])
def test_traced_entry_resolves_under_dfls(entry, owner_path, attr):
    owner = TRACER["_resolve"](dfls, owner_path)
    assert callable(vars(owner).get(attr)), f"{entry}: dfls.{owner_path}.{attr}"


SOLVER_SIDE = ("model", "trustregion", "linalg", "solver")
MUST_RUN = ("fit_model_and_basis", "lagrange_basis", "geometry_point", "choose_point_to_replace",
            "needs_geometry_improvement", "solve_trust_region")
MUST_RUN_GROWING = ("solve_min_norm", "clamp_singular_values", "orthogonal_complement_direction")
MUST_RUN_TALL = ("solve_regression", "fit_model_and_basis", "lagrange_basis",
                 "choose_point_to_replace")


def solver_calls(problem, params):
    """Calls of each solver-side entry in one solve, counted as the tracer wraps them.

    The tracer replaces a function wherever a dfls module holds it. A call
    that bypasses those attributes (an inlined body, a cached local) would
    leave its traced layer at zero calls.
    """
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "dfls" or name.startswith("dfls."))]
    calls = Counter()
    patched = []

    def counted(fn, attr):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    try:
        for _, owner_path, attr in PAIRS:
            if owner_path.split(".")[0] not in SOLVER_SIDE:
                continue
            owner = TRACER["_resolve"](dfls, owner_path)
            original = vars(owner)[attr]
            holders = ([owner] if isinstance(owner, type)
                       else [m for m in modules if vars(m).get(attr) is original])
            for holder in holders:
                patched.append((holder, attr, original))
                setattr(holder, attr, counted(original, attr))
        prob = dfls.get_problem(problem)
        dfls.solve(prob.residual, prob.x0, seed=0, params=params(prob.n))
    finally:
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)
    return calls


def test_a_dense_solve_calls_each_solver_entry_through_its_module_attribute():
    calls = solver_calls("osborne1", lambda n: dfls.SolverParams(max_evals=100 * (n + 1)))
    assert [name for name in MUST_RUN if calls[name] == 0] == []


def test_a_growing_solve_calls_each_growing_entry_through_its_module_attribute():
    # Reduced initialization (p_init=1): the growing fit's two QRs and the
    # safety step's complement direction, as on scalable_n100.
    calls = solver_calls("broyden_tridiagonal",
                         lambda n: dfls.SolverParams(p_init=1, max_evals=20 * (n + 1)))
    assert [name for name in MUST_RUN_GROWING if calls[name] == 0] == []


def test_a_tall_solve_calls_each_regression_entry_through_its_module_attribute():
    # p = 5(n+1) regression points, as on dense_noisy_regression: the first
    # factorization of every tall set goes through solve_regression.
    calls = solver_calls("osborne1",
                         lambda n: dfls.SolverParams(p=5 * (n + 1), max_evals=30 * (n + 1)))
    assert [name for name in MUST_RUN_TALL if calls[name] == 0] == []
