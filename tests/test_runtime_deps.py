"""dfls runs on numpy alone: scipy is a test-only dependency (pyproject.toml)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Any import of scipy (or a submodule) raises, then a growing-phase solve runs.
SCRIPT = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is not importable here")

sys.meta_path.insert(0, NoScipy())
import numpy as np
import dfls

prob = dfls.get_problem("broyden_tridiagonal")
result = dfls.solve(prob.residual, prob.x0, seed=0,
                    params=dfls.SolverParams(max_evals=300, p_init=1))
assert result.f < prob.objective(prob.x0), result
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
print("ok", result.n_evals)
"""


def test_solve_runs_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok ")
