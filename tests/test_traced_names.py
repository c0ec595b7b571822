"""Every function the benchmark tracer wraps still exists under dfls.

The tracer (benchmarks/tracer.py) looks its entries up by name when it is
installed, so a renamed function would only fail once a traced benchmark
runs. The tracer's source is executed here without importing it as a module.
"""

import runpy
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
