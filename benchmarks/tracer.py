"""In-memory span tracer installed on the dfls package from outside.

A span is (entry, start, end, parent, solve id). Wrappers are set on every
module or class attribute that holds a traced function, because the solver
and model modules bind their helpers with ``from ... import``: patching
``dfls.linalg.solve_regression`` alone would miss the call made through
``dfls.model.solve_regression``. ``uninstall`` restores the original objects,
so untraced runs execute the package unmodified.

Spans live in flat ``array`` buffers (28 bytes each) and are written to
an ``.npz`` file on request; self time is a span's duration minus that of its
direct children, which nest strictly because the solver is single-threaded.
"""

import functools
import time
from array import array

import numpy as np

# Layer entry -> functions it covers, as (owner path, attribute). The owner
# path is a dotted name under the dfls package: a module or a class.
ENTRIES = {
    "solver.loop": [("bench", "solve")],
    "solver.evaluate": [("solver._Loop", "evaluate_averaged")],
    "model.fit": [("model", "fit_model_and_basis"), ("model", "build_linear_model")],
    "model.basis": [("model", "lagrange_basis")],
    "model.geometry": [("model", "geometry_point"), ("model", "choose_point_to_replace"),
                       ("model", "needs_geometry_improvement")],
    "trustregion.solve": [("trustregion", "solve_trust_region")],
    "linalg.regression": [("linalg", "solve_regression")],
    "linalg.min_norm": [("linalg", "solve_min_norm")],
    "linalg.rank_repair": [("linalg", "clamp_singular_values")],
    "linalg.orth_dir": [("linalg", "orthogonal_complement_direction")],
    "linalg.linear_fit": [("linalg", "linear_fit")],
    "problems.residual": [("problems.NoisyProblem", "__call__"),
                          ("problems.NoisyProblem", "sample_mean")],
    "bench.recorder": [("bench._Recorder", "__call__")],
    "bench.tau_crit": [("bench", "tau_crit")],
    "bench.profile": [("bench", "data_profile"), ("bench", "records_to_csv")],
}


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Collects spans from wrapped dfls functions between install and uninstall."""

    def __init__(self):
        self.names = list(ENTRIES)
        self.starts = array("d")
        self.ends = array("d")
        self.entry = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.solve_id = -1
        self._stack = [-1]
        self._patched = []

    def _wrap(self, fn, entry_id):
        starts, ends, entry, parent, solve = (self.starts, self.ends, self.entry,
                                              self.parent, self.solve)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            entry.append(entry_id)
            parent.append(stack[-1])
            solve.append(self.solve_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, package, modules):
        """Wrap every traced function wherever the package's modules hold it."""
        for entry_id, name in enumerate(self.names):
            for owner_path, attr in ENTRIES[name]:
                owner = _resolve(package, owner_path)
                original = vars(owner)[attr]
                wrapper = self._wrap(original, entry_id)
                if isinstance(owner, type):
                    holders = [owner]
                else:
                    holders = [m for m in modules if vars(m).get(attr) is original]
                for holder in holders:
                    self._patched.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def self_times(self):
        """Per entry: (calls, total self seconds) over all recorded spans."""
        if self._stack != [-1]:
            raise RuntimeError("spans still open")
        start, end, entry, parent, _ = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_s = dur - child
        calls = np.bincount(entry, minlength=len(self.names))
        total = np.bincount(entry, weights=self_s, minlength=len(self.names))
        return {name: (int(calls[i]), float(total[i])) for i, name in enumerate(self.names)}

    def _arrays(self):
        # Copies: a live view would stop the buffers from growing.
        return (np.array(self.starts, dtype=float), np.array(self.ends, dtype=float),
                np.array(self.entry, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.solve, dtype=np.int32))

    def save(self, path):
        start, end, entry, parent, solve = self._arrays()
        np.savez(path, names=np.array(self.names), start=start, end=end, entry=entry,
                 parent=parent, solve=solve)
