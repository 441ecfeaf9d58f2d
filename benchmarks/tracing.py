"""In-memory span tracing of the trapbose layers, from outside the package.

Callers bind the layer functions with `from`-imports, so each function is
wrapped at the name its caller looks up (e.g. `trapbose.thermo.build_matrices`,
not `trapbose.basis.build_matrices`).  A name that a later version of the
package no longer has is skipped, and its metrics read zero.
"""

import functools
import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "basis", "perturbative", "riccati", "thermo")


def _riccati_counts(result):
    n = result.x.shape[0]
    unknowns = n * (n + 1) // 2 if result.symmetric else n * n
    return {"riccati.newton_iterations": result.iterations,
            "riccati.jacobian_columns": result.iterations * unknowns}


def _build_counts(result):
    n = result.size
    return {"basis.coupling_elements": n * (n + 1) // 2}


def _basis_counts(result):
    return {"basis.states": result.size}


def _point_counts(result):
    return {"thermo.fixed_point_iterations": result.iterations,
            "thermo.normal_phase_points": int(result.normal_phase)}


# (module, attribute path, span name, counts taken from the result)
TARGETS = (
    ("trapbose.cli", "sweep", "thermo.sweep", None),
    ("trapbose.basis", "enumerate_basis", "basis.enumerate_basis", _basis_counts),
    ("trapbose.thermo", "SpectrumModel.__init__", "thermo.model_init", None),
    ("trapbose.thermo", "solve_n0", "thermo.solve_n0", _point_counts),
    ("trapbose.thermo", "SpectrumModel.levels", "thermo.levels", None),
    ("trapbose.thermo", "diagonal_coupling", "basis.diagonal_coupling", None),
    ("trapbose.thermo", "build_matrices", "basis.build_matrices", _build_counts),
    ("trapbose.thermo", "spectrum_matrix", "perturbative.spectrum_matrix", None),
    ("trapbose.thermo", "quasiparticle_levels", "perturbative.quasiparticle_levels", None),
    ("trapbose.riccati", "quasiparticle_levels", "perturbative.quasiparticle_levels", None),
    ("trapbose.thermo", "solve_xy", "riccati.solve_xy", _riccati_counts),
    ("trapbose.thermo", "exact_spectrum", "riccati.exact_spectrum", None),
)


class Tracer:
    """Spans [name, start, end, parent index] of one sweep, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def reset(self):
        """Forget the previous sweep; wrappers keep appending to these lists."""
        self.spans.clear()
        self.counts.clear()

    def _open(self, name):
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        self._stack.pop()
        span[2] = perf_counter()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                for key, value in counter(result).items():
                    counts[key] = counts.get(key, 0) + value
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every target present in the package; restore on exit."""
        saved = []
        try:
            for module_name, path, name, counter in TARGETS:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def durations(self):
        """Per-span (name, inclusive seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(name, end - start, end - start - child)
                for (name, start, end, _), child in zip(self.spans, child_time)]

    def sweep_metrics(self):
        """Per-layer metrics of the one sweep recorded since the last reset."""
        totals, calls = {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, inclusive, own in self.durations():
            totals[name] = totals.get(name, 0.0) + inclusive
            calls[name] = calls.get(name, 0) + 1
            layer_self[name.split(".")[0]] += own
        counts = self.counts
        points = calls.get("thermo.solve_n0", 0)
        metrics = {
            "cli.parse_config_s": totals.get("cli.parse_config", 0.0),
            "basis.enumerate_basis_s": totals.get("basis.enumerate_basis", 0.0),
            "basis.states": counts.get("basis.states", 0),
            "basis.diagonal_coupling_s": totals.get("basis.diagonal_coupling", 0.0),
            "basis.build_matrices_s": totals.get("basis.build_matrices", 0.0),
            "basis.build_matrices.calls": calls.get("basis.build_matrices", 0),
            "basis.coupling_elements": counts.get("basis.coupling_elements", 0),
            "perturbative.spectrum_matrix_s": totals.get("perturbative.spectrum_matrix", 0.0),
            "perturbative.spectrum_matrix.calls": calls.get("perturbative.spectrum_matrix", 0),
            "perturbative.quasiparticle_levels_s":
                totals.get("perturbative.quasiparticle_levels", 0.0),
            "perturbative.quasiparticle_levels.calls":
                calls.get("perturbative.quasiparticle_levels", 0),
            "riccati.solve_xy_s": totals.get("riccati.solve_xy", 0.0),
            "riccati.solve_xy.calls": calls.get("riccati.solve_xy", 0),
            "riccati.newton_iterations": counts.get("riccati.newton_iterations", 0),
            "riccati.jacobian_columns": counts.get("riccati.jacobian_columns", 0),
            "riccati.exact_spectrum_s": totals.get("riccati.exact_spectrum", 0.0),
            "thermo.sweep_s": totals.get("thermo.sweep", 0.0),
            "thermo.model_init_s": totals.get("thermo.model_init", 0.0),
            "thermo.solve_n0_s": totals.get("thermo.solve_n0", 0.0),
            "thermo.levels_s": totals.get("thermo.levels", 0.0),
            "thermo.levels.calls": calls.get("thermo.levels", 0),
            "thermo.fixed_point_iterations": counts.get("thermo.fixed_point_iterations", 0),
            "thermo.levels_per_point": calls.get("thermo.levels", 0) / max(points, 1),
            "thermo.normal_phase_points": counts.get("thermo.normal_phase_points", 0),
        }
        for layer, seconds in layer_self.items():
            metrics[f"{layer}.self_s"] = seconds
        return metrics

    def point_ms(self):
        return [1e3 * inclusive for name, inclusive, _ in self.durations()
                if name == "thermo.solve_n0"]


def percentile(values, pct):
    """Nearest-rank percentile; pct = 50 gives the median."""
    if pct == 50:
        return statistics.median(values)
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]
