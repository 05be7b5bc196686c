"""Per-layer spans, installed from outside the program.

`from .x import f` copies the name, so a wrapper must replace every binding
of the function object: the defining module, each module that imported it
and the package re-exports.  `install` scans the loaded esacert modules for
attributes that are the target object and replaces each one.

A span records, per op: calls, self time (duration minus the time of the
spans it called) and calls that raised.  A few spans also count a property
of the result (see EXTRA).  Records stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (span name, defining module, attribute path)
TARGETS = (
    ("cli.run", "esacert.cli", "run"),
    ("esa.esa_region_full", "esacert.esa", "esa_region_full"),
    ("esa.esa_region_radial", "esacert.esa", "esa_region_radial"),
    ("esa.esa_decide_radial", "esacert.esa", "esa_decide_radial"),
    ("esa.gamma_threshold", "esacert.esa", "gamma_threshold"),
    ("esa.intersect_pieces", "esacert.esa", "intersect_pieces"),
    ("esa._hurwitz_cached", "esacert.esa", "_hurwitz_cached"),
    ("stability.hurwitz_assemble", "esacert.stability", "hurwitz_assemble"),
    ("stability.halfplane_count", "esacert.stability", "halfplane_count"),
    ("stability.axis_roots_exact", "esacert.stability", "axis_roots_exact"),
    ("stability.quartic_classify", "esacert.stability", "quartic_classify"),
    ("stability.disc_q3", "esacert.stability", "disc_q3"),
    ("roots.certified_roots", "esacert.roots", "certified_roots"),
    ("roots.real_part_position", "esacert.roots", "real_part_position"),
    ("roots.label_trajectories", "esacert.roots", "label_trajectories"),
    ("exact.polymatrix_det", "esacert.exact.matrix", "polymatrix_det"),
    ("exact.det_fractions", "esacert.exact.poly", "det_fractions"),
    ("exact.rational_roots", "esacert.exact.poly", "rational_roots"),
    ("exact.square_free_decomposition", "esacert.exact.poly",
     "square_free_decomposition"),
    ("exact.poly_gcd", "esacert.exact.poly", "poly_gcd"),
    ("exact.exact_real_roots", "esacert.exact.algebraic", "exact_real_roots"),
    ("exact.isolate_real_roots", "esacert.exact.poly", "isolate_real_roots"),
    ("exact.count_real_roots", "esacert.exact.poly", "count_real_roots"),
    ("exact.AlgebraicReal.refine", "esacert.exact.algebraic", "AlgebraicReal.refine"),
    ("indicial.build_indicial", "esacert.indicial", "build_indicial"),
)
SPAN_NAMES = tuple(name for name, _, _ in TARGETS)


def _escalated(fn):
    """1 when certified_roots returned above the ladder's first rung (the
    default of its precision_bits parameter), whether it escalated itself or
    was called again at a higher rung."""
    start = inspect.signature(fn).parameters["precision_bits"].default
    return lambda args, kwargs, result: int(result.precision_bits > start)


# span -> factory, given the original function, of the counter of its extra
# field: escalated calls, calls that found a root, candidate gaps (cells)
EXTRA = {
    "roots.certified_roots": _escalated,
    "exact.rational_roots": lambda fn: lambda a, k, r: int(len(r) > 0),
    "esa.esa_region_radial": lambda fn: lambda a, k, r: len(r.boundary_candidates) + 1,
}


class Tracer:
    """Span records keyed by (op id, span name): [calls, self_s, failed, extra]."""

    def __init__(self):
        self.op = None
        self.records = {}
        self.bindings = {}   # span -> list of "module.attribute" replaced
        self._stack = []     # per active span: seconds spent in child spans

    def wrap(self, name: str, fn):
        extra = EXTRA[name](fn) if name in EXTRA else None
        stack, records = self._stack, self.records

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            ok = False
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                rec = records.get((self.op, name))
                if rec is None:
                    rec = records[(self.op, name)] = [0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += elapsed - children[0]
                if not ok:
                    rec[2] += 1
                elif extra is not None:
                    rec[3] += extra(args, kwargs, result)
        return span

    def install(self) -> list:
        """Wrap every target at every binding; returns targets not found."""
        missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "esacert" or n.startswith("esacert."))]
        for name, module_name, attr in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            if len(path) > 1:
                setattr(owner, path[-1], wrapper)
                self.bindings[name] = [f"{module_name}.{attr}"]
                continue
            replaced = []
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        replaced.append(f"{module.__name__}.{key}")
            self.bindings[name] = sorted(replaced)
        return missing

    def dump(self) -> dict:
        out = {}
        for (op, name), rec in self.records.items():
            out.setdefault(op, {})[name] = rec
        return out
