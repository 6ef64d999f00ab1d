"""Outside-in tracer for the bh layers.

The tracer wraps, from outside the package, every public function and every
public method (plus ``__init__``) of the classes that each layer module
defines, and rebinds each wrapper at every place the original is bound:
module attributes (so ``from .geometry import extract_interface`` in
``bh.micro`` is covered) and the command table of ``bh.cli``. Private
helpers are not wrapped; their time counts as self time of the nearest
wrapped caller. Spans stay in memory until ``write_spans``; ``uninstall``
restores every original binding.
"""

import functools
import json
import os
import sys
import time
import types
from collections import Counter

LAYERS = ("geometry", "fem", "cell", "tensors", "macro", "micro", "formats",
          "cli")

# per-layer time metrics: metric -> the spans whose self time it sums
TIME_METRICS = {
    "geometry.build_s": ("geometry.build_unit_cell",
                         "geometry.build_membrane_cell"),
    "geometry.tile_s": ("geometry.tile_micro_domain",),
    "geometry.interface_s": ("geometry.extract_interface",),
    "fem.assemble_s": ("fem.assemble_stiffness", "fem.assemble_surface_stiffness",
                       "fem.assemble_gradient_load", "fem.surface_gradient_load",
                       "fem.lumped_load", "fem.volume_dof_weights",
                       "fem.surface_dof_weights"),
    "fem.element_gradients_s": ("fem.element_gradients",),
    "fem.factor_s": ("fem.DirichletFactor.__init__", "fem.MeanZeroFactor.__init__",
                     "fem.CGSolver.__init__"),
    "fem.splu_solve_s": ("fem.DirichletFactor.solve", "fem.MeanZeroFactor.solve"),
    "fem.cg_solve_s": ("fem.CGSolver.solve",),
    "cell.system_s": ("cell.CellSystem.__init__",),
    "cell.march_s": ("cell.evolve_surface_coupled",),
    "tensors.compute_all_s": ("tensors.compute_all",),
    "tensors.kernel_s": ("tensors.compute_B0", "tensors.compute_F_coeffs"),
    "macro.march_s": ("macro.solve_homogenized_memory",
                      "macro.solve_homogenized_elliptic"),
    "micro.solve_s": ("micro.solve_micro",),
    "formats.read_s": ("formats.read_artifact", "formats.read_mesh",
                       "formats.read_cell_archive", "formats.read_tensors",
                       "formats.read_solution"),
    "formats.write_s": ("formats.write_artifact", "formats.write_mesh",
                        "formats.write_cell_archive", "formats.write_tensors",
                        "formats.write_solution", "formats.write_manifest",
                        "formats.file_sha256"),
}

# per-layer call counts: metric -> the spans it counts
CALL_METRICS = {
    "geometry.interface_calls": ("geometry.extract_interface",),
    "fem.element_gradients_calls": ("fem.element_gradients",),
    "fem.solve_calls": TIME_METRICS["fem.splu_solve_s"] + TIME_METRICS["fem.cg_solve_s"],
    "cell.system_calls": ("cell.CellSystem.__init__",),
}

# exact counts read from arguments and results at the wrapped boundaries
COUNT_METRICS = ("geometry.vertices", "geometry.elements",
                 "geometry.interface_facets", "fem.factor_nnz", "macro.steps",
                 "micro.dofs", "micro.steps", "formats.bytes_written",
                 "formats.bytes_read")

_MARK = "__bench_wrapped__"


def _defined_in(fn, module):
    # dataclass-generated methods are compiled from strings, not the module
    return fn.__code__.co_filename == module.__file__


def _on_mesh(args, result, counts, values):
    mesh = result[0]
    counts["geometry.vertices"] += len(mesh.vertices)
    counts["geometry.elements"] += len(mesh.simplices)


def _on_interface(args, result, counts, values):
    counts["geometry.interface_facets"] += len(result.facets)


def _on_factor(args, result, counts, values):
    lu = getattr(args[0], "lu", None)
    if lu is not None:
        counts["fem.factor_nnz"] += lu.L.nnz + lu.U.nnz


def _on_macro(args, result, counts, values):
    counts["macro.steps"] += result.levels.shape[0] - 1


def _on_micro(args, result, counts, values):
    counts["micro.steps"] += result.levels.shape[0] - 1
    counts["micro.dofs"] += result.levels.shape[1]


def _on_artifact(key):
    def hook(args, result, counts, values):
        if not args[0].endswith(".bhrun"):   # manifests carry timestamps
            counts[key] += os.path.getsize(args[0])
    return hook


def _on_tensors(args, result, counts, values):
    gaps = [g for g in result.discrepancies.values() if g is not None]
    values["tensors.route_gap_max"] = max(
        [values.get("tensors.route_gap_max", 0.0)] + gaps)


_HOOKS = {
    "geometry.build_unit_cell": _on_mesh,
    "geometry.build_membrane_cell": _on_mesh,
    "geometry.tile_micro_domain": _on_mesh,
    "geometry.extract_interface": _on_interface,
    "fem.DirichletFactor.__init__": _on_factor,
    "fem.MeanZeroFactor.__init__": _on_factor,
    "macro.solve_homogenized_memory": _on_macro,
    "macro.solve_homogenized_elliptic": _on_macro,
    "micro.solve_micro": _on_micro,
    "formats.write_artifact": _on_artifact("formats.bytes_written"),
    "formats.read_artifact": _on_artifact("formats.bytes_read"),
    "tensors.compute_all": _on_tensors,
}


class Tracer:
    """Spans (name, layer, start, end, parent) of one run, kept in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter({key: 0 for key in COUNT_METRICS})
        self.values = {}
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = _HOOKS.get(name)
        counts, values = self.counts, self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result, counts, values)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _patch(self, holder, key, new):
        if isinstance(holder, dict):
            self._patches.append((holder, key, holder[key]))
            holder[key] = new
        else:
            self._patches.append((holder, key, holder.__dict__[key]))
            setattr(holder, key, new)

    def install(self):
        import bh.cli  # noqa: F401  (loads every layer module)
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"bh.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and _defined_in(obj, mod):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if (isinstance(fn, types.FunctionType)
                                and _defined_in(fn, mod)
                                and (meth == "__init__" or not meth.startswith("_"))):
                            self._patch(obj, meth, self._wrap(
                                fn, f"{layer}.{attr}.{meth}", layer))
        for mod in _bh_modules():
            names = vars(mod)
            for attr, obj in list(names.items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(names, attr, wrappers[obj])
        table = sys.modules["bh.cli"]._COMMANDS
        for cmd, (fn, deps) in list(table.items()):
            self._patch(table, cmd, (wrappers[fn], deps))

    def uninstall(self):
        """Restore every binding; True when no wrapper is left anywhere."""
        while self._patches:
            holder, key, orig = self._patches.pop()
            if isinstance(holder, dict):
                holder[key] = orig
            else:
                setattr(holder, key, orig)
        return not _leftover_wrappers()

    def self_times(self):
        """Self time per span name: duration minus time covered by children."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def layer_metrics(self):
        """Per-layer self times, call counts and exact counts of this run."""
        own = self.self_times()
        calls = Counter(rec[0] for rec in self.spans)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in own.items()
                                         if k.startswith(layer + "."))
        for metric, names in TIME_METRICS.items():
            out[metric] = sum(own[n] for n in names)
        for metric, names in CALL_METRICS.items():
            out[metric] = sum(calls[n] for n in names)
        out.update(self.counts)
        out["tensors.route_gap_max"] = self.values.get("tensors.route_gap_max", 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, layer, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "run": self.run_id, "name": name,
                                     "layer": layer, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _bh_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "bh" or n.startswith("bh."))]


def _leftover_wrappers():
    found = []
    for mod in _bh_modules():
        for attr, obj in vars(mod).items():
            if getattr(obj, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(obj, type):
                found += [f"{obj.__qualname__}.{m}" for m, fn in vars(obj).items()
                          if getattr(fn, _MARK, False)]
    table = sys.modules["bh.cli"]._COMMANDS
    found += [f"_COMMANDS[{c}]" for c, (fn, _) in table.items()
              if getattr(fn, _MARK, False)]
    return found
