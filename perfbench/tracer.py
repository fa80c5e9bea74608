"""Per-layer spans recorded from outside the package.

Each traced function is replaced by a wrapper in every ``mapscat``
namespace that holds the same function object: the package itself and
each submodule that imported it by name (``ar`` and ``functors`` import
``hom_basis`` and friends directly, so patching only the defining module
would miss most calls).  Spans are kept in memory as flat arrays and
aggregated, or written out, when the run ends.
"""

import importlib
import json
import sys
import time
from array import array

# (module, function, stats reported).  `cells`, `hit_ratio` and
# `per_sequence` are computed from arguments or results in the wrapper.
SPANS = [
    ("linalg", "rref", ("calls", "self_s", "cells")),
    ("linalg", "kernel_basis", ("calls", "total_s")),
    ("linalg", "solve", ("calls", "total_s")),
    ("linalg", "invert", ("calls", "total_s")),
    ("linalg", "matmul", ("calls", "total_s")),
    ("modules", "hom_basis", ("calls", "self_s", "total_s")),
    ("modules", "iso_between", ("calls", "total_s", "hit_ratio")),
    ("modules", "decompose", ("calls", "total_s")),
    ("modules", "end_radical", ("calls", "total_s")),
    ("modules", "tau", ("calls", "total_s")),
    ("modules", "tau_inverse", ("calls", "total_s")),
    ("modules", "minimal_projective_presentation", ("calls", "total_s")),
    ("modules", "indecomposable_projective", ("calls", "total_s")),
    ("modules", "modules_isomorphic", ("calls", "total_s")),
    ("modules", "ext_dim", ("calls", "total_s")),
    ("maps", "hom_maps", ("calls", "total_s")),
    ("maps", "map_iso_between", ("calls", "total_s")),
    ("maps", "relative_ext_dim", ("calls", "total_s")),
    ("maps", "to_gamma_module", ("calls", "total_s")),
    ("maps", "decompose_map_object", ("calls", "total_s")),
    ("ar", "knit_ar_quiver", ("calls", "total_s", "self_s")),
    ("ar", "almost_split_ending_at", ("calls", "total_s", "per_sequence")),
    ("ar", "is_almost_split", ("calls", "total_s")),
    ("ar", "_irreducible_arrows", ("total_s",)),
    ("functors", "functor_realization", ("calls", "total_s")),
    ("functors", "check_generalized_tilting", ("calls", "total_s")),
    ("functors", "check_classical_tilting", ("calls", "total_s")),
    ("functors", "certify_right_approx", ("calls", "total_s")),
    ("functors", "certify_left_approx", ("calls", "total_s")),
    ("algebra", "algebra_from_spec", ("total_s",)),
    ("algebra", "triangular_matrix_algebra", ("total_s",)),
    ("algfile", "parse_algebra_file", ("total_s",)),
    ("cli", "main", ("self_s",)),
]

UNITS = {"calls": "count", "cells": "count", "self_s": "s", "total_s": "s",
         "hit_ratio": "ratio", "per_sequence": "ratio"}
HIGHER_IS_BETTER = {"hit_ratio"}

# Metrics outside SPANS: (name, unit, better).
EXTRA = [
    ("modules.ModuleHom.constructed", "count", "lower"),
    ("setup.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def metric_names():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer, fn, stats in SPANS:
        for stat in stats:
            out.append((f"{layer}.{fn}.{stat}", UNITS[stat],
                        "higher" if stat in HIGHER_IS_BETTER else "lower"))
    return out + EXTRA


class Tracer:
    """Wraps the SPANS functions; one instance per traced process."""

    def __init__(self):
        self.keys = [f"{layer}.{fn}" for layer, fn, _ in SPANS]
        self.key_ids = {k: i for i, k in enumerate(self.keys)}
        self._stack = []
        self._depth = [0] * len(self.keys)
        self.reset()

    def reset(self):
        """Drop recorded spans and counters (between repetitions)."""
        self.key = array("i")
        self.parent = array("i")
        self.outermost = array("b")  # no enclosing span of the same function
        self.start = array("d")
        self.end = array("d")
        self.cells = 0
        self.iso_hits = 0
        self.sequences = 0
        self.homs_constructed = 0

    def install(self):
        for layer, _, _ in SPANS:
            importlib.import_module(f"mapscat.{layer}")
        loaded = [m for name, m in sys.modules.items() if name == "mapscat" or name.startswith("mapscat.")]
        hooks = {
            "linalg.rref": self._on_rref,
            "modules.iso_between": self._on_iso,
            "ar.knit_ar_quiver": self._on_knit,
        }
        for layer, fn, _ in SPANS:
            home = sys.modules[f"mapscat.{layer}"]
            original = getattr(home, fn, None)
            if original is None:  # e.g. a helper a later change removed
                continue
            key = f"{layer}.{fn}"
            wrapped = self._wrap(self.key_ids[key], original, hooks.get(key))
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

        hom_class = sys.modules["mapscat.modules"].ModuleHom
        init = hom_class.__init__

        def counted_init(obj, *args, **kwargs):
            self.homs_constructed += 1
            init(obj, *args, **kwargs)

        hom_class.__init__ = counted_init

    def _wrap(self, kid, fn, hook):
        clock = time.perf_counter
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            # self.* arrays are looked up per call so reset() takes effect
            idx = len(self.key)
            self.key.append(kid)
            self.parent.append(stack[-1] if stack else -1)
            self.outermost.append(depth[kid] == 0)
            self.end.append(0.0)
            stack.append(idx)
            depth[kid] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                depth[kid] -= 1
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _on_rref(self, args, result):
        rows, cols = args[0].shape
        self.cells += rows * cols

    def _on_iso(self, args, result):
        self.iso_hits += result is not None

    def _on_knit(self, args, result):
        self.sequences += len(result.sequences)

    def aggregate(self):
        """Per-layer metrics from the recorded spans (setup.* and trace.* excluded)."""
        n_keys = len(self.keys)
        calls = [0] * n_keys
        total = [0.0] * n_keys
        self_t = [0.0] * n_keys
        child = [0.0] * len(self.key)
        for i in range(len(self.key)):
            dur = self.end[i] - self.start[i]
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur
        for i in range(len(self.key)):
            k = self.key[i]
            dur = self.end[i] - self.start[i]
            calls[k] += 1
            self_t[k] += dur - child[i]
            if self.outermost[i]:
                total[k] += dur
        derived = {
            "linalg.rref.cells": self.cells,
            "modules.iso_between.hit_ratio": self.iso_hits / max(calls[self.key_ids["modules.iso_between"]], 1),
            "ar.almost_split_ending_at.per_sequence":
                calls[self.key_ids["ar.almost_split_ending_at"]] / self.sequences if self.sequences else 0.0,
        }
        out = {}
        for layer, fn, stats in SPANS:
            k = self.key_ids[f"{layer}.{fn}"]
            values = {"calls": calls[k], "total_s": total[k], "self_s": self_t[k]}
            for stat in stats:
                name = f"{layer}.{fn}.{stat}"
                out[name] = derived[name] if name in derived else values[stat]
        out["modules.ModuleHom.constructed"] = self.homs_constructed
        return out

    def write_spans(self, path):
        """Dump the spans of the last repetition as compact JSON columns."""
        t0 = self.start[0] if self.start else 0.0
        blob = {
            "names": self.keys,
            "key": self.key.tolist(),
            "parent": self.parent.tolist(),
            "start_us": [round((t - t0) * 1e6) for t in self.start],
            "end_us": [round((t - t0) * 1e6) for t in self.end],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, separators=(",", ":"))
