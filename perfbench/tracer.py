"""Span tracer that wraps the package's public functions from outside.

`Tracer.install` replaces every traced function in every `padicbuilding`
namespace that binds it (`seminorm` and `building` import `mat_det` and
friends by name, so patching `arith` alone would miss those calls), plus
`BuildingPoint.__eq__`.  Each call while the tracer is active records a
span (id, parent id, op id, name, start, end) in memory.  A function's
self time is its span time minus the time covered by its child spans.
"""

from __future__ import annotations

import ast
import csv
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = ("arith", "apartment", "seminorm", "building", "berkovich", "serialize", "cli")

ELIM = tuple(f"arith.{f}" for f in
             ("mat_inverse", "mat_det", "solve_linear", "rank", "reduced_echelon", "nullspace"))

# Public names that get no span.  The functions are constant-time or thin
# loops over arithmetic, called so often that a span per call would cost
# more than the work; their time counts in the caller's self time.  The
# rest are types and constants.
UNTRACED = {
    "arith": {"mat", "identity", "mat_vec", "mat_mul", "mat_col", "mat_from_cols", "vec",
              "vec_add", "vec_sub", "vec_scale", "abs_k", "l_scalar", "l_from_k", "l_pi",
              "l_is_zero", "l_add", "l_neg", "l_sub", "l_mul", "l_scale",
              "INF", "ZERO_VALUE", "ONE_VALUE", "PrimeContext", "LogValue", "LScalar"},
    "apartment": {"ApartmentPoint", "Root", "MonomialElement", "OpenBox"},
    "seminorm": {"DiagonalSeminorm"},
    "building": {"BuildingPoint", "ChartPoint", "ElementaryUnipotent"},
    "berkovich": {"MonomialPoint", "PolynomialSymV", "LFunctional"},
    "serialize": set(),
    "cli": {"COMMANDS"},
}

METHODS = {"building.BuildingPoint.__eq__": ("building", "BuildingPoint", "__eq__")}


def public_names(module) -> set:
    """Names a module defines at top level (def, class, assignment) without a leading _."""
    tree = ast.parse(inspect.getsource(module))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("_")}


def traced_functions(module_name: str) -> dict:
    """{qualified name: function} for the public functions of one module that get spans."""
    module = importlib.import_module(f"padicbuilding.{module_name}")
    out = {}
    for name in sorted(public_names(module) - UNTRACED[module_name]):
        fn = getattr(module, name, None)
        if inspect.isfunction(fn):
            out[f"{module_name}.{name}"] = fn
    return out


def _entry_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in (row if isinstance(row, (tuple, list)) else (row,)):
            best = max(best, abs(getattr(x, "numerator", x)).bit_length(),
                       getattr(x, "denominator", 1).bit_length())
    return best


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.max_entry_bits = 0
        self.cache_hits = 0          # inverse-cache lookups made inside ops
        self.cache_misses = 0
        self._stack = []
        self._next_id = 0
        self._patches = []

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        measure_bits = name in ELIM
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if measure_bits:
                tracer.max_entry_bits = max(tracer.max_entry_bits, _entry_bits(args[0]),
                                            _entry_bits(args[1:2]))
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                calls[name] += 1
                self_s[name] += t1 - t0 - frame[1]
                spans.append((sid, parent, tracer.op, name, t0, t1))

        return traced

    def install(self):
        """Wrap every traced function in every package namespace that binds it."""
        originals = {}
        for module_name in MODULES:
            for qual, fn in traced_functions(module_name).items():
                originals[id(fn)] = (fn, self._wrap(qual, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "padicbuilding" and not mod_name.startswith("padicbuilding."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))
        for qual, (mod_name, cls_name, meth) in METHODS.items():
            cls = getattr(importlib.import_module(f"padicbuilding.{mod_name}"), cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(qual, original))
            self._patches.append((cls, meth, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, delimiter="\t")
            out.writerow(("span", "parent", "op", "name", "start_s", "end_s"))
            out.writerows(self.spans)


def _names(prefix, pred=lambda name: True, exclude=()):
    return lambda names: [n for n in names if n.startswith(prefix) and pred(n) and n not in exclude]


def _fixed(*names):
    return lambda _names: list(names)


# Per-layer metric -> (unit, "calls" or "self", selector over traced names).
LAYER_METRICS = {
    "arith.elim_calls": ("count", "calls", _fixed(*ELIM)),
    "arith.elim_self_s": ("s", "self", _fixed(*ELIM)),
    "arith.val_calls": ("count", "calls", _fixed("arith.val_k", "arith.val_l")),
    "arith.val_self_s": ("s", "self", _fixed("arith.val_k", "arith.val_l")),
    "apartment.gamma_calls": ("count", "calls", _fixed("apartment.gamma_membership")),
    "apartment.gamma_self_s": ("s", "self", _fixed("apartment.gamma_membership")),
    "apartment.geometry_self_s": ("s", "self",
                                  _names("apartment.", exclude=("apartment.gamma_membership",))),
    "seminorm.evaluate_calls": ("count", "calls", _fixed("seminorm.evaluate")),
    "seminorm.evaluate_self_s": ("s", "self", _fixed("seminorm.evaluate")),
    "seminorm.class_equals_calls": ("count", "calls", _fixed("seminorm.class_equals")),
    "seminorm.class_equals_self_s": ("s", "self", _fixed("seminorm.class_equals", "seminorm.equals")),
    "seminorm.canonical_class_self_s": ("s", "self", _fixed("seminorm.canonical_class")),
    "seminorm.construct_self_s": ("s", "self",
                                  _fixed("seminorm.diagonal_seminorm", "seminorm.compose_with")),
    "seminorm.orthogonalize_self_s": ("s", "self", _fixed("seminorm.orthogonalize",
                                                          "seminorm.pullback_from_functional")),
    "building.point_eq_calls": ("count", "calls", _fixed("building.BuildingPoint.__eq__")),
    "building.self_s": ("s", "self", _names("building.")),
    "berkovich.alpha_calls": ("count", "calls", _fixed("berkovich.alpha_evaluate")),
    "berkovich.alpha_self_s": ("s", "self", _fixed("berkovich.alpha_evaluate")),
    "berkovich.reduce_self_s": ("s", "self", _fixed(
        "berkovich.r_reduce_monomial", "berkovich.r_reduce_rational",
        "berkovich.r_reduce_L_point", "berkovich.j_section", "berkovich.in_omega")),
    "serialize.parse_self_s": ("s", "self", _names(
        "serialize.", lambda n: n.endswith("_from_doc") or n.endswith("_from_str"))),
    "serialize.emit_self_s": ("s", "self", _names(
        "serialize.", lambda n: n.endswith("_to_doc") or n.endswith("_to_str"))),
    "cli.main_self_s": ("s", "self", _fixed("cli.main")),
}


def layer_values(tracer: Tracer) -> dict:
    """{metric: value} for every entry of LAYER_METRICS."""
    names = sorted(set(tracer.calls))
    out = {}
    for metric, (_unit, kind, select) in LAYER_METRICS.items():
        table = tracer.calls if kind == "calls" else tracer.self_s
        out[metric] = sum(table.get(n, 0) for n in select(names))
    return out
