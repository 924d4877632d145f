"""Spans around the public functions of each ``diffalg`` layer.

Tracing is installed from outside the program: ``install`` replaces module
attributes and class methods with wrappers, wherever the original object is
bound, so calls that go through ``from .algebra import pseudo_remainder``
are seen as well.  Nothing under ``src/`` knows about it.

A span is (name, start, end, parent).  Spans live in flat arrays while the
round runs and are turned into per-layer numbers, and written out, only
after the round ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# span name -> (module, owner in that module or None, attribute)
TARGETS = {
    "cli.main": ("diffalg.cli", None, "main"),
    "algebra.pseudo_remainder": ("diffalg.algebra", None, "pseudo_remainder"),
    "algebra.poly_mul": ("diffalg.algebra", "Poly", "__mul__"),
    "algebra.poly_add": ("diffalg.algebra", "Poly", "__add__"),
    "algebra.ratfun_new": ("diffalg.algebra", "RatFun", "__init__"),
    "algebra.divide_exact": ("diffalg.algebra", None, "divide_exact"),
    "algebra.solve_affine": ("diffalg.algebra", None, "solve_affine"),
    "config.factorizations": ("diffalg.config", "Configuration", "factorizations"),
    "config.reduce_mod": ("diffalg.config", "Configuration", "reduce_mod"),
    "config.check_commutation_at": ("diffalg.config", "Configuration", "check_commutation_at"),
    "config.sample_point": ("diffalg.config", "Configuration", "sample_point"),
    "derivation.tower_reduce": ("diffalg.derivation", "Tower", "reduce"),
    "derivation.tower_invert": ("diffalg.derivation", "Tower", "invert"),
    "derivation.extend_to_algebraic": ("diffalg.derivation", None, "extend_to_algebraic"),
    "derivation.apply_derivation": ("diffalg.derivation", None, "apply_derivation"),
    "jet.rewrite_term": ("diffalg.jet", None, "rewrite_term"),
    "jet.oracle_eval": ("diffalg.jet", None, "oracle_eval"),
    "prolong.tangent_space_at": ("diffalg.prolong", None, "tangent_space_at"),
    "prolong.extend_at_point": ("diffalg.prolong", None, "extend_at_point"),
    "axioms.wide_from_deep": ("diffalg.axioms", None, "wide_from_deep"),
    "axioms.dim_cert": ("diffalg.axioms", None, "triangular_dimension_certificate"),
}

# every public parse_* function of diffalg.parsing shares the span "parsing"
PARSING = "parsing"


def _terms(x) -> int:
    terms = getattr(x, "terms", None)
    return len(terms) if terms is not None else 1


# a size counted per span: (metric suffix, unit, amount(args, result)); the
# amounts are summed over calls, and a ratio is that sum over the calls
SIZES = {
    "algebra.pseudo_remainder": ("input_terms", "count", lambda args, result: _terms(args[0])),
    "algebra.poly_mul": ("term_products", "count", lambda args, result: _terms(args[0]) * _terms(args[1])),
    "algebra.divide_exact": ("hit_ratio", "ratio", lambda args, result: result is not None),
    "config.factorizations": ("results", "count", lambda args, result: len(result)),
    "config.sample_point": ("success_ratio", "ratio", lambda args, result: result is not None),
}


class Recorder:
    """Flat, append-only span storage plus size counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        suffix, _, amount = SIZES.get(name, (None, None, None))
        counter = f"{name}.{suffix}"
        names, parents, starts, ends, stack = (
            self.name_col, self.parent_col, self.start_col, self.end_col, self.stack
        )
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if amount is not None:
                counts[counter] += amount(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self time (raw seconds) per span name."""
        n = len(self.start_col)
        child = [0.0] * n
        starts, ends, parents = self.start_col, self.end_col, self.parent_col
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        names = self.names
        for i in range(n):
            name = names[self.name_col[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]
        return {name: {"calls": calls[name], "self_s": self_s[name]} for name in calls}

    def write(self, path: str) -> None:
        """Write the spans as JSON: a name table and four parallel columns."""
        payload = {
            "names": self.names,
            "name": self.name_col.tolist(),
            "parent": self.parent_col.tolist(),
            "start": self.start_col.tolist(),
            "end": self.end_col.tolist(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _rebind(original, replacement) -> int:
    """Point every diffalg module attribute and class attribute bound to
    `original` at `replacement`; returns how many bindings changed."""
    changed = 0
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "diffalg" or mod_name.startswith("diffalg.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
            elif isinstance(value, type) and value.__module__.startswith("diffalg"):
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, cattr, replacement)
                        changed += 1
    return changed


def install(recorder: Recorder) -> None:
    """Wrap every traced function of the already imported diffalg package."""
    import importlib

    for name, (mod_name, owner, attr) in TARGETS.items():
        module = importlib.import_module(mod_name)
        holder = getattr(module, owner) if owner else module
        original = vars(holder)[attr]
        if _rebind(original, recorder.wrap(name, original)) == 0:
            raise RuntimeError(f"could not trace {name}")
    parsing = importlib.import_module("diffalg.parsing")
    for attr, original in list(vars(parsing).items()):
        if attr.startswith("parse_") and callable(original):
            _rebind(original, recorder.wrap(PARSING, original))
