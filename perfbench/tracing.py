"""Spans around dillab's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function with a wrapper: the module
attribute, every `dillab` module (and the package namespace) that imported the
same object, and class attributes such as `IntPoly.sign_at`. `uninstall()`
puts the originals back. Spans live in flat in-memory arrays while the run
lasts and are written out once, at the end.

A span's self time is its duration minus the durations of its direct child
spans. `busy_s` counts only the outermost activation of a name, so a function
that reaches itself through another traced function is not counted twice.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from fractions import Fraction

# (module, qualified name, metric prefix); a dotted name is a class attribute.
TRACED = (
    ("intmatrix", "pf_enclosure", "intmatrix.pf_enclosure"),
    ("intmatrix", "is_irreducible", "intmatrix.is_irreducible"),
    ("intmatrix", "IntMatrix.from_rows", "intmatrix.from_rows"),
    ("intmatrix", "IntMatrix.transpose", "intmatrix.transpose"),
    ("transgraph", "from_matrix", "transgraph.from_matrix"),
    ("transgraph", "to_matrix", "transgraph.to_matrix"),
    ("transgraph", "subdivide_out_edge", "transgraph.subdivide_out_edge"),
    ("transgraph", "path_count", "transgraph.path_count"),
    ("families", "torus_matrix", "families.torus_matrix"),
    ("families", "verify_torus_bounds", "families.verify_torus_bounds"),
    ("families", "cover_upper_bound", "families.cover_upper_bound"),
    ("dilpoly", "largest_root", "dilpoly.largest_root"),
    ("dilpoly", "IntPoly.sign_at", "dilpoly.sign_at"),
    ("dilpoly", "m_cubed_root_enclosure", "dilpoly.m_cubed_root_enclosure"),
    ("dilpoly", "mu_compare", "dilpoly.mu_compare"),
    ("dilpoly", "char_poly", "dilpoly.char_poly"),
    ("dilpoly", "count_real_roots_above", "dilpoly.count_real_roots_above"),
    ("enclosures", "nth_root_enclosure", "enclosures.nth_root_enclosure"),
    ("enclosures", "inth_root", "enclosures.inth_root"),
    ("enclosures", "log_enclosure", "enclosures.log_enclosure"),
    ("bounds", "sandwich_table", "bounds.sandwich_table"),
    ("bounds", "kappa_upper_constant", "bounds.kappa_upper_constant"),
    ("bounds", "thm34_lower", "bounds.thm34_lower"),
    ("lefschetz", "multitwist_action", "lefschetz.multitwist_action"),
    ("lefschetz", "local_index", "lefschetz.local_index"),
    ("suites", "parallel_map", "suites.parallel_map"),
    ("suites", "run_suite", "suites"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._active: set[int] = set()
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._child: dict[int, float] = {}
        self.pf_iterations = 0
        self.pf_width_met = 0
        self.inth_max_bits = 0
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, prefix: str):
        tracer = self
        observe = self._observer(prefix, fn)
        per_suite = prefix == "suites"
        fixed_id = None if per_suite else self._name_id(prefix)

        def traced(*args, **kwargs):
            nid = tracer._name_id(f"suites.{args[0]}") if per_suite else fixed_id
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            outermost = nid not in tracer._active
            if outermost:
                tracer._active.add(nid)
            start = time.perf_counter()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.span_end[idx] = end
                tracer._stack.pop()
                if outermost:
                    tracer._active.discard(nid)
                tracer._close(idx, nid, end - start, outermost)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _close(self, idx: int, nid: int, dur: float, outermost: bool) -> None:
        name = self.names[nid]
        self.calls[name] = self.calls.get(name, 0) + 1
        if outermost:
            self.busy[name] = self.busy.get(name, 0.0) + dur
        child = self._child.pop(idx, 0.0)
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        parent = self.span_parent[idx]
        if parent >= 0:
            self._child[parent] = self._child.get(parent, 0.0) + dur

    def _observer(self, prefix: str, fn):
        if prefix == "intmatrix.pf_enclosure":
            sig = inspect.signature(fn)

            def on_pf(args, kwargs, res):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rel = Fraction(bound.arguments["rel_width"])
                target = bound.arguments["hi_target"]
                self.pf_iterations += res.iterations
                if res.hi - res.lo <= rel * res.lo or (
                    target is not None and res.hi <= target
                ):
                    self.pf_width_met += 1

            return on_pf
        if prefix == "enclosures.inth_root":

            def on_inth(args, kwargs, res):
                x = args[0] if args else kwargs["x"]
                self.inth_max_bits = max(self.inth_max_bits, x.bit_length())

            return on_inth
        return None

    def install(self) -> None:
        for modname, _, _ in TRACED:
            importlib.import_module(f"dillab.{modname}")
        modules = [m for n, m in sys.modules.items() if n == "dillab" or n.startswith("dillab.")]
        for modname, qual, prefix in TRACED:
            home = sys.modules[f"dillab.{modname}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, prefix))
                else:
                    new = self._wrap(raw, prefix)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
                continue
            orig = getattr(home, qual)
            wrapper = self._wrap(orig, prefix)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write_spans(self, path) -> int:
        """Write every span as `name start end parent` lines, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )
        return len(self.span_name)
