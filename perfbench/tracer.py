"""Spans around calls into the exactstar layers, recorded from outside.

Nothing here edits the package: `Tracer.install` swaps public functions and
methods for thin wrappers, in every exactstar module that holds them, and
`uninstall` puts the originals back.  Each wrapped call opens a span
(name, start, end, parent).  Spans stay in memory until the job ends; the
per-name busy times and per-layer self times are computed from them in
`busy`.

A layer is the first dotted part of a span name and matches a package module:
scalars, algebra, models, seminorms, cone, gns, su1n, cli.  Recursive calls of
the same span name (HTable.h calling itself) are folded into the outermost
span and only counted, which keeps the span list at one entry per layer
crossing.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager

LAYERS = ("scalars", "algebra", "models", "seminorms", "cone", "gns", "su1n", "cli")

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._distinct: dict[str, set] = {}
        self._h_cells: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def call(self, name: str, fn, *args, **kwargs):
        if self.stack and self.spans[self.stack[-1]][0] == name:
            return fn(*args, **kwargs)
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def distinct(self, kind: str, key) -> bool:
        """Record key under kind; True the first time it is seen."""
        seen = self._distinct.setdefault(kind, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, orig, wrapper) -> None:
        """Replace orig in every loaded exactstar module that binds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("exactstar"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        from exactstar import algebra, cone, gns, seminorms, su1n
        from exactstar.cone import ConeModel
        from exactstar.models import BaseModel, LaurentModel

        tr = self
        counts = self.counts

        def simple(orig, name):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return tr.call(name, orig, *args, **kwargs)
            return wrapper

        orig_multiply = algebra.multiply

        def multiply(model, a, b):
            counts["algebra.multiply"] += 1
            out = tr.call("algebra.multiply", orig_multiply, model, a, b)
            counts["algebra.product_terms"] += len(out.terms)
            return out

        self._patch_function(orig_multiply, multiply)
        for mod, fname, span in (
            (cone, "disk_reduce", "cone.reduce"),
            (cone, "disk_multiply", "cone.disk_multiply"),
            (cone, "oracle_structure_constants", "cone.oracle"),
            (su1n, "apply_pullback", "su1n.pullback"),
            (su1n, "check_automorphism", "su1n.automorphism"),
            (gns, "gns_rep", "gns.rep_closed"),
            (gns, "gns_rep_via_product", "gns.rep_product"),
            (gns, "positivity_check", "gns.positivity"),
            (gns, "check_representation", "gns.representation"),
            (seminorms, "check_product_inequality", "seminorms.check"),
        ):
            orig = getattr(mod, fname)
            self._patch_function(orig, simple(orig, span))

        def layer_of(model) -> str:
            return "cone" if isinstance(model, ConeModel) else "models"

        orig_pair = BaseModel.pair_product

        def pair_product(model, left, right):
            name = layer_of(model) + ".pair"
            counts[name] += 1
            out = tr.call(name, orig_pair, model, left, right)
            if tr.distinct(name, (left, right)):
                counts[name + "_nonzero"] += len(out)
            return out

        self._patch(BaseModel, "pair_product", pair_product)

        def weight(orig, side):
            def wrapper(model, parent, gamma):
                name = layer_of(model) + ".weight"
                counts[name] += 1
                out = tr.call(name, orig, model, parent, gamma)
                if tr.distinct(name, (side, parent, gamma)) and out != 0:
                    counts[name + "_nonzero"] += 1
                return out
            return wrapper

        self._patch(BaseModel, "row_sum", weight(BaseModel.row_sum, "row"))
        self._patch(BaseModel, "col_sum", weight(BaseModel.col_sum, "col"))
        self._patch(LaurentModel, "h_special",
                    simple(LaurentModel.h_special, "models.laurent_special"))

        orig_h = seminorms.HTable.h
        cells = self._h_cells

        def h(table, m, ell, gamma):
            counts["seminorms.h"] += 1
            seen = cells.get(table)
            if seen is None:
                seen = cells[table] = set()
            key = (m, ell, gamma)
            if key not in seen:
                seen.add(key)
                counts["seminorms.h_cells"] += 1
            return tr.call("seminorms.h", orig_h, table, m, ell, gamma)

        self._patch(seminorms.HTable, "h", h)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------
    def busy(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: total time and span count; per layer: self time,
        i.e. span time minus the part of it that child spans cover."""
        spans = self.spans
        cover = [0.0] * len(spans)
        by_name: Counter = Counter()
        count: Counter = Counter()
        self_s: Counter = Counter()
        for name, start, end, parent in spans:
            dur = end - start
            by_name[name] += dur
            count[name] += 1
            if parent >= 0:
                cover[parent] += dur
        for i, (name, start, end, _parent) in enumerate(spans):
            self_s[name.split(".", 1)[0]] += (end - start) - cover[i]
        return by_name, self_s, count

    def distinct_count(self, kind: str) -> int:
        return len(self._distinct.get(kind, ()))
