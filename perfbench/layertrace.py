"""Span tracing of the program's layers from outside the program.

`Tracer.install()` replaces layer functions by wrappers.  A function is
replaced in every `lamplighter` module namespace that holds it (several
modules bind layer functions at import time, e.g. `wreath` imports
`cayley_ball` and `product_graph` from `graphs`), and a method is replaced on
its class.  Span wrappers record (name, start, end, parent, tag) into
in-memory arrays; count wrappers only bump a counter.  `metrics()` derives the
per-layer figures from the spans after the run, and `write()` dumps the spans
as TSV.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

GROUP_CLASSES = ("FiniteModel", "AbelianModel", "FreeModel", "FreeProductModel")

# solve_exact spans are tagged with k = |required| and reported per bucket
K_BUCKETS = (("k0-6", 0, 6), ("k7-10", 7, 10), ("k11-13", 11, 13), ("k14up", 14, 1 << 30))

# (owner, attribute, span name); the owner is a lamplighter module or a
# class in one, resolved when the tracer is installed
SPANS = [
    ("cli", "main", "cli.main"),
    ("wreath", "enumerate_ball", "wreath.enumerate_ball"),
    ("wreath", "depth", "wreath.depth"),
    ("wreath", "retreat_depth", "wreath.retreat_depth"),
    ("wreath", "word_length", "wreath.word_length"),
    ("wreath", "ts_walk", "wreath.ts_walk"),
    ("wreath.LamplighterModel", "state_str", "wreath.state_str"),
    ("tsp", "ts_free_product", "tsp.ts_free_product"),
    ("tsp", "solve_exact", "tsp.solve_exact"),
    ("tsp", "solve_all_ends", "tsp.solve_all_ends"),
    ("tsp", "ts_tree", "tsp.ts_tree"),
    ("tsp", "ts_tree_walk", "tsp.ts_tree_walk"),
    ("tsp", "ts_free_product_walk", "tsp.ts_free_product_walk"),
    ("graphs", "cayley_ball", "graphs.cayley_ball"),
    ("graphs", "product_graph", "graphs.product_graph"),
    ("groups", "parse_group_spec", "groups.parse_group_spec"),
    ("hamiltonian", "grid_spanning_path", "hamiltonian.grid_spanning_path"),
    ("hamiltonian", "cube_spanning_path", "hamiltonian.cube_spanning_path"),
    ("hamiltonian", "hamiltonian_difference", "hamiltonian.hamiltonian_difference"),
    ("hamiltonian", "hamiltonian_difference_detail",
     "hamiltonian.hamiltonian_difference_detail"),
]

# (class, method, counter name): hot methods get a counter, not a span
COUNTS = [("graphs.FiniteGraph", "distances_from", "graphs.FiniteGraph.distances_from.calls")] + [
    (f"groups.{cls}", meth, f"groups.{meth}.calls.{cls}")
    for cls in GROUP_CLASSES
    for meth in ("mul_payload", "normalize_payload")
]

# (metric, unit, better); the order in which per-layer metrics are reported
PER_LAYER: List[Tuple[str, str, str]] = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("wreath.enumerate_ball.s", "s", "lower"),
    ("wreath.depth.calls", "count", "lower"),
    ("wreath.depth.self_s", "s", "lower"),
    ("wreath.retreat_depth.s", "s", "lower"),
    ("wreath.state_str.s", "s", "lower"),
    ("wreath.word_length.calls", "count", "lower"),
    ("wreath.word_length.self_s", "s", "lower"),
    ("wreath.word_length.ts_misses", "count", "lower"),
    ("wreath.word_length.memo_hit_ratio", "ratio", "higher"),
    ("wreath.ts_walk.s", "s", "lower"),
    ("tsp.ts_free_product.calls", "count", "lower"),
    ("tsp.ts_free_product.self_s", "s", "lower"),
    *[(f"tsp.solve_exact.{kind}.{b}", unit, "lower")
      for b, _, _ in K_BUCKETS for kind, unit in (("calls", "count"), ("s", "s"))],
    ("tsp.solve_all_ends.calls", "count", "lower"),
    ("tsp.solve_all_ends.s", "s", "lower"),
    ("tsp.ts_tree.s", "s", "lower"),
    ("tsp.ts_tree_walk.s", "s", "lower"),
    ("tsp.ts_free_product_walk.s", "s", "lower"),
    ("graphs.cayley_ball.calls", "count", "lower"),
    ("graphs.cayley_ball.s", "s", "lower"),
    ("graphs.product_graph.calls", "count", "lower"),
    ("graphs.product_graph.s", "s", "lower"),
    ("graphs.FiniteGraph.distances_from.calls", "count", "lower"),
    *[(f"groups.{meth}.calls.{cls}", "count", "lower")
      for cls in GROUP_CLASSES for meth in ("mul_payload", "normalize_payload")],
    ("groups.parse_group_spec.s", "s", "lower"),
    ("hamiltonian.grid_spanning_path.calls", "count", "lower"),
    ("hamiltonian.grid_spanning_path.s", "s", "lower"),
    ("hamiltonian.cube_spanning_path.s", "s", "lower"),
    ("hamiltonian.hamiltonian_difference.s", "s", "lower"),
    ("tracing_overhead_s", "s", "lower"),
]


def _solve_exact_k(args, kwargs) -> int:
    inst = args[0] if args else kwargs["inst"]
    return len(inst.required)


TAGGERS: Dict[str, Callable] = {"tsp.solve_exact": _solve_exact_k}


def _resolve(path: str):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"lamplighter.{module}")
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.parent = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("i")
        self.counts: Counter = Counter()
        self._stack = [-1]

    # -- recording ----------------------------------------------------------
    def span(self, name: str, fn: Callable, tagger: Optional[Callable] = None) -> Callable:
        """`fn` wrapped so that each call records one span."""
        nid = len(self.names)
        self.names.append(name)
        parent, names, start, end, tag = self.parent, self.name, self.start, self.end, self.tag
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            parent.append(stack[-1])
            names.append(nid)
            tag.append(tagger(args, kwargs) if tagger else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        spans = [(_resolve(path), attr, name) for path, attr, name in SPANS]
        modules = [m for n, m in sys.modules.items() if n.startswith("lamplighter.")]
        for owner, attr, name in spans:
            fn = owner.__dict__[attr]
            wrapper = self.span(name, fn, TAGGERS.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
        for path, attr, key in COUNTS:
            cls = _resolve(path)
            self.counts[key] = 0
            setattr(cls, attr, self._counter(key, cls.__dict__[attr]))

    # -- derived metrics ----------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric except tracing_overhead_s, which needs the
        untraced run too."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        by_name: Dict[str, List[int]] = {s: [] for s in self.names}
        for i in range(n):
            by_name[self.names[self.name[i]]].append(i)
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]

        def ids(name: str) -> List[int]:
            return by_name.get(name, [])

        def outermost(*span_names: str) -> float:
            """Wall time inside any of the spans, nested ones counted once."""
            wanted = {self.names.index(s) for s in span_names if s in by_name}
            total = 0.0
            for name in span_names:
                for i in ids(name):
                    p = self.parent[i]
                    while p >= 0 and self.name[p] not in wanted:
                        p = self.parent[p]
                    if p < 0:
                        total += dur[i]
            return total

        out: Dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = len(ids(name))
            out[f"{name}.self_s"] = float(sum(dur[i] - child[i] for i in ids(name)))
            out[f"{name}.s"] = outermost(name)
        out["hamiltonian.hamiltonian_difference.s"] = outermost(
            "hamiltonian.hamiltonian_difference", "hamiltonian.hamiltonian_difference_detail")

        for bucket, lo, hi in K_BUCKETS:
            hits = [i for i in ids("tsp.solve_exact") if lo <= self.tag[i] <= hi]
            out[f"tsp.solve_exact.calls.{bucket}"] = len(hits)
            out[f"tsp.solve_exact.s.{bucket}"] = float(sum(dur[i] for i in hits))

        # a word_length call misses its memo exactly when it calls into tsp
        wl = ids("wreath.word_length")
        wl_set = set(wl)
        misses = sum(1 for name in self.names if name.startswith("tsp.")
                     for i in ids(name) if self.parent[i] in wl_set)
        out["wreath.word_length.ts_misses"] = misses
        out["wreath.word_length.memo_hit_ratio"] = 1 - misses / len(wl) if wl else 0.0

        out.update(self.counts)
        return {name: out[name] for name, _, _ in PER_LAYER if name in out}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\ttag\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.tag[i]}\n")
