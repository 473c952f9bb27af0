"""In-memory spans around the public functions of each symbetti layer.

The tracer never edits symbetti: it replaces module attributes from the
outside, as the calling module sees them (``symbetti.betti.contains_monomial``
is the name ``betti`` looks up at call time).  Each call records one span:
name, start, end and the span that was open when it began.  Spans stay in
memory until the command returns; ``summary`` then derives self times and
counters, and ``write`` dumps the raw spans.

The layer of a span is the first component of its name.  Calls are
attributed to the layer whose code runs, except that ``taylor`` elimination
is kept under ``taylor`` so the oracle's whole cost reads as one layer.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import time

LAYERS = ("ideals", "betti", "homology", "taylor", "stability", "cli")

# (module, attribute, span name): every module attribute the tracer replaces.
WRAPPED = (
    ("symbetti.cli", "betti_set", "betti.betti_set"),
    ("symbetti.cli", "betti_at_degree", "betti.betti_at_degree"),
    ("symbetti.cli", "graded_table", "betti.graded_table"),
    ("symbetti.cli", "pd_and_reg", "betti.pd_and_reg"),
    ("symbetti.cli", "upper_koszul_complex", "betti.upper_koszul_complex"),
    ("symbetti.cli", "candidate_degrees", "ideals.candidate_degrees"),
    ("symbetti.cli", "restrict_to_n", "ideals.restrict_to_n"),
    ("symbetti.cli", "boundary_squares_to_zero", "homology.boundary_squares_to_zero"),
    ("symbetti.cli", "euler_characteristic_check", "homology.euler_characteristic_check"),
    ("symbetti.cli", "expand_generators", "taylor.expand_generators"),
    ("symbetti.cli", "taylor_strand_tor", "taylor.taylor_strand_tor"),
    ("symbetti.cli", "check_shift_equivalence", "stability.check_shift_equivalence"),
    ("symbetti.cli", "check_positive_lift", "stability.check_positive_lift"),
    ("symbetti.cli", "compose_betti", "stability.compose_betti"),
    ("symbetti.cli", "extrapolate_full_support", "stability.extrapolate_full_support"),
    ("symbetti.cli", "rank_stability_report", "stability.rank_stability_report"),
    ("symbetti.cli", "segments", "stability.segments"),
    ("symbetti.cli", "asymptotics", "stability.asymptotics"),
    ("symbetti.stability", "betti_set", "betti.betti_set"),
    ("symbetti.stability", "pd_and_reg", "betti.pd_and_reg"),
    ("symbetti.betti", "candidate_degrees", "ideals.candidate_degrees"),
    ("symbetti.betti", "restrict_to_n", "ideals.restrict_to_n"),
    ("symbetti.betti", "contains_monomial", "ideals.contains_monomial"),
    ("symbetti.betti", "orbit_size", "ideals.orbit_size"),
    ("symbetti.betti", "upper_koszul_complex", "betti.upper_koszul_complex"),
    ("symbetti.betti", "reduced_homology_dims", "homology.reduced_homology_dims"),
    ("symbetti.homology", "reduced_homology_dims", "homology.reduced_homology_dims"),
    ("symbetti.homology", "boundary_matrices", "homology.boundary_matrices"),
    ("symbetti.homology", "rank_over_field", "homology.rank_over_field"),
    ("symbetti.taylor", "restrict_to_n", "ideals.restrict_to_n"),
    ("symbetti.taylor", "rank_over_field", "taylor.rank_over_field"),
)

# Parents whose reduced_homology_dims children are one per-degree computation.
_DEGREE_PARENTS = ("betti.betti_set", "betti.betti_at_degree")


class Tracer:
    """Span store for one process; pool workers switch it off at start."""

    def __init__(self):
        self.active = True
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts = {
            "candidates": 0, "faces": 0, "max_vertices": 0, "matrix_cells": 0,
            "degrees": 0, "nonzero_degrees": 0, "strands": 0,
            "pool_capacity_ns": 0, "pool_child_cpu_ns": 0,
        }

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def stop(self) -> None:
        # Pool initializer: forked workers inherit the wrappers, but spans
        # inside workers are not collected, so they call straight through.
        self.active = False

    def begin(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_of.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, name: str, hook=None):
        name_id = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every attribute in WRAPPED and the pool ``betti`` starts."""
        import importlib

        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            hook = _HOOKS.get((module_name, attr))
            setattr(module, attr, self.wrap(getattr(module, attr), span, hook))
        betti = importlib.import_module("symbetti.betti")
        betti.multiprocessing = _TracedMultiprocessing(self)

    def summary(self) -> dict:
        """Per-name calls, total and self seconds; per-layer self seconds; counters."""
        n = len(self.starts)
        child = [0] * n
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        spans: dict[str, list] = {}
        layers = {layer: 0 for layer in LAYERS}
        degree_ns = []
        open_build: dict[int, int] = {}
        for i in range(n):
            name = self.names[self.name_of[i]]
            own = dur[i] - child[i]
            entry = spans.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += own
            layers[name.split(".", 1)[0]] += own
            p = self.parents[i]
            if p >= 0 and self.names[self.name_of[p]] in _DEGREE_PARENTS:
                if name == "betti.upper_koszul_complex":
                    open_build[p] = self.starts[i]
                elif name == "homology.reduced_homology_dims" and p in open_build:
                    degree_ns.append(self.ends[i] - open_build.pop(p))
        return {
            "spans": {k: {"calls": c, "s": t / 1e9, "self_s": s / 1e9}
                      for k, (c, t, s) in spans.items()},
            "layers": {k: v / 1e9 for k, v in layers.items()},
            "degree_ms": [d / 1e6 for d in degree_ns],
            "counts": dict(self.counts),
        }

    def write(self, path) -> None:
        """Dump the raw spans (name, start_ns, end_ns, parent index) as JSON."""
        rows = [[self.names[self.name_of[i]], self.starts[i], self.ends[i], self.parents[i]]
                for i in range(len(self.starts))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": rows}, fh)


def _count_candidates(counts, args, result):
    counts["candidates"] += len(result)


def _count_faces(counts, args, result):
    counts["faces"] += len(result.faces)
    counts["max_vertices"] = max(counts["max_vertices"], result.vertex_count)


def _count_cells(counts, args, result):
    matrix = args[0]
    if matrix and matrix[0]:
        counts["matrix_cells"] += len(matrix) * len(matrix[0])


def _count_degree(counts, args, result):
    counts["degrees"] += 1
    counts["nonzero_degrees"] += bool(result)


def _count_strand(counts, args, result):
    counts["strands"] += 1


# Counters keyed by the replaced attribute.  Degrees are counted only where
# betti computes one, not where verify's consistency check re-derives homology.
_HOOKS = {
    ("symbetti.cli", "candidate_degrees"): _count_candidates,
    ("symbetti.betti", "candidate_degrees"): _count_candidates,
    ("symbetti.cli", "upper_koszul_complex"): _count_faces,
    ("symbetti.betti", "upper_koszul_complex"): _count_faces,
    ("symbetti.homology", "rank_over_field"): _count_cells,
    ("symbetti.betti", "reduced_homology_dims"): _count_degree,
    ("symbetti.cli", "taylor_strand_tor"): _count_strand,
}


class _TracedPool:
    """``multiprocessing.Pool`` as ``symbetti.betti`` sees it, with spans.

    ``betti.pool.start`` covers the construction (forking the workers),
    ``betti.pool.map`` each map and ``betti.pool.exit`` the shutdown
    (``__exit__``, ``terminate`` or ``join``), so every span nests in its
    caller whether a pool serves one call or the whole command; any other
    attribute goes straight to the pool.  Child CPU is the RUSAGE_CHILDREN
    difference from construction to the first shutdown, which reaps the
    workers (a pool never shut down inside the command reports none);
    capacity is processes times map wall, the denominator of pool efficiency.
    """

    def __init__(self, tracer: Tracer, processes=None, initializer=None, initargs=(),
                 *args, **kwargs):
        self.tracer = tracer
        self.processes = processes or multiprocessing.cpu_count()
        self.reaped = False
        self.ru0 = _children_cpu_ns()
        self.pool = self._span("betti.pool.start", multiprocessing.Pool, processes, _stop_then,
                               (tracer, initializer, initargs), *args, **kwargs)

    def _span(self, name, fn, *args, **kwargs):
        idx = self.tracer.begin(self.tracer._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.tracer.end(idx)

    def __getattr__(self, name):
        return getattr(self.pool, name)

    def __enter__(self):
        return self

    def map(self, fn, iterable, *args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return self._span("betti.pool.map", self.pool.map, fn, iterable, *args, **kwargs)
        finally:
            self.tracer.counts["pool_capacity_ns"] += self.processes * (time.perf_counter_ns() - t0)

    def _shutdown(self, method, *args):
        try:
            return self._span("betti.pool.exit", getattr(self.pool, method), *args)
        finally:
            if not self.reaped:
                self.reaped = True
                self.tracer.counts["pool_child_cpu_ns"] += _children_cpu_ns() - self.ru0

    def __exit__(self, *exc):
        return self._shutdown("__exit__", *exc)

    def terminate(self):
        return self._shutdown("terminate")

    def join(self):
        return self._shutdown("join")


def _stop_then(tracer: Tracer, initializer, initargs) -> None:
    """Worker initializer: switch spans off, then run the caller's own initializer."""
    tracer.stop()
    if initializer is not None:
        initializer(*initargs)


class _TracedMultiprocessing:
    """Stand-in for the ``multiprocessing`` module inside ``symbetti.betti``."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def Pool(self, processes=None, *args, **kwargs):  # noqa: N802 - mirrors the module API
        return _TracedPool(self._tracer, processes, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(multiprocessing, name)


def _children_cpu_ns() -> int:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((ru.ru_utime + ru.ru_stime) * 1e9)
