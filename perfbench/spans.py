"""Spans around phyloag's public functions, recorded from outside the
library, and the per-layer metrics derived from them.

A ``Tracer`` replaces each target function or method with a wrapper at
every module attribute or class that binds it, records one span per call
(name, start, end, parent span, run id and counters read from the arguments
or the result), and puts the original bindings back on ``restore``.  Spans
stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from math import comb


def _rank_cells(args, result):
    mat = args["mat"]
    return {"cells": len(mat) * len(mat[0]) if mat else 0}


def _interpolation_cells(args, result):
    # the sample matrix has one column per degree-d monomial in the
    # coordinates and extra_points more rows than columns
    nmono = comb(len(args["coords"]) + args["degree"] - 1, args["degree"])
    return {"sample_cells": (nmono + args["extra_points"]) * nmono,
            "forms": len(result)}


def _binomials_out(args, result):
    return {"out": len(result)}


def _sites(args, result):
    return {"sites": args["num_sites"]}


# (span name, module, attribute path, counters from bound args and result)
TARGETS = (
    ("paramap.expand_map", "phyloag.paramap", "expand_map", None),
    ("paramap.JointMap.coordinate", "phyloag.paramap", "JointMap.coordinate",
     None),
    ("paramap.symmetry_classes", "phyloag.paramap", "symmetry_classes", None),
    ("paramap.Circuit.jacobian", "phyloag.paramap", "Circuit.jacobian", None),
    ("paramap.Circuit.eval", "phyloag.paramap", "Circuit.eval", None),
    ("exactalg.mat_rank_nullspace", "phyloag.exactalg", "mat_rank_nullspace",
     _rank_cells),
    ("invariants.interpolate_vanishing_forms", "phyloag.invariants",
     "interpolate_vanishing_forms", _interpolation_cells),
    ("invariants.jacobian_dimension", "phyloag.invariants",
     "jacobian_dimension", None),
    ("fourier.monomial_map", "phyloag.fourier", "monomial_map", None),
    ("fourier.binomials_up_to_degree", "phyloag.fourier",
     "binomials_up_to_degree", _binomials_out),
    ("pipeline.sample_alignment", "phyloag.pipeline", "sample_alignment",
     _sites),
    ("pipeline.exact_distribution", "phyloag.pipeline", "exact_distribution",
     None),
    ("pipeline.write_fasta", "phyloag.pipeline", "write_fasta", None),
    ("pipeline.read_fasta", "phyloag.pipeline", "read_fasta", None),
    ("pipeline.empirical_tensor", "phyloag.pipeline", "empirical_tensor",
     None),
    ("pipeline.infer_quartet", "phyloag.pipeline", "infer_quartet", None),
    ("cli.simulate", "phyloag.cli", "cmd_simulate", None),
    ("cli.infer-quartet", "phyloag.cli", "cmd_infer_quartet", None),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration_s(self):
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records spans for the calls of every TARGETS entry while installed."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, original, counter):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), name,
                        self._stack[-1].id if self._stack else None,
                        self.run_id, time.perf_counter_ns())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result
        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "phyloag" or n.startswith("phyloag.")]
        for name, module_name, path, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, counter)
            if outer:  # a method: the class is its only binding
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()


def layer_totals(spans):
    """Per span name: ``busy_s`` (time inside the name, a call nested in a
    call of the same name counted once), ``self_s`` (busy time minus the time
    covered by child spans), ``calls`` and the summed counters."""
    by_id = {s.id: s for s in spans}
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration_s
    totals = {}
    for s in spans:
        t = totals.setdefault(s.name, {"busy_s": 0.0, "self_s": 0.0,
                                       "calls": 0})
        t["calls"] += 1
        t["self_s"] += s.duration_s - child_time.get(s.id, 0.0)
        if not any(a.name == s.name for a in ancestors(s, by_id)):
            t["busy_s"] += s.duration_s
        for key, value in s.counts.items():
            t[key] = t.get(key, 0) + value
    return totals


def ancestors(span, by_id):
    while span.parent is not None:
        span = by_id[span.parent]
        yield span


def nested_calls(spans, name, under):
    """How many spans called ``name`` have an ancestor called ``under``."""
    by_id = {s.id: s for s in spans}
    return sum(1 for s in spans if s.name == name
               and any(a.name == under for a in ancestors(s, by_id)))
