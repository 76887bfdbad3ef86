"""The library names that the benchmark in perfbench/ traces and calls must
keep resolving, so a refactor that would break the traced benchmark fails
here first."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from phyloag import exactalg, invariants, parse_newick, pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    # the same lookup as spans.Tracer.install: the attribute is read from
    # the owner's own __dict__, so a method must be defined on its class
    for _, module_name, path, _ in _load("spans").TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(owner.__dict__[attr]), path


def test_counted_arguments_keep_their_names():
    # the counters of spans.TARGETS read these names from the bound
    # arguments, so a rename would break only the traced run
    counted = {(module, path) for _, module, path, counter
               in _load("spans").TARGETS if counter is not None}
    for func, names in [
            (exactalg.mat_rank_nullspace, {"mat"}),
            (invariants.interpolate_vanishing_forms,
             {"coords", "degree", "extra_points"}),
            (pipeline.sample_alignment, {"num_sites"})]:
        assert (func.__module__, func.__name__) in counted
        assert names <= set(inspect.signature(func).parameters), func


def test_rank_is_bound_where_the_selftest_traces_it():
    for module in (exactalg, invariants, pipeline):
        assert module.mat_rank_nullspace is exactalg.mat_rank_nullspace


def test_circuit_ops_reads_a_mixture():
    mix = invariants.make_mixture(parse_newick("((1,2),(3,4));"), "jc-dna", 2)
    assert _load("workloads")._circuit_ops(mix) == len(mix.circuit.ops)
