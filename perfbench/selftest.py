"""Tests of the benchmark itself: span arithmetic, wrapper restoration, and
that every workload's checks reject a wrong reference.

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import signal
import sys
import time

import pytest

import hostspeed
import run

if run.load_phyloag() is None:
    sys.exit("phyloag sources not found next to perfbench/")

import spans  # noqa: E402
import workloads  # noqa: E402
from phyloag import paramap, parse_newick, make_model  # noqa: E402
from phyloag.exactalg import Poly, parse_poly  # noqa: E402

REF = workloads.REFERENCE


def _span(sid, name, parent, start, end):
    return spans.Span(sid, name, parent, "synthetic", int(start * 1e9),
                      int(end * 1e9))


def test_self_time_on_synthetic_nested_spans():
    trace = [
        _span(0, "a", None, 0.0, 10.0),
        _span(1, "b", 0, 1.0, 4.0),
        _span(2, "d", 1, 2.0, 3.0),
        _span(3, "c", 0, 5.0, 6.0),
        _span(4, "a", 3, 5.2, 5.8),  # a nested inside itself
    ]
    totals = spans.layer_totals(trace)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["busy_s"] == pytest.approx(10.0)
    assert totals["a"]["self_s"] == pytest.approx(10 - 3 - 1 + 0.6)
    assert totals["b"]["self_s"] == pytest.approx(2.0)
    assert totals["c"]["busy_s"] == pytest.approx(1.0)
    assert totals["c"]["self_s"] == pytest.approx(0.4)
    assert totals["d"]["self_s"] == pytest.approx(1.0)
    assert spans.nested_calls(trace, "a", "c") == 1
    assert spans.nested_calls(trace, "d", "a") == 1


def _bindings():
    """Every phyloag module attribute and class attribute a target names."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "phyloag" or name.startswith("phyloag."):
            seen.update({(name, key): value
                         for key, value in vars(module).items()})
    seen[("Circuit",)] = dict(vars(paramap.Circuit))
    seen[("JointMap",)] = dict(vars(paramap.JointMap))
    return seen


def test_wrappers_cover_every_binding_and_are_restored():
    import phyloag
    from phyloag import exactalg, invariants, pipeline
    before = _bindings()
    original_rank = exactalg.mat_rank_nullspace
    tracer = spans.Tracer("restore-test")
    with tracer:
        for module in (exactalg, invariants, pipeline):
            assert module.mat_rank_nullspace is not original_rank
        assert phyloag.expand_map is paramap.expand_map
        assert vars(paramap.Circuit)["eval"] is not before[("Circuit",)]["eval"]
        jm = paramap.expand_map(make_model(parse_newick("(1,(2,3));"),
                                           "jc-dna"))
        paramap.symmetry_classes(jm)
    assert _bindings() == before
    names = {s.name for s in tracer.spans}
    assert {"paramap.expand_map", "paramap.symmetry_classes",
            "paramap.JointMap.coordinate"} <= names
    classes = next(s for s in tracer.spans
                   if s.name == "paramap.symmetry_classes")
    assert all(s.parent == classes.id for s in tracer.spans
               if s.name == "paramap.JointMap.coordinate")
    assert all(s.run == "restore-test" for s in tracer.spans)


def test_interpolate_checks_reject_wrong_forms():
    cubic = workloads._jc3_cubic(seed=5)
    ref = REF["interpolate"]["jc3_cubic"]
    assert workloads.check_forms(cubic, ref) is None
    assert workloads.check_forms([-cubic[0]], ref) is None  # sign is free
    assert workloads.check_forms(cubic, dict(ref, terms=18)) is not None
    assert workloads.check_forms(cubic + cubic, ref) is not None

    ref8 = REF["interpolate"]["gm2_degree8"]
    form = parse_poly(ref8["form"])
    assert workloads.check_forms([form], ref8) is None
    mono, coeff = next(iter(form.terms.items()))
    shorter = Poly({m: c for m, c in form.terms.items() if m != mono})
    wrong69 = dict(ref8, terms=69, form=str(shorter))
    assert workloads.check_forms([form], wrong69) is not None
    changed = Poly({**form.terms, mono: coeff * 3})
    assert workloads.check_forms([changed], ref8) is not None


def test_dimension_check_rejects_wrong_dimension(tmp_path):
    case = dict(REF["dimension"][0])
    ok = workloads.build_jobs("dimension", 5, tmp_path,
                              {"dimension": [case]})
    bad = workloads.build_jobs("dimension", 5, tmp_path,
                               {"dimension": [dict(case, dimension=4)]})
    assert run.run_jobs(ok).failed == 0
    rep = run.run_jobs(bad)
    assert (rep.attempted, rep.failed) == (1, 1)
    assert "projective dimension 3, expected 4" in rep.problems[0]


def test_simulate_checks_reject_wrong_split_and_digest(tmp_path):
    ref = dict(REF["simulate"], sites=3000, tv_max=1.0)
    assert run.run_jobs(workloads.build_jobs(
        "simulate", 5, tmp_path, {"simulate": ref})).failed == 0
    wrong = dict(ref, split="(13)(24)", digest_sha256="0" * 64)
    rep = run.run_jobs(workloads.build_jobs("simulate", 5, tmp_path,
                                            {"simulate": wrong}))
    assert rep.attempted == 5
    assert sorted(p.split(":")[0] for p in rep.problems) == [
        "cli_infer_quartet", "exact_infer_quartet", "reference_seed_digest"]


def test_check_rejects_large_total_variation():
    assert workloads.check_total_variation(0.009, 0.015) is None
    assert workloads.check_total_variation(0.02, 0.015) is not None


def test_raising_job_counts_as_failure_and_the_list_goes_on():
    def boom():
        raise ValueError("bad input")
    jobs = [workloads.Job("boom", boom, lambda out: None),
            workloads.Job("fine", lambda: 1, lambda out: None)]
    rep = run.run_jobs(jobs)
    assert (rep.attempted, rep.failed) == (2, 1)
    assert rep.problems == ["boom: ValueError: bad input"]


def test_host_speed_scales_each_stretch_by_its_slowdown():
    host = hostspeed.HostSpeed("python")
    host.samples = [hostspeed.Sample(0.0, 0.0, 1.0),
                    hostspeed.Sample(1.0, 0.9, 1.0),
                    hostspeed.Sample(2.0, 2.0, 3.0),
                    hostspeed.Sample(3.0, 3.0, 3.0)]
    assert host.wall_s == pytest.approx(6.0)
    assert host.cpu_s == pytest.approx(5.9)
    # slowdowns at the stretch ends: 1|1, 1|3, 3|3
    assert host.ref_wall_s == pytest.approx(1.0 + 2.0 / 2 + 3.0 / 3)
    assert host.ref_cpu_s == pytest.approx(0.9 + 2.0 / 2 + 3.0 / 3)


@pytest.mark.parametrize("kernel", sorted(hostspeed.KERNELS))
def test_host_speed_samples_and_restores_the_timer(kernel):
    before = signal.getsignal(signal.SIGALRM)
    def spin():  # long enough for two timer samples between start and end
        end = time.perf_counter() + 2.5 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    rep = run.run_sampled([workloads.Job("spin", spin, lambda out: None)],
                          kernel)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert rep.failed == 0
    assert len(rep.host.samples) >= 3
    assert 0 < rep.wall_s and 0 < rep.host.ref_wall_s
    assert set(workloads.KERNEL) == set(workloads.WORKLOADS)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
