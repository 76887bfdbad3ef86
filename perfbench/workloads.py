"""The benchmark's workloads: inputs made from a seed, the job lists that run
public phyloag calls on them, and the checks of every output against the
frozen references in reference.json.

Jobs call the library through module attributes (``invariants.f(...)``), not
through names bound at import time, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from phyloag import Rat, cli, fourier, invariants, models, paramap, pipeline
from phyloag import treecore
from phyloag.exactalg import parse_poly

WORKLOADS = ("interpolate", "dimension", "simulate")
# the host-speed kernel (hostspeed.py) that does the same kind of work as the
# workload's dominant layer: numpy mod-p elimination, or pure-Python rationals
KERNEL = {"interpolate": "numpy", "dimension": "python", "simulate": "python"}
REFERENCE = json.loads(
    (Path(__file__).with_name("reference.json")).read_text(encoding="utf-8"))

JC3_CLASS_NAMES = ["p123", "p12", "p13", "p23", "pdis"]
QUARTET = "((1,2),(3,4));"
QUARTET_LEAVES = ["1", "2", "3", "4"]


@dataclass
class Job:
    """One unit of work: ``run`` returns the output, ``check`` returns a
    description of what is wrong with it, or None when it matches.
    ``counts`` optionally reads per-layer counters off the output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    counts: Callable[[object], dict] | None = None


# -- checks -----------------------------------------------------------------


def check_forms(forms, ref):
    """Interpolated forms against a reference: number of forms, term count,
    degree, and equality with the reference form up to an overall sign."""
    if len(forms) != ref["forms"]:
        return f"{len(forms)} forms, expected {ref['forms']}"
    form = forms[0]
    if form.num_terms() != ref["terms"]:
        return f"{form.num_terms()} terms, expected {ref['terms']}"
    if form.degree() != ref["degree"]:
        return f"degree {form.degree()}, expected {ref['degree']}"
    want = parse_poly(ref["form"])
    if form != want and form != -want:
        return "form differs from the reference (also up to sign)"
    return None


def check_equal(what, got, want):
    return None if got == want else f"{what} {got}, expected {want}"


def check_cli_simulate(result, sites):
    rc, out = result
    if rc != 0:
        return f"exit code {rc}"
    if not out.startswith(f"wrote {sites} sites"):
        return f"unexpected output {out[:80]!r}"
    return None


def check_cli_split(result, split):
    rc, out = result
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(out)
    if payload["split"] != split or not payload["decisive"]:
        return (f"split {payload['split']} (decisive {payload['decisive']}),"
                f" expected {split}")
    return None


def check_total_variation(tv, tv_max):
    return None if tv <= tv_max else f"total variation {tv} > {tv_max}"


def check_exact_split(result, split):
    winner, scores, decisive = result
    if winner != split or not decisive:
        return f"split {winner} (decisive {decisive}), expected {split}"
    if scores[split] != 0.0:
        return f"score of {split} is {scores[split]}, expected 0.0"
    return None


def check_digest(result, digest):
    rc, sha = result
    if rc != 0:
        return f"exit code {rc}"
    return None if sha == digest else f"alignment digest {sha}"


# -- interpolate ------------------------------------------------------------


def _jc3_cubic(seed):
    jm = paramap.expand_map(models.make_model(
        treecore.parse_newick("(1,(2,3));"), "jc-dna"))
    classes = paramap.symmetry_classes(jm)
    acc = paramap.accumulate_classes(jm, classes)
    return invariants.interpolate_vanishing_forms(
        list(zip(JC3_CLASS_NAMES, acc)), 3, rng=random.Random(seed))


def _gm2_degree8(seed):
    model = models.make_model(treecore.parse_newick("(1,(2,3));"),
                              "homogeneous", root_mode="free", k=2,
                              homogeneous_base="general-markov")
    jm = paramap.expand_map(model)
    distinct = [(f"h{c[0]}", jm.coordinate(c[0]))
                for c in paramap.symmetry_classes(jm)]
    return invariants.interpolate_vanishing_forms(distinct, 8,
                                                  rng=random.Random(seed))


def _jc_dna_binomials():
    mm = fourier.monomial_map(models.make_model(
        treecore.parse_newick("((1,2),(3,(4,5)));"), "jc-dna"))
    return len(fourier.binomials_up_to_degree(mm, 3))


def _kimura3_coordinates():
    mm = fourier.monomial_map(models.make_model(
        treecore.parse_newick("(((1,2),(3,4)),((5,6),7));"), "kimura3"))
    return len(mm.coord_names)


def interpolate_jobs(seed, ref):
    return [
        Job("jc3_cubic", lambda: _jc3_cubic(seed),
            lambda out: check_forms(out, ref["jc3_cubic"])),
        Job("gm2_degree8", lambda: _gm2_degree8(seed),
            lambda out: check_forms(out, ref["gm2_degree8"])),
        Job("jc_dna_binomials", _jc_dna_binomials,
            lambda out: check_equal("binomials", out,
                                    ref["jc_dna_binomials"])),
        Job("kimura3_coordinates", _kimura3_coordinates,
            lambda out: check_equal("coordinates", out,
                                    ref["kimura3_coordinates"])),
    ]


# -- dimension --------------------------------------------------------------


def _circuit_ops(joint_map):
    parts = getattr(joint_map, "components", [joint_map])
    return sum(len(part.circuit.ops) for part in parts)


def _dimension(case, seed):
    jm = invariants.make_mixture(treecore.parse_newick(case["newick"]),
                                 case["kind"], case["mixture"],
                                 root_mode=case["root"], k=case["k"])
    _, dim = invariants.jacobian_dimension(jm, rng=random.Random(seed))
    return dim, _circuit_ops(jm)


def dimension_jobs(seed, ref):
    jobs = []
    for case in ref:
        name = f"{case['kind']}x{case['mixture']}:{case['newick']}"
        jobs.append(Job(
            name, lambda case=case: _dimension(case, seed),
            lambda out, case=case: check_equal(
                "projective dimension", out[0], case["dimension"]),
            lambda out: {"paramap.circuit_ops": out[1]}))
    return jobs


# -- simulate ---------------------------------------------------------------


def stochastic_jc_params(tree):
    """Row-stochastic Jukes-Cantor DNA rates, 1/(80 + 2e) on edge e, as in
    acceptance criterion 11."""
    params = {}
    for eid in range(tree.num_edges):
        letter = models.edge_letter(eid)
        a1 = Rat(1, 80 + 2 * eid)
        params[f"{letter}1"] = a1
        params[f"{letter}0"] = 1 - 3 * a1
    return params


def write_simulate_inputs(workdir, params):
    """Tree and parameter files for the CLI; returns their paths."""
    tree_path = workdir / "quartet.nwk"
    params_path = workdir / "params.json"
    tree_path.write_text(QUARTET + "\n", encoding="utf-8")
    params_path.write_text(json.dumps({s: str(v) for s, v in params.items()}),
                           encoding="utf-8")
    return tree_path, params_path


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def _simulate_argv(tree_path, params_path, sites, seed, fasta):
    return ["simulate", "--tree", tree_path, "--model", "jc-dna",
            "--params", params_path, "--length", sites, "--seed", seed,
            "--out", fasta]


def _quartet_map():
    model = models.make_model(treecore.parse_newick(QUARTET), "jc-dna")
    return model, paramap.expand_map(model)


def _library_total_variation(params, fasta):
    model, jm = _quartet_map()
    probs = pipeline.exact_distribution(jm, params)
    emp = pipeline.empirical_tensor(pipeline.read_fasta(fasta), model)
    return pipeline.total_variation(probs, emp)


def _exact_infer(params):
    _, jm = _quartet_map()
    probs = pipeline.exact_distribution(jm, params)
    return pipeline.infer_quartet(probs, QUARTET_LEAVES, 4, 4)


def _reference_digest(tree_path, params_path, sites, seed, fasta):
    rc, _ = _cli(_simulate_argv(tree_path, params_path, sites, seed, fasta))
    sha = hashlib.sha256(Path(fasta).read_bytes()).hexdigest() \
        if rc == 0 else None
    return rc, sha


def simulate_jobs(seed, ref, workdir):
    params = stochastic_jc_params(treecore.parse_newick(QUARTET))
    tree_path, params_path = write_simulate_inputs(workdir, params)
    fasta = workdir / "sampled.fasta"
    ref_fasta = workdir / "reference.fasta"
    sites, split = ref["sites"], ref["split"]
    return [
        Job("cli_simulate",
            lambda: _cli(_simulate_argv(tree_path, params_path, sites, seed,
                                        fasta)),
            lambda out: check_cli_simulate(out, sites)),
        Job("cli_infer_quartet",
            lambda: _cli(["infer-quartet", "--alignment", fasta, "--rank", 4,
                          "--format", "json"]),
            lambda out: check_cli_split(out, split)),
        Job("library_total_variation",
            lambda: _library_total_variation(params, fasta),
            lambda out: check_total_variation(out, ref["tv_max"])),
        Job("exact_infer_quartet", lambda: _exact_infer(params),
            lambda out: check_exact_split(out, split)),
        Job("reference_seed_digest",
            lambda: _reference_digest(tree_path, params_path,
                                      ref["digest_sites"],
                                      ref["digest_seed"], ref_fasta),
            lambda out: check_digest(out, ref["digest_sha256"])),
    ]


def build_jobs(workload, seed, workdir, reference=REFERENCE):
    """The job list of a workload for one seed; ``workdir`` holds the files
    the simulate workload reads and writes."""
    ref = reference[workload]
    if workload == "interpolate":
        return interpolate_jobs(seed, ref)
    if workload == "dimension":
        return dimension_jobs(seed, ref)
    if workload == "simulate":
        return simulate_jobs(seed, ref, workdir)
    raise ValueError(f"unknown workload {workload!r}")
