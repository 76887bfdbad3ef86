"""phyloag benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload interpolate --seed 1 --seconds 40 --trace 0

Each run is a closed-loop, single-process batch job in a fresh interpreter:
the workload's jobs (see workloads.py) run one after another, every output is
checked against reference.json, and BLAS is capped at the number of usable
cores.  The job list is repeated while another repetition still fits in
``--seconds`` (at least once).

``--trace 0`` reports the end-to-end metrics, untraced: medians over the
repetitions of the job list's wall time and CPU time, the median time from
interpreter start to the first job over several fresh set-up processes
(setup_probe.py), all three in reference seconds (scaled by the host speed
measured around them; see hostspeed.py), and the peak resident memory of
the run process up to the end of the first repetition.  The unscaled times
and the host's median slowdown are printed as well.

``--trace 1`` runs the job list once untraced and once with spans.Tracer
installed, and reports the per-layer metrics derived from the spans plus the
tracing overhead (traced wall time minus untraced wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the machine facts and every metric by name and unit, labelled with the
active ``Rat`` backend; perfbench/out/ receives the same data as a JSON file,
with the spans of a traced run.  Without the repository's ``src/phyloag``
next to this directory the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostSpeed, measure_slowdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5

END_TO_END = (("ref_wall_s", "s"), ("ref_cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("paramap.expand_map.busy_s", "s"),
    ("paramap.expand_map.calls", "count"),
    ("paramap.circuit_ops", "count"),
    ("paramap.JointMap.coordinate.busy_s", "s"),
    ("paramap.symmetry_classes.busy_s", "s"),
    ("paramap.Circuit.jacobian.busy_s", "s"),
    ("paramap.Circuit.jacobian.calls", "count"),
    ("paramap.Circuit.eval.busy_s", "s"),
    ("exactalg.mat_rank_nullspace.busy_s", "s"),
    ("exactalg.mat_rank_nullspace.calls", "count"),
    ("exactalg.mat_rank_nullspace.cells", "count"),
    ("invariants.interpolate_vanishing_forms.self_s", "s"),
    ("invariants.interpolate_vanishing_forms.calls", "count"),
    ("invariants.interpolate_vanishing_forms.sample_cells", "count"),
    ("invariants.interpolate_vanishing_forms.forms", "count"),
    ("invariants.jacobian_dimension.self_s", "s"),
    ("invariants.jacobian_dimension.points_per_call", "ratio"),
    ("fourier.monomial_map.busy_s", "s"),
    ("fourier.binomials_up_to_degree.busy_s", "s"),
    ("fourier.binomials_up_to_degree.out", "count"),
    ("pipeline.sample_alignment.self_s", "s"),
    ("pipeline.sample_alignment.sites", "count"),
    ("pipeline.sample_alignment.sites_per_s", "1/s"),
    ("pipeline.exact_distribution.busy_s", "s"),
    ("pipeline.exact_distribution.calls", "count"),
    ("pipeline.write_fasta.busy_s", "s"),
    ("pipeline.read_fasta.busy_s", "s"),
    ("pipeline.empirical_tensor.busy_s", "s"),
    ("pipeline.infer_quartet.busy_s", "s"),
    ("cli.simulate.self_s", "s"),
    ("cli.infer-quartet.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def usable_cores():
    return len(os.sched_getaffinity(0))


def load_phyloag():
    """Import phyloag from the checkout's src/, with BLAS capped at the
    number of usable cores; None when src/phyloag is missing."""
    if not (SRC / "phyloag" / "__init__.py").is_file():
        return None
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(usable_cores())
    sys.path.insert(0, str(SRC))
    import phyloag
    if not Path(phyloag.__file__).resolve().is_relative_to(SRC):
        return None
    return phyloag


@contextlib.contextmanager
def work_dir():
    """A scratch directory under perfbench/out/, removed afterwards."""
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def machine_facts(phyloag):
    import numpy
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": usable_cores(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "rat_backend": phyloag.Rat.__module__,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


@dataclass
class Repetition:
    wall_s: float
    cpu_s: float
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    host: HostSpeed | None = None


def run_jobs(jobs):
    """Run every job once, in order; a raised exception or a failed check
    counts as a failed job and the list goes on."""
    rep = Repetition(0.0, 0.0)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in jobs:
        rep.attempted += 1
        try:
            out = job.run()
            problem = job.check(out)
        except Exception as exc:  # a job failure is a result, not a crash
            problem = f"{type(exc).__name__}: {exc}"
        else:
            for key, value in (job.counts(out) if job.counts else {}).items():
                rep.counts[key] = rep.counts.get(key, 0) + value
        if problem:
            rep.failed += 1
            rep.problems.append(f"{job.name}: {problem}")
    rep.wall_s = time.perf_counter() - wall0
    rep.cpu_s = time.process_time() - cpu0
    return rep


def run_sampled(jobs, kernel):
    """run_jobs with the host's speed sampled throughout by ``kernel``;
    wall_s and cpu_s exclude the kernel's time."""
    host = HostSpeed(kernel)
    with host:
        rep = run_jobs(jobs)
    rep.wall_s, rep.cpu_s, rep.host = host.wall_s, host.cpu_s, host
    return rep


def measure_setup(workload, seed):
    """Seconds from starting a fresh interpreter to the point where the
    workload's first job could start, for each of SETUP_PROBES processes:
    unscaled, and in reference seconds (scaled by the mean of the Python
    kernel's slowdown just before and just after the probe)."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times, ref_times = [], []
    for _ in range(SETUP_PROBES):
        before = measure_slowdown("python")
        start = time.perf_counter()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or not ready:
            raise RuntimeError(f"set-up probe failed: {proc.returncode}")
        times.append(elapsed)
        ref_times.append(elapsed / ((before + measure_slowdown("python")) / 2))
    return times, ref_times


def per_layer_metrics(spans, counts, traced_wall, untraced_wall):
    from spans import layer_totals, nested_calls
    totals = layer_totals(spans)
    sample = totals.get("pipeline.sample_alignment", {})
    dim_calls = totals.get("invariants.jacobian_dimension", {}).get("calls", 0)
    derived = {
        "paramap.circuit_ops": counts.get("paramap.circuit_ops", 0),
        "invariants.jacobian_dimension.points_per_call":
            nested_calls(spans, "exactalg.mat_rank_nullspace",
                         "invariants.jacobian_dimension") / dim_calls
            if dim_calls else 0.0,
        "pipeline.sample_alignment.sites_per_s":
            sample["sites"] / sample["busy_s"] if sample else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    values = {}
    for name, _ in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
        else:
            span_name, _, key = name.rpartition(".")
            values[name] = totals.get(span_name, {}).get(key, 0)
    return values, totals


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    phyloag = load_phyloag()
    if phyloag is None:
        print(f"error: phyloag sources not found under {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    facts = machine_facts(phyloag)
    setup_times, ref_setup_times = measure_setup(args.workload, args.seed)
    with work_dir() as wd:
        jobs = workloads.build_jobs(args.workload, args.seed, wd)
        start = time.perf_counter()
        kernel = workloads.KERNEL[args.workload]
        reps = [run_jobs(jobs) if args.trace else run_sampled(jobs, kernel)]
        # read after the first pass: later passes grow the heap a little, and
        # how many of them fit depends on the machine's speed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
            with tracer:
                reps.append(run_jobs(jobs))
        else:
            while time.perf_counter() - start + reps[-1].wall_s \
                    <= args.seconds:
                reps.append(run_sampled(jobs, kernel))

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    problems = [p for r in reps for p in r.problems]
    raw = {}
    if args.trace:
        values, totals = per_layer_metrics(tracer.spans, reps[1].counts,
                                           reps[1].wall_s, reps[0].wall_s)
        units = dict(PER_LAYER)
    else:
        # unscaled figures, for reading; the metrics are the scaled ones
        raw = {"wall_s": statistics.median(r.wall_s for r in reps),
               "cpu_s": statistics.median(r.cpu_s for r in reps),
               "setup_s": statistics.median(setup_times),
               "host_slowdown": statistics.median(r.host.median_slowdown()
                                                  for r in reps)}
        values = {
            "ref_wall_s": statistics.median(r.host.ref_wall_s for r in reps),
            "ref_cpu_s": statistics.median(r.host.ref_cpu_s for r in reps),
            "setup_s": statistics.median(ref_setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": v, "unit": units[name]}
               for name, v in values.items()}

    label = f"[{args.workload} seed={args.seed} rat={facts['rat_backend']}]"
    print(f"{label} facts: {json.dumps(facts)}")
    print(f"{label} repetitions: {len(reps)}"
          f" ({'1 untraced + 1 traced' if args.trace else 'untraced'});"
          f" set-up probes: {len(setup_times)}")
    for name, m in metrics.items():
        print(f"{label} {name} = {m['value']} {m['unit']}")
    for name, value in raw.items():
        print(f"{label} {name} = {value}"
              f" {'x' if name == 'host_slowdown' else 's'} (unscaled)")
    print(f"{label} fail_ratio = {failed / attempted} ({failed}/{attempted}"
          " jobs)")
    for problem in problems:
        print(f"{label} FAILED {problem}")
    if args.trace:
        wall = reps[1].wall_s
        for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{label} span {name}: busy {t['busy_s']:.4f} s"
                  f" ({t['busy_s'] / wall:.1%}), self {t['self_s']:.4f} s"
                  f" ({t['self_s'] / wall:.1%}), calls {t['calls']}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "facts": facts,
              "setup_s_samples": setup_times,
              "ref_setup_s_samples": ref_setup_times,
              "repetitions": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s,
                               "attempted": r.attempted, "failed": r.failed,
                               "host_samples": [vars(s) for s in r.host.samples]
                               if r.host else None}
                              for r in reps],
              "fail_ratio": failed / attempted, "problems": problems,
              "metrics": metrics, "unscaled": raw}
    if args.trace:
        record["spans"] = [vars(s) for s in tracer.spans]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
