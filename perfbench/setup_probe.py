"""Set-up probe for run.py: imports phyloag and builds one workload's jobs
exactly as a run does, prints "ready" and exits.  run.py times each probe
from process start to that line.

    python3 perfbench/setup_probe.py interpolate 1
"""

import sys

from run import load_phyloag, work_dir


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    if load_phyloag() is None:
        return 2
    import workloads
    with work_dir() as wd:
        workloads.build_jobs(workload, seed, wd)
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
