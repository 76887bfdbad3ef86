"""Run every workload once and print its metrics by name and unit, with
fail_ratio (failed jobs / attempted jobs), as one table.  An untraced run
also shows its unscaled wall_s, cpu_s and host_slowdown.

    python3 perfbench/summary.py --seed 1            # end-to-end metrics
    python3 perfbench/summary.py --seed 1 --trace 1  # per-layer metrics
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for workload in (w["name"] for w in SPEC["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((HERE / "out" / f"{workload}-seed{args.seed}"
                             f"-trace{args.trace}.json").read_text())
        rows = [(name, m["value"], m["unit"])
                for name, m in result["metrics"].items()]
        rows += [(f"{name} (unscaled)", value,
                  "x" if name == "host_slowdown" else "s")
                 for name, value in record["unscaled"].items()]
        for name, value, unit in rows:
            print(f"{workload:<12} {name:<52} {value:>14.6g} {unit}")
        failed, attempted = result["failed"], result["attempted"]
        print(f"{workload:<12} {'fail_ratio':<52} {failed / attempted:>14.6g}"
              f" ratio ({failed}/{attempted} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
