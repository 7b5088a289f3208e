"""Print every benchmark metric for every workload; fail if the oracle does.

Usage (from the repository root)::

    python3 tdrbench/report.py [--seed 1] [--seconds 15] [--workloads a,b]

Runs ``run.py`` once untraced and once traced per workload, one process at
a time, then prints the end-to-end metrics (name, value, unit) per
workload followed by the per-layer table.  Exits 1 when any run reports
``"correct": false`` or does not finish, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        print(f"{workload} (trace {trace}): exit {out.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    ok = True
    layers: dict[str, dict] = {}
    print(f"end-to-end metrics (seed {args.seed}, {args.seconds:g} s)")
    for workload in workloads:
        untraced = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        for result in (untraced, traced):
            if result is None or not result["correct"]:
                ok = False
        if untraced is not None:
            print(f"  {workload}: {untraced['attempted']} ops, "
                  f"{untraced['failed']} failed")
            for name, metric in untraced["metrics"].items():
                print(f"    {name:<24} {metric['value']:>14.4f} "
                      f"{metric['unit']}")
        if traced is not None:
            layers[workload] = traced["metrics"]

    print("\nper-layer metrics (traced run)")
    shown = [w for w in workloads if w in layers]
    print(f"  {'metric':<40}{'unit':>16}"
          + "".join(f"{w:>14}" for w in shown))
    for metric in bench["per_layer"]:
        name = metric["name"]
        print(f"  {name:<40}{metric['unit']:>16}"
              + "".join(f"{layers[w][name]['value']:>14.5g}"
                        for w in shown))
    print("\noracle: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
