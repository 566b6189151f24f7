"""Rerun the benchmark on several seeds and print each metric's spread.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --workload elliptic-bethe --seeds 1-10

For every metric it prints the median of the runs and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of that median, next to the metric's bound from BENCHMARK.json, and
the same for the wall-clock figures that each run's record keeps beside the
metrics in reference seconds.  It also prints the failed share of each run,
which must be the same in all.
Runs go one after another, each in its own processes, as in a real run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    a = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, shares = {}, set()
    for seed in a.seeds:
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", "0"]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if p.returncode != 0:
            print(f"seed {seed}: exit code {p.returncode}")
            continue
        res = json.loads(p.stdout.splitlines()[-1])
        shares.add(Fraction(res["failed"], res["attempted"]))
        print(f"seed {seed}: correct {res['correct']} attempted {res['attempted']} "
              f"failed {res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        with open(f"perfbench/results/{a.workload}-seed{seed}-trace0.json") as fh:
            for name, v in json.load(fh)["wall_clock"].items():
                values.setdefault(f"wall_clock.{name}", []).append(v)

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = f"  bound {bound}" if bound is not None else ""
        print(f"{name:32s} median {med:.6g}  spread {spread:.3f}{note}")
    print("failed shares seen:", ", ".join(str(x) for x in sorted(shares)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
