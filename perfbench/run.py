"""Benchmark of the certified-report path of gcsov.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: elliptic-bethe, rational-certify (see workloads.py and README.md).
Each run starts its workload in fresh single-threaded processes (BLAS and
OpenMP pinned to one thread) that drive ``gcsov.cli.main`` in-process on
inputs generated from ``--seed``.

--trace 0  four set-up-only processes, one timed process, four more
           set-up-only processes; prints the end-to-end metrics
           reports_per_s, report_p50_s, setup_s (median of the nine
           set-ups) and peak_rss_mb.  Times are in reference seconds
           (calibrate.py), which cancel the machine's changing speed.
--trace 1  one timed process for half of --seconds, then one traced
           process that reruns exactly the same reports; prints the
           per-layer metrics, and fails the run if any report's bytes
           differ between the two.

Every report is checked for correctness after the timed phase, and one
planted defect per check must be caught.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; a fuller record goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import ref_wall_s, reference_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # set-up-only processes before and again after the timed one


class RunError(RuntimeError):
    pass


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _env(root):
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    return env


def main(argv=None):
    a = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gcsov", "cli.py")):
        print("perfbench: no gcsov sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = _env(root)
    start = time.monotonic()
    # a guard against a hung worker: the timed phases take --seconds in all,
    # and a round can overrun them, as can set-ups and checks
    budget_s = 3 * a.seconds + 60

    def worker(*extra):
        left = budget_s - (time.monotonic() - start)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
               "--workload", a.workload, "--seed", str(a.seed), *map(str, extra)]
        spawned = time.monotonic()
        try:
            p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=max(1.0, left))
        except subprocess.TimeoutExpired:
            raise RunError(f"worker {extra} exceeded the {budget_s:.0f} s budget")
        if p.returncode != 0:
            raise RunError(f"worker {extra} exited with {p.returncode}")
        return spawned, json.loads(p.stdout.decode().splitlines()[-1])

    try:
        if a.trace:
            record = _traced_run(worker, a.seconds)
        else:
            record = _timed_run(worker, a.seconds)
    except RunError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    reports = record["reports"]
    result = {
        "correct": not record["failures"] and all(record["planted"].values()),
        "attempted": len(reports),
        "failed": sum(1 for r in reports if r["rc"] != 0),
        "metrics": record["metrics"],
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(record, workload=a.workload, seed=a.seed, seconds=a.seconds,
                       result=result), fh, indent=1)
    for f in record["failures"]:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    for defect, found in record["planted"].items():
        if not found:
            print(f"perfbench: planted defect not caught: {defect}", file=sys.stderr)
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(result))
    return 0


def _timed_run(worker, seconds):
    def setup(spawned, rec):
        setups.append({"wall_s": rec["ready"] - spawned, "kernel": rec["setup_kernel"]})

    # probes on both sides of the timed phase, so the median spans the run
    setups = []
    for _ in range(SETUP_PROBES):
        setup(*worker("--setup-only"))
    spawned, run = worker("--seconds", seconds, "--check")
    setup(spawned, run)
    for _ in range(SETUP_PROBES):
        setup(*worker("--setup-only"))
    reports = run["reports"]
    metrics = {
        "reports_per_s": (len(reports) / reference_s(reports), "1/s"),
        "report_p50_s": (statistics.median(map(ref_wall_s, reports)), "s"),
        "setup_s": (statistics.median(map(ref_wall_s, setups)), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    run["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    run["setups"] = setups
    walls = [r["wall_s"] for r in reports]
    run["wall_clock"] = {"reports_per_s": len(walls) / sum(walls),
                         "report_p50_s": statistics.median(walls),
                         "setup_s": statistics.median(s["wall_s"] for s in setups)}
    return run


def _traced_run(worker, seconds):
    # the untraced and the traced pass share the run's --seconds
    _, run = worker("--seconds", seconds / 2, "--check")
    _, traced = worker("--rounds", run["rounds"], "--trace",
                       "--untraced-ref-s", reference_s(run["reports"]))
    ours = [(r["kind"], r["seed"], r["sha256"]) for r in run["reports"]]
    theirs = [(r["kind"], r["seed"], r["sha256"]) for r in traced["reports"]]
    if ours != theirs:
        diff = sum(x != y for x, y in zip(ours, theirs)) + abs(len(ours) - len(theirs))
        run["failures"].append(f"{diff} report(s) differ between the timed and traced runs")
    run["metrics"] = traced["per_layer"]
    run["traced_reports"] = traced["reports"]
    return run


if __name__ == "__main__":
    sys.exit(main())
