"""One workload process: set-up, timed reports, then checks.

Started by run.py with one BLAS/OpenMP thread; prints one JSON object as the
last line of its standard output.  Set-up ends at the ``ready`` stamp
(``time.monotonic``, comparable across processes): gcsov, numpy and scipy
are imported, the first round of inputs is written and one warm-up report
has run.  The timed phase then runs whole rounds until ``--seconds`` have
passed, or exactly ``--rounds`` rounds when that is given.  Each report is
one in-process ``gcsov.cli.main(argv)`` call with its standard output
captured; its wall time excludes writing the model files, which happens
between rounds.  The calibration kernel (calibrate.py) runs in a gap before
the first report and after each one, and every report carries the kernel
samples of the gaps on either side of it, from which run.py derives its
time in reference seconds.  The gap before the first report, right after
``ready``, also converts the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--untraced-ref-s", type=float, default=0.0,
                    help="untraced reference seconds of the same reports (for the overhead)")
    ap.add_argument("--check", action="store_true")
    return ap.parse_args(argv)


def environment():
    import ctypes

    import mpmath
    import numpy
    import scipy

    blas = []
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            prefix = next(p for p in ("scipy_openblas", "openblas")
                          if hasattr(lib, f"{p}_get_num_threads64_"))
            threads = getattr(lib, f"{prefix}_get_num_threads64_")
            threads.restype = ctypes.c_int
            config = getattr(lib, f"{prefix}_get_config64_")
            config.restype = ctypes.c_char_p
            blas.append({"lib": os.path.basename(path), "config": config().decode(),
                         "threads": threads()})
        except (OSError, StopIteration, AttributeError):
            blas.append({"lib": os.path.basename(path)})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "openblas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_report(cli, rep, path):
    argv = rep["argv"] + ["--model", path, "--seed", str(rep["seed"])]
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a traceback is a failed report, not a crashed benchmark
        traceback.print_exc()
        rc = 1
    return rc, buf.getvalue(), time.perf_counter() - t0


def main(argv=None):
    a = _args(argv)
    sys.path.insert(0, os.path.join(a.root, "src"))
    sys.path.insert(0, HERE)
    t0 = time.perf_counter()
    import gcsov.cli as cli
    import_s = time.perf_counter() - t0
    src = os.path.realpath(os.path.join(a.root, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"gcsov imported from {cli.__file__}, not from {src}")

    from workloads import WORKLOADS

    gen, warmup = WORKLOADS[a.workload]
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{a.workload}-", dir=os.path.join(HERE, "_work"))
    # reports name their model file; a relative name keeps their bytes the
    # same in every process
    os.chdir(work)
    try:
        def prepare(r):
            batch = []
            for i, rep in enumerate(gen(a.seed, r)):
                path = f"r{r}-{i}.json"
                with open(path, "w") as fh:
                    json.dump(rep["model"], fh)
                batch.append((rep, path))
            return batch

        batch = prepare(0)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(warmup)
        tracer = None
        if a.trace:
            from tracing import Tracer
            tracer = Tracer()
            cli = tracer.install()
        ready = time.monotonic()
        from calibrate import KERNEL_SHARE, calibrate, kernel, reference_s
        kernel()  # its first call pays for numpy's lazy set-up
        setup_kernel = calibrate(0.1)  # the speed set-up ran at
        if a.setup_only:
            print(json.dumps({"ready": ready, "setup_kernel": setup_kernel}))
            return

        done, r = [], 0
        loop_start = time.perf_counter()
        k_before = setup_kernel  # also the gap before the first report
        while True:
            for rep, path in batch:
                if tracer is not None:
                    tracer.begin_report()
                rc, text, dt = run_report(cli, rep, path)
                k_after = calibrate(KERNEL_SHARE * dt)
                done.append((rep, rc, text, dt, k_before + k_after))
                k_before = k_after
            r += 1
            if r == a.rounds or (not a.rounds and time.perf_counter() - loop_start >= a.seconds):
                break
            batch = prepare(r)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        os.chdir(a.root)
        shutil.rmtree(work, ignore_errors=True)

    out = {
        "ready": ready,
        "setup_kernel": setup_kernel,
        "import_s": import_s,
        "rounds": r,
        "peak_rss_mb": peak_rss_mb,
        "reports": [{"kind": rep["kind"], "seed": rep["seed"], "rc": rc, "wall_s": dt,
                     "kernel": k, "sha256": hashlib.sha256(text.encode()).hexdigest()}
                    for rep, rc, text, dt, k in done],
        "env": environment(),
    }
    if a.check:
        out.update(verify(done))
    if tracer is not None:
        traced_s = sum(dt for *_, dt, _ in done)
        overhead_s = reference_s(out["reports"]) - a.untraced_ref_s
        out["per_layer"] = tracer.metrics(import_s, traced_s, overhead_s)
    print(json.dumps(out))


def verify(done):
    """Check every report that ran, then plant one defect of each kind."""
    import checks

    failures, planted, first = [], {}, {}
    for k, (rep, rc, text, *_) in enumerate(done):
        if rc != 0:
            continue
        for f in checks.check(rep, text, rc):
            failures.append(f"report {k} ({rep['kind']}, seed {rep['seed']}): {f}")
        first.setdefault(rep["kind"], (rep, rc, text))
    for kind, (rep, rc, text) in sorted(first.items()):
        for defect, found in checks.planted(rep, text, rc).items():
            planted[f"{kind}: {defect}"] = found[:1]
    return {"failures": failures, "planted": planted}


if __name__ == "__main__":
    main()
