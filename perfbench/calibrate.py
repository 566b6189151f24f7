"""A fixed reference computation that gauges the machine's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-50% over minutes, and that drift moves every report's wall time the same
way.  The timed worker therefore runs this kernel in a gap before its first
report and in a gap after every report, each gap lasting until the kernel
has taken ``KERNEL_SHARE`` of the report's wall time (once at least).
run.py then expresses report times in reference seconds: a report's wall
time times ``REF_S`` over the mean kernel time in the gaps on either side of
it.  Set-up times are converted the same way, with a gap that every worker
runs right after its set-up.  When the machine runs at the speed where the
kernel takes ``REF_S``, a reference second is a second.

The kernel shares no code with gcsov, so no change to the program moves it.
It mixes the kinds of work the reports do: a pure-Python complex product
like the truncated theta series of special_functions, and small dense numpy
linear algebra like the Gaudin and Newton steps, in about equal parts.  Its
inputs are constants.
"""

from __future__ import annotations

import cmath
import time

import numpy as np

#: the kernel's time, in seconds, at the reference speed (about its median
#: over the benchmark's runs on a 2-vCPU virtual machine)
REF_S = 0.020

#: the kernel's share of the timed phase; more samples per gap average out
#: its own jitter, which is about 10% from one sample to the next
KERNEL_SHARE = 0.05

_RNG = np.random.default_rng(20260601)
_MATS = [_RNG.standard_normal((24, 24)) + 1j * _RNG.standard_normal((24, 24))
         for _ in range(6)]
_VEC = _RNG.standard_normal(24) + 0j


def _python_part():
    q = 0.23 + 0.11j
    acc = 0j
    for k in range(1200):
        z = cmath.exp(complex(0.0005 * k, 0.1 * k))
        p, qi = 1 + 0j, 1 + 0j
        for _ in range(24):
            p *= (1 - qi * z) * (1 - qi * q / z)
            qi *= q
        acc += p
    return acc


def _numpy_part():
    acc = 0j
    for a in _MATS * 16:
        h = a + a.conj().T
        acc += np.linalg.eigvalsh(h).sum()
        acc += np.linalg.solve(a, _VEC)[0]
        acc += (a @ a).trace()
    return acc


def kernel():
    """Run the kernel once and return the wall times of its two parts."""
    t0 = time.perf_counter()
    _python_part()
    t1 = time.perf_counter()
    _numpy_part()
    return t1 - t0, time.perf_counter() - t1


def calibrate(budget_s):
    """Run the kernel until it has taken budget_s, at least once."""
    samples = [kernel()]
    while sum(map(sum, samples)) < budget_s:
        samples.append(kernel())
    return samples


def ref_wall_s(report):
    """A report's (or a set-up's) wall time in reference seconds.

    ``report["kernel"]`` holds the kernel samples taken around it: the gaps
    before and after a report, the gap right after a set-up.
    """
    k = report["kernel"]
    return report["wall_s"] * REF_S * len(k) / sum(p + n for p, n in k)


def reference_s(reports):
    """The summed wall time of reports, in reference seconds."""
    return sum(ref_wall_s(r) for r in reports)
