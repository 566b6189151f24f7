"""Correctness checks for every report kind, and their planted defects.

``check(rep, text, rc)`` returns the list of failures found in one report
(empty when the report is correct).  ``planted(rep, text, rc)`` runs the same
checks on copies of the report, or of the data a check compares, into which
one known defect has been planted, and returns ``{defect: failures}``; every
defect must produce at least one failure, or the check that should catch it
is blind.

The oracle-backed parts judge the report, and the program's theta family
for the report's nome, with the independent references in oracles.py.  They
run after the timed phase.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

import numpy as np

import oracles

THETA_TOL = 1e-10       # relative, program theta family vs the mpmath oracle
BETHE_TOL = 1e-8        # |D psi / psi| at fresh points under the oracle theta
MULT_TOL = 1e-8         # relative spread of psi(q w) / psi(w)
TUPLE_TOL = 1e-8        # eigenvalue tuples, relative to max(1, |mu|)


def _c(v):
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _model(rep):
    m = rep["model"]
    return ([_c(v) for v in m["z"]], [float(v) for v in m["lambda"]],
            _c(m["q"]) if "q" in m else None)


def _rng(rep, salt):
    return np.random.default_rng([rep["seed"], salt])


# ------------------------------------------------------------- records


def record_failures(doc):
    out = []
    for r in doc["records"]:
        res, tol = float(r["max_residual"]), float(r["tol"])
        if r["expect_failure"] and not res >= tol:
            out.append(f"control {r['label']} did not fire: {res:.3e} < {tol:.1e}")
        if not r["expect_failure"] and not res < tol:
            out.append(f"{r['label']} residual {res:.3e} >= {tol:.1e}")
    return out


def _samples(doc, label):
    return {r["label"]: r["samples"] for r in doc["records"]}.get(label)


def _parse(text, rc):
    if rc != 0:
        return None, [f"exit code {rc}"]
    return json.loads(text), []


# ---------------------------------------------------------- theta family


def theta_failures(q, points, family):
    """Program theta family vs the oracle at the given points."""
    out = []
    for z in points:
        ref = oracles.theta_family(z, q)
        got = family(z)
        for name, a, b in zip(("theta", "theta_log_deriv", "weierstrass_p"), got, ref):
            err = abs(a - b) / max(1.0, abs(b))
            if not err < THETA_TOL:
                out.append(f"{name}({z:.4f}) off the oracle by {err:.2e}")
    return out


def _annulus_points(rng, q, count):
    pts = []
    while len(pts) < count:
        z = cmath.exp(complex(rng.uniform(math.log(abs(q)), 0.0),
                              rng.uniform(0.0, 2.0 * math.pi)))
        if oracles.lattice_distance(z, q) > 0.1:
            pts.append(z)
    return pts


def _program_family(q, **kw):
    from gcsov.special_functions import (EllipticParams, theta, theta_log_deriv,
                                         weierstrass_p)
    p = EllipticParams(q=q, **kw)
    return lambda x: (theta(x, p), theta_log_deriv(x, p), weierstrass_p(x, p))


# --------------------------------------------------------- elliptic Bethe


def _fresh_points(rng, z, q, roots, count):
    pts = []
    while len(pts) < count:
        w = cmath.exp(complex(rng.uniform(-0.3, 0.3), rng.uniform(0.0, 2.0 * math.pi)))
        if any(oracles.lattice_distance(w / za, q) < 0.1 for za in z):
            continue
        if any(oracles.lattice_distance(w * a, q) < 0.1 for a in roots):
            continue
        pts.append(w)
    return pts


def bethe_solution_failures(z, lam, q, sol, pts):
    """Separated equation and single-valuedness of one solution, oracle theta."""
    roots = [_c(v) for v in sol["roots"]]
    mu = [_c(v) for v in sol["mu"]]
    mu0 = _c(sol["mu0"])
    out = []
    if len(roots) != round(sum(lam)):
        out.append(f"{len(roots)} roots, sum(lambda) = {sum(lam):g}")
    if len(mu) != len(z):
        out.append(f"{len(mu)} accessory parameters for {len(z)} sites")
        return out
    mults = []
    for w in pts:
        sig, sigd, pot, psi = 0j, 0j, complex(mu0), 1 + 0j
        for a in roots:
            th, ld, wp = oracles.theta_family(w * a, q)
            sig += ld
            sigd -= wp
            psi *= th
        for za, la, ma in zip(z, lam, mu):
            th, ld, wp = oracles.theta_family(w / za, q)
            sig -= la * ld
            sigd += la * wp
            pot += ma * ld + 2.0 * la * (la + 1.0) * wp
            psi *= th ** (-la)
        res = abs(2.0 * (sig * sig + sigd) - pot)
        if not res < BETHE_TOL:
            out.append(f"separated residual {res:.2e} at w = {w:.4f}")
        psi_q = 1 + 0j
        for a in roots:
            psi_q *= oracles.theta(q * w * a, q)
        for za, la in zip(z, lam):
            psi_q *= oracles.theta(q * w / za, q) ** (-la)
        mults.append(psi_q / psi)
    spread = max(abs(mm / mults[0] - 1.0) for mm in mults)
    if not spread < MULT_TOL:
        out.append(f"psi(qw)/psi(w) varies by {spread:.2e} across points")
    return out


def _bethe_failures(rep, doc):
    z, lam, q = _model(rep)
    out = record_failures(doc)
    if not doc["solutions"]:
        out.append("no solution found")
    for k, sol in enumerate(doc["solutions"]):
        roots = [_c(v) for v in sol["roots"]]
        pts = _fresh_points(_rng(rep, 10 + k), z, q, roots, 2)
        out += [f"solution {k + 1}: {f}" for f in bethe_solution_failures(z, lam, q, sol, pts)]
    return out


def check_elliptic_bethe(rep, text, rc):
    doc, out = _parse(text, rc)
    if doc is None:
        return out
    _, _, q = _model(rep)
    out += theta_failures(q, _annulus_points(_rng(rep, 0), q, 2), _program_family(q))
    return out + _bethe_failures(rep, doc)


def planted_elliptic_bethe(rep, text, rc):
    z, lam, q = _model(rep)
    sol = json.loads(text)["solutions"][0]
    roots = [_c(v) for v in sol["roots"]]
    pts = _fresh_points(_rng(rep, 10), z, q, roots, 2)
    # roots are multiplicative coordinates, so the shift is relative
    shifted = dict(sol, roots=[[v.real, v.imag] for v in
                               [roots[0] * (1 + 1e-6)] + roots[1:]])
    dropped = dict(sol, roots=sol["roots"][1:])
    near = _annulus_points(_rng(rep, 0), q, 1)
    return {
        "theta truncated at 1e-6": theta_failures(q, near, _program_family(q, tol=1e-6)),
        "Bethe root shifted by 1e-6": bethe_solution_failures(z, lam, q, shifted, pts),
        "Bethe root dropped": bethe_solution_failures(z, lam, q, dropped, pts),
    }


# ---------------------------------------------------------------- rational


def tuple_failures(got, ref):
    """Multiset equality of eigenvalue tuples, greedy nearest pairing."""
    if len(got) != len(ref):
        return [f"{len(got)} tuples, the oracle has {len(ref)}"]
    left = list(got)
    out = []
    for t in ref:
        errs = [max(abs(x - y) / max(1.0, abs(y)) for x, y in zip(g, t)) for g in left]
        k = int(np.argmin(errs))
        if not errs[k] < TUPLE_TOL:
            out.append(f"oracle tuple {t[0]:.6f}, ... unmatched (nearest {errs[k]:.2e})")
        left.pop(k)
    return out


def _oracle(rep):
    z, lam, _ = _model(rep)
    return oracles.singlet_tuples(z, lam), oracles.singlet_multiplicity(lam)


def _csv_tuples(text):
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return [tuple(complex(v) for v in row[1:-1]) for row in rows], \
        [float(row[-1]) for row in rows]


def _spectrum_failures(rep, tuples, residuals):
    ref, mult = _oracle(rep)
    out = []
    if len(tuples) != mult:
        out.append(f"{len(tuples)} singlet tuples, Clebsch-Gordan gives {mult}")
    out += [f"residual {r:.2e}" for r in residuals if not r < 1e-8]
    return out + tuple_failures(tuples, ref)


def check_rational_spectrum(rep, text, rc):
    if rc != 0:
        return [f"exit code {rc}"]
    return _spectrum_failures(rep, *_csv_tuples(text))


def planted_rational_spectrum(rep, text, rc):
    tuples, res = _csv_tuples(text)
    bent = [tuple(v * (1 + 1e-6) if k == 0 else v for k, v in enumerate(t))
            if i == 0 else t for i, t in enumerate(tuples)]
    return {
        "spectrum tuple perturbed by 1e-6": _spectrum_failures(rep, bent, res),
        "spectrum row dropped": _spectrum_failures(rep, tuples[1:], res[1:]),
    }


def _match_failures(rep, doc):
    ref, mult = _oracle(rep)
    out = record_failures(doc)
    if doc["unmatched_bethe"] or doc["unmatched_spectrum"]:
        out.append(f"unmatched: bethe {doc['unmatched_bethe']}, "
                   f"spectrum {doc['unmatched_spectrum']}")
    if len(doc["pairs"]) != mult:
        out.append(f"{len(doc['pairs'])} pairs, Clebsch-Gordan gives {mult}")
    paired = [tuple(_c(v) for v in doc["solutions"][bi]["mu"]) for bi, _, _ in doc["pairs"]]
    return out + tuple_failures(paired, ref)


def check_rational_match(rep, text, rc):
    doc, out = _parse(text, rc)
    return out if doc is None else out + _match_failures(rep, doc)


def planted_rational_match(rep, text, rc):
    doc = json.loads(text)
    bi = doc["pairs"][0][0]
    mu = [_c(v) * (1 + 1e-6) for v in doc["solutions"][bi]["mu"]]
    doc["solutions"][bi]["mu"] = [[v.real, v.imag] for v in mu]
    unpaired = json.loads(text)
    unpaired["unmatched_spectrum"] = [unpaired["pairs"].pop()[1]]
    return {"paired tuple perturbed by 1e-6": _match_failures(rep, doc),
            "one pair missing": _match_failures(rep, unpaired)}


def _identity_failures(rep, doc):
    _, mult = _oracle(rep)
    out = record_failures(doc)
    n = _samples(doc, "singlet-tuple-constraints")
    if n != 3 * mult:
        out.append(f"sum rules checked on {n} values, Clebsch-Gordan gives {3 * mult}")
    return out


def check_rational_identity(rep, text, rc):
    doc, out = _parse(text, rc)
    return out if doc is None else out + _identity_failures(rep, doc)


def planted_rational_identity(rep, text, rc):
    doc = json.loads(text)
    for r in doc["records"]:
        if r["expect_failure"]:
            r["max_residual"] = repr(float(r["tol"]) / 10)
            r["passed"] = True
    return {"control record forced to pass": _identity_failures(rep, doc)}


CHECKS = {
    "elliptic-bethe": (check_elliptic_bethe, planted_elliptic_bethe),
    "rational-identity-suite": (check_rational_identity, planted_rational_identity),
    "rational-match": (check_rational_match, planted_rational_match),
    "rational-spectrum": (check_rational_spectrum, planted_rational_spectrum),
}


def check(rep, text, rc):
    return CHECKS[rep["kind"]][0](rep, text, rc)


def planted(rep, text, rc):
    return CHECKS[rep["kind"]][1](rep, text, rc)
