"""Command-line harness: model ingestion, verification suites, report emission.

Model files are JSON; complex numbers are [re, im] pairs and plain numbers
are real.  Canonical schema:

    {"z": [[0.0, 0.0], [1.0, 0.0]], "lambda": [-0.5, -0.5],
     "mu": [[3.0, 0.0], [-3.0, 0.0]],        # optional
     "q": [0.05, 0.0], "mu0": [0.3, 0.1],    # elliptic, optional
     "k": 0}                                  # optional; only k = 0 is supported

Subcommands: theta-eval, spectrum, sov-check, identity-suite, bethe, match.
Reports are JSON (spectra as CSV) with every float rendered as a
17-significant-digit lowercase scientific string, so reruns with the same
seed are byte-identical.  Exit codes: 0 all checks pass, 2 identity
failure, 3 invalid input, 4 numerical breakdown.  Suites run sequentially;
report assembly order is part of the determinism contract.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import __version__
from .bethe import (
    BetheError,
    bethe_solve_elliptic,
    bethe_solve_rational,
    elliptic_single_valued_check,
    singlet_solutions,
    spectrum_match,
    verify_separated_solution,
)
from .gaudin import (
    MU_RULES,
    DimensionCapError,
    GaudinModel,
    GaudinModelError,
    RepresentationError,
    _params,
    check_linear_relations,
    joint_spectrum,
    make_model,
    model_violations,
    mu_constraints,
    mu_residuals,
    non_finite_entries,
    rational_matrix_reports,
)
from .operators import VerificationReport
from .sov import (
    SovError,
    _draw_t2,
    elliptic_u_to_w,
    elliptic_w_to_u,
    radon_hamiltonians_elliptic,
    rational_u_to_w,
    rational_w_to_u,
    verify_elliptic_separation,
    verify_rational_separation,
)
from .special_functions import (
    KERNEL_PRODUCT_SIGN,
    EllipticParams,
    ParameterError,
    PoleError,
    _mult_dist_to_lattice,
    normalized_lame_kernel,
    theta,
    weierstrass_p,
)


class CliInputError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    model: Optional[str] = None
    case: str = "rational"
    tol: float = 1e-8
    trials: int = 20
    seed: int = 20260814
    trunc: int = 0
    out: Optional[str] = None
    roots: Optional[int] = None
    seeds: int = 40


def _fmt(v) -> str:
    return f"{float(v):.16e}"


def _fmt_c(v) -> str:
    v = complex(v)
    return f"{v.real:.16e}{v.imag:+.16e}j"


# ---------------------------------------------------------------- model files


def _cplx(v, where):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 \
            and all(isinstance(x, (int, float)) for x in v):
        return complex(v[0], v[1])
    raise CliInputError(f"{where}: expected a number or [re, im] pair, got {v!r}")


def load_model(path: str) -> GaudinModel:
    """Parse and validate a model file; violations name the broken rule."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise CliInputError(f"cannot read model file: {e}")
    except json.JSONDecodeError as e:
        raise CliInputError(f"model file parse error: {e}")
    if not isinstance(raw, dict):
        raise CliInputError("model file must hold a JSON object")
    for key in ("z", "lambda"):
        if key not in raw:
            raise CliInputError(f"model file missing required key {key!r}")
    z = [_cplx(v, f"z[{i}]") for i, v in enumerate(raw["z"])]
    lam = [_cplx(v, f"lambda[{i}]") for i, v in enumerate(raw["lambda"])]
    mu = None
    if raw.get("mu") is not None:
        mu = [_cplx(v, f"mu[{i}]") for i, v in enumerate(raw["mu"])]
    q = _cplx(raw["q"], "q") if raw.get("q") is not None else None
    mu0 = _cplx(raw["mu0"], "mu0") if raw.get("mu0") is not None else None
    k = raw.get("k", 0)
    if isinstance(k, bool) or not (isinstance(k, int)
                                   or isinstance(k, float) and k.is_integer()):
        raise CliInputError(f"k: expected an integer, got {k!r}")
    if k != 0:
        # the twist enters no current the separation chain or a solver uses
        raise CliInputError(f"k: only k = 0 is supported, got {k!r}")
    if "N" in raw and raw["N"] != len(z):
        raise CliInputError(f"N = {raw['N']} does not match len(z) = {len(z)}")
    m = make_model(z, lam, mu=mu, q=q, mu0=mu0)
    bad = model_violations(m)
    if bad:
        raise CliInputError("invariant violation: " + "; ".join(
            _violation_detail(name, m) for name in bad))
    return m


_MU_RULE_TEXT = ("sum mu_a = 0",
                 "sum mu_a z_a + sum 2 lam(lam-1) = 0",
                 "sum mu_a z_a^2 + sum 4 lam(lam-1) z_a = 0")


def _violation_detail(name: str, m: GaudinModel) -> str:
    if name == "non_finite":
        return f"non_finite ({', '.join(non_finite_entries(m))} not a finite number)"
    if m.mu is not None and name in MU_RULES:
        k = MU_RULES.index(name)
        res = mu_residuals(m.mu, m.z, m.lam)[k]
        return f"{name} ({_MU_RULE_TEXT[k]}) residual {abs(res):.3e}"
    return name


def default_model(case: str, subcommand: str = "") -> GaudinModel:
    """Built-in models used when --model is omitted.

    The rational default is the three-site spin chain whose admissible mu is
    the unique solution of the three linear constraints; bethe gets smaller
    purpose-built models so its default root counts are meaningful.
    """
    if case == "rational":
        if subcommand == "bethe":
            return make_model((0.0, 1.0), (-0.5, -0.5))
        z = (0.0, 1.0, 2.5)
        lam = (-0.5, -0.5, -1.0)
        mu = np.linalg.solve(*mu_constraints(z, lam))
        return make_model(z, lam, mu=tuple(mu))
    if case == "elliptic":
        if subcommand == "bethe":
            return make_model((1.0, 1.1 * cmath.exp(1.3j)), (1.0, 1.0), q=0.05)
        z = (1.0, 1.1 * cmath.exp(2.1j), 1.25 * cmath.exp(4.2j))
        return make_model(z, (-0.5, 1.0, 0.75),
                          mu=(0.4 + 0.1j, -0.15 + 0.2j, -0.25 - 0.3j),
                          q=0.05, mu0=0.3 + 0.1j)
    raise CliInputError(f"unknown case {case!r}")


def _resolve_model(cfg: RunConfig) -> GaudinModel:
    if cfg.model is None:
        return default_model(cfg.case, cfg.subcommand)
    m = load_model(cfg.model)
    if cfg.case == "elliptic" and not m.is_elliptic:
        raise CliInputError("--case elliptic but the model file has no nome q")
    if cfg.case == "rational" and m.is_elliptic:
        raise CliInputError("--case rational but the model file is elliptic")
    return m


# --------------------------------------------------------------------- suites


def _suite_theta_eval(cfg: RunConfig):
    q = 0.05 + 0.0j
    if cfg.model is not None:
        m = load_model(cfg.model)
        if m.is_elliptic:
            q = m.elliptic.q
    p = EllipticParams(q=q, trunc=cfg.trunc) if cfg.trunc else EllipticParams(q=q)
    rng = np.random.default_rng(cfg.seed)
    n = cfg.trials

    def annulus(count, min_dist=0.05):
        out = []
        while len(out) < count:
            zz = cmath.exp(complex(rng.uniform(math.log(abs(q)), 0.0),
                                   rng.uniform(0.0, 2.0 * math.pi)))
            if _mult_dist_to_lattice(zz, p) > min_dist:
                out.append(zz)
        return out

    mk = lambda label, worst, anchor: VerificationReport(
        label, n, float(worst), cfg.tol, cfg.seed, anchor)
    recs = []

    def rel(lhs, zz):
        # theta(z)/z reaches about 1/|q| near |z| = |q|: measure against it
        ref = theta(zz, p) / zz
        return abs(lhs + ref) / max(1.0, abs(ref))

    worst = max(rel(theta(q * zz, p), zz) for zz in annulus(n))
    recs.append(mk("theta-quasi-periodicity", worst, "theta(q z) = -theta(z)/z"))

    worst = max(rel(theta(1.0 / zz, p), zz) for zz in annulus(n))
    recs.append(mk("theta-inversion", worst, "theta(1/z) = -theta(z)/z"))

    p0 = EllipticParams(q=1e-14)
    worst = 0.0
    for _ in range(n):
        zz = cmath.exp(complex(rng.uniform(-0.7, 0.0), rng.uniform(0.0, 2.0 * math.pi)))
        worst = max(worst, abs(theta(zz, p0) - (1.0 - zz)))
    recs.append(mk("theta-qzero-degeneration", worst, "theta -> 1 - z as q -> 0"))

    # Laurent constant: wp(tau) = 1/tau^2 + c0 + O(tau^2)
    c0 = -1.0 / 12.0 + 2.0 * sum(q**k / (1.0 - q**k) ** 2 for k in range(1, p.trunc + 1))
    worst = 0.0
    for _ in range(n):
        tau = 10.0 ** rng.uniform(-5.0, -4.0) * cmath.exp(2j * math.pi * rng.random())
        worst = max(worst, abs(weierstrass_p(cmath.exp(tau), p) * tau**2 - 1.0 - c0 * tau**2))
    recs.append(mk("wp-pole-behavior", worst,
                   "wp(tau) tau^2 = 1 + c0(q) tau^2 + O(tau^4) at the origin"))

    worst = 0.0
    count = 0
    while count < n:
        x, w = annulus(1, 0.08)[0], annulus(1, 0.08)[0]
        if _mult_dist_to_lattice(x * w, p) < 0.05 or _mult_dist_to_lattice(x / w, p) < 0.05:
            continue
        count += 1
        lhs = normalized_lame_kernel(x, w, p) * normalized_lame_kernel(1.0 / x, w, p)
        rhs = KERNEL_PRODUCT_SIGN * (weierstrass_p(x, p) - weierstrass_p(w, p))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    recs.append(mk("kernel-product-law", worst,
                   "Kn(x,w) Kn(1/x,w) = sign * (wp(ln x) - wp(ln w))"))
    return recs, {"q": _fmt_c(q)}


def _suite_spectrum(cfg: RunConfig):
    if cfg.case != "rational":
        raise CliInputError("spectrum requires --case rational")
    m = _resolve_model(cfg)
    s = joint_spectrum(m, tol=cfg.tol, seed=cfg.seed)
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(["sector"] + [f"mu_{a + 1}" for a in range(m.N)] + ["residual"])
    for mu, res in zip(s.eigen_tuples, s.residuals):
        wr.writerow([s.sector] + [_fmt_c(v) for v in mu] + [_fmt(res)])
    code = 0
    if s.ill_conditioned:
        code = 4
    elif any(res >= cfg.tol for res in s.residuals):
        code = 2
    return buf.getvalue(), code


def _roundtrip_rational(m: GaudinModel, cfg: RunConfig) -> VerificationReport:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(cfg.trials):
        u = rng.standard_normal(m.N) + 1j * rng.standard_normal(m.N)
        u -= u.mean()
        s = rational_u_to_w(u, m, strict=False)
        back = np.asarray(rational_w_to_u(s, m).u)
        worst = max(worst, float(np.abs(back - u).max() / np.abs(u).max()))
    return VerificationReport("rational-chart-roundtrip", cfg.trials, worst,
                              cfg.tol, cfg.seed, anchor="u -> (C, w) -> u")


def _roundtrip_elliptic(m: GaudinModel, cfg: RunConfig) -> VerificationReport:
    p = _params(m)
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    done = 0
    while done < cfg.trials:
        t2 = _draw_t2(rng, p)
        if t2 is None:
            continue
        u = rng.standard_normal(m.N) + 1j * rng.standard_normal(m.N)
        if np.abs(u).min() < 0.1 * np.abs(u).max():
            continue
        s = elliptic_u_to_w(u, t2, m, strict=False)
        back = np.asarray(elliptic_w_to_u(s, m).u)
        worst = max(worst, float(np.abs(back - u).max() / np.abs(u).max()))
        done += 1
    return VerificationReport("elliptic-chart-roundtrip", cfg.trials, worst,
                              cfg.tol, cfg.seed, anchor="u -> (C, w, t^2) -> u")


def _suite_sov_check(cfg: RunConfig):
    m = _resolve_model(cfg)
    if cfg.case == "rational":
        recs = verify_rational_separation(m, points=cfg.trials, tol=cfg.tol, seed=cfg.seed)
    else:
        recs = verify_elliptic_separation(m, points=cfg.trials, tol=cfg.tol, seed=cfg.seed)
    return recs, {}


def _suite_identity(cfg: RunConfig):
    m = _resolve_model(cfg)
    recs = []
    if cfg.case == "rational":
        recs += rational_matrix_reports(m, tol=cfg.tol)
        s = joint_spectrum(m, tol=cfg.tol, seed=cfg.seed)
        recs.append(check_linear_relations(s, m, tol=cfg.tol))
        recs += verify_rational_separation(m, points=cfg.trials, tol=cfg.tol, seed=cfg.seed)
        recs.append(_roundtrip_rational(m, cfg))
    else:
        fit = radon_hamiltonians_elliptic(m, seed=cfg.seed)
        p = _params(m)
        rng = np.random.default_rng(cfg.seed)
        worst, done = 0.0, 0
        while done < min(cfg.trials, 5):
            t2 = _draw_t2(rng, p)
            if t2 is None:
                continue
            u = rng.standard_normal(m.N) + 1j * rng.standard_normal(m.N)
            worst = max(worst, fit.fit_residual((t2,) + tuple(u)))
            done += 1
        recs.append(VerificationReport(
            "elliptic-density-fit", done, float(worst), cfg.tol, cfg.seed,
            anchor="current-density expansion onto the Hamiltonians"))
        recs += verify_elliptic_separation(m, points=max(1, cfg.trials // 4),
                                           tol=max(cfg.tol, 1e-7), seed=cfg.seed)
        recs.append(_roundtrip_elliptic(m, cfg))
    return recs, {}


def _solution_payload(sol):
    out = {
        "case": sol.case,
        "roots": [_fmt_c(v) for v in sol.roots],
        "exponents": [_fmt_c(v) for v in sol.exponents],
        "mu": [_fmt_c(v) for v in sol.mu],
    }
    if sol.mu0 is not None:
        out["mu0"] = _fmt_c(sol.mu0)
    return out


def _suite_bethe(cfg: RunConfig):
    m = _resolve_model(cfg)
    recs = []
    if cfg.case == "rational":
        n_roots = 1 if cfg.roots is None else cfg.roots
        sols = bethe_solve_rational(m, n_roots, seeds=cfg.seeds, seed=cfg.seed)
        for i, sol in enumerate(sols):
            rep = verify_separated_solution(sol, m, samples=20, tol=cfg.tol, seed=cfg.seed)
            recs.append(replace(rep, label=f"bethe-rational-solution-{i + 1:02d}"))
    else:
        sols = bethe_solve_elliptic(m, n_roots=cfg.roots, seeds=cfg.seeds, seed=cfg.seed)
        for i, sol in enumerate(sols):
            rep = elliptic_single_valued_check(sol, m, tol=max(cfg.tol, 1e-6), seed=cfg.seed)
            recs.append(replace(rep, label=f"bethe-elliptic-solution-{i + 1:02d}"))
    if not sols:
        # an empty report would certify nothing, yet pass
        recs.append(VerificationReport(f"bethe-{cfg.case}-no-solution", 0, float("inf"),
                                       cfg.tol, cfg.seed,
                                       anchor=f"solver found no solution (--seeds {cfg.seeds})"))
    return recs, {"solutions": [_solution_payload(s) for s in sols]}


def _suite_match(cfg: RunConfig):
    if cfg.case != "rational":
        raise CliInputError("match requires --case rational")
    m = _resolve_model(cfg)
    sols = singlet_solutions(m, seeds=cfg.seeds, seed=cfg.seed, tol=cfg.tol)
    s = joint_spectrum(m, tol=cfg.tol, seed=cfg.seed)
    rep = spectrum_match(sols, s, tol=cfg.tol)
    recs = []
    for i, sol in enumerate(sols):
        v = verify_separated_solution(sol, m, samples=20, tol=cfg.tol, seed=cfg.seed)
        recs.append(replace(v, label=f"separated-solution-{i + 1:02d}"))
    bij = rep.max_err if rep.passed else max(1.0, rep.max_err)
    recs.append(VerificationReport("bethe-spectrum-bijection", len(rep.pairs),
                                   float(bij), cfg.tol, cfg.seed,
                                   anchor="greedy pairing of distinct mu tuples"))
    extra = {
        "pairs": [[bi, si, _fmt(err)] for bi, si, err in rep.pairs],
        "unmatched_bethe": list(rep.unmatched_bethe),
        "unmatched_spectrum": list(rep.unmatched_spectrum),
        "solutions": [_solution_payload(s_) for s_ in sols],
    }
    return recs, extra


_DISPATCH = {
    "theta-eval": _suite_theta_eval,
    "sov-check": _suite_sov_check,
    "identity-suite": _suite_identity,
    "bethe": _suite_bethe,
    "match": _suite_match,
}


# ------------------------------------------------------------------- assembly


def _record(rep: VerificationReport) -> dict:
    return {
        "label": rep.label,
        "anchor": rep.anchor,
        "samples": int(rep.samples),
        "max_residual": _fmt(rep.max_residual),
        "tol": _fmt(rep.tol),
        "seed": int(rep.seed),
        "expect_failure": bool(rep.expect_failure),
        "passed": bool(rep.passed),
    }


def _assemble(cfg: RunConfig, recs, extra) -> dict:
    doc = {
        "subcommand": cfg.subcommand,
        "case": cfg.case,
        "model": cfg.model if cfg.model is not None else "builtin-default",
        "seed": cfg.seed,
        "tol": _fmt(cfg.tol),
        "trials": cfg.trials,
        "records": [_record(r) for r in recs],
        "all_passed": bool(all(r.passed for r in recs)),
    }
    doc.update(extra)
    return doc


def _write_out(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ------------------------------------------------------------------ interface


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; 2 means identity failure here, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliInputError(message)


def _parse(argv):
    ap = _Parser(prog="gcsov", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"gcsov {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, text in [
        ("theta-eval", "special-function identity sweep"),
        ("spectrum", "diagonalize the commuting Hamiltonians, emit CSV"),
        ("sov-check", "separation-of-variables identity chain"),
        ("identity-suite", "matrix identities, separation chain and roundtrips"),
        ("bethe", "solve the separated root systems"),
        ("match", "bijection between separated solutions and the spectrum"),
    ]:
        sp = sub.add_parser(name, help=text, description=text)
        sp.add_argument("--model", default=None, help="JSON model file (default: builtin)")
        sp.add_argument("--case", choices=("rational", "elliptic"), default="rational")
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--trials", type=int, default=20)
        sp.add_argument("--seed", type=int, default=20260814)
        sp.add_argument("--out", default=None, help="report path (default: stdout)")
        if name == "theta-eval":
            sp.add_argument("--trunc", type=int, default=0,
                            help="theta series truncation override (0 = automatic)")
        if name == "bethe":
            sp.add_argument("--roots", type=int, default=None,
                            help="root count (default: 1 rational, sum lam elliptic)")
        if name in ("bethe", "match"):
            sp.add_argument("--seeds", type=int, default=40,
                            help="solver restarts per configuration")
    return ap.parse_args(argv)


def run_suite(cfg: RunConfig) -> int:
    """Execute one subcommand, write its report, return the exit code."""
    if not cfg.tol > 0:
        raise CliInputError(f"tol must be positive, got {cfg.tol}")
    if cfg.trials < 1:
        raise CliInputError(f"trials must be >= 1, got {cfg.trials}")
    if cfg.seeds < 1:
        raise CliInputError(f"seeds must be >= 1, got {cfg.seeds}")
    if cfg.trunc < 0:
        raise CliInputError(f"trunc must be >= 0, got {cfg.trunc}")
    if cfg.subcommand == "spectrum":
        text, code = _suite_spectrum(cfg)
    else:
        recs, extra = _DISPATCH[cfg.subcommand](cfg)
        doc = _assemble(cfg, recs, extra)
        text = json.dumps(doc, indent=2) + "\n"
        code = 0 if doc["all_passed"] else 2
    _write_out(cfg.out, text)
    return code


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        cfg = RunConfig(
            subcommand=args.subcommand,
            model=args.model,
            case=args.case,
            tol=args.tol,
            trials=args.trials,
            seed=args.seed,
            trunc=getattr(args, "trunc", 0),
            out=args.out,
            roots=getattr(args, "roots", None),
            seeds=getattr(args, "seeds", 40),
        )
        return run_suite(cfg)
    except (CliInputError, GaudinModelError, BetheError, ParameterError,
            RepresentationError) as e:
        print(f"gcsov: invalid input: {e}", file=sys.stderr)
        return 3
    except (SovError, DimensionCapError, PoleError, np.linalg.LinAlgError) as e:
        print(f"gcsov: numerical breakdown: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
