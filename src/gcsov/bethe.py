"""Separated eigenfunctions in closed form and their Bethe-type root systems.

rational:  psi(w) = prod_i (w - a_i) * prod_a (w - z_a)^{s_a},
           s_a in {lam_a, 1 - lam_a}  (the indicial pair at z_a)
elliptic:  psi(w) = prod_i theta(w a_i) * prod_a theta(w / z_a)^{-lam_a}

Inserting the rational ansatz into D = 2 d^2 - sum mu/(w-z) - 2 sum
lam(lam-1)/(w-z)^2 and writing S = psi'/psi gives D psi / psi =
2(S^2 + S') - V, a rational function vanishing at infinity.  The double
poles at z_a cancel by the indicial relation s(s-1) = lam(lam-1); killing
the simple pole at z_a defines

    mu_a = 4 s_a [ sum_i 1/(z_a - a_i) + sum_{b != a} s_b/(z_a - z_b) ]

and killing the simple pole at each root a_i is the Bethe system

    0 = sum_{j != i} 1/(a_i - a_j) + sum_b s_b/(a_i - z_b).

Once every pole cancels, 2(S^2 + S') - V is an entire function decaying at
infinity, hence identically zero, and its power-series tail there shows the
three linear mu constraints hold exactly when deg psi = n + sum s is 0
or 1.  That degree bookkeeping is how singlet_solutions picks the root
count per exponent pattern.

On the elliptic side, with sigma = w psi'/psi = sum_i tdot(w a_i)
- sum_a lam_a tdot(w/z_a), the pointwise residual is 2(sigma^2 +
d sigma/d ln w) - mu0 - sum mu_a tdot(w/z_a) - 2 sum lam_a(lam_a+1)
wp(ln w/z_a).  The quasi-periodicity law theta(q y) = -theta(y)/y makes the
multiplier psi(q w)/psi(w) proportional to w^(sum lam - n); single-valued
sections need the exponent to vanish, pinning the root count to
n = sum lam_a whenever that is a nonnegative integer.  No closed-form
elliptic Bethe system is used: roots, mu0 and mu are solved jointly in
least squares against the residual itself, so convergence is certification.
"""

from __future__ import annotations

import cmath
import itertools
import logging
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .gaudin import GaudinModel, SpectrumResult, _params, mu_residuals, validate_model
from .operators import VerificationReport
from .special_functions import _log_deriv_and_wp, _mult_dist_to_lattice, theta

log = logging.getLogger(__name__)

_PATTERN_CAP = 6  # exponent-pattern enumeration is 2^N; desk scale


class BetheError(ValueError):
    pass


@dataclass(frozen=True)
class SeparatedSolution:
    """One separated eigenfunction in closed form.

    exponents: rational case, the indicial exponent chosen at each site;
    elliptic case, the theta powers -lam_a (fixed by the model).  mu0 is
    the additive constant of the elliptic operator, None for rational.
    """

    case: str  # "rational" | "elliptic"
    roots: Tuple[complex, ...]
    exponents: Tuple[complex, ...]
    mu: Tuple[complex, ...]
    mu0: Optional[complex] = None


def indicial_exponents(lam) -> Tuple[complex, complex]:
    """Frobenius exponents at a site: the two solutions of s(s-1) = lam(lam-1)."""
    return (complex(lam), 1.0 - complex(lam))


# ------------------------------------------------------------- rational side


def _check_configuration(a: np.ndarray, z: np.ndarray, tol: float = 1e-10) -> None:
    if a.size == 0:
        return
    scale = max(1.0, float(np.abs(z).max()), float(np.abs(a).max()))
    if np.abs(a[:, None] - z[None, :]).min() < tol * scale:
        raise BetheError("root_at_site")
    if a.size > 1:
        d = np.abs(a[:, None] - a[None, :])
        d[np.diag_indices(a.size)] = np.inf
        if d.min() < tol * scale:
            raise BetheError("coincident_roots")


def mu_from_ansatz_rational(sol: SeparatedSolution, m: GaudinModel) -> Tuple[complex, ...]:
    """Eigenvalue tuple implied by the ansatz: cancel the simple pole at each site."""
    z = np.asarray(m.z, dtype=complex)
    s = np.asarray(sol.exponents, dtype=complex)
    a = np.asarray(sol.roots, dtype=complex)
    _check_configuration(a, z)
    mu = []
    for al in range(m.N):
        t = complex((1.0 / (z[al] - a)).sum()) if a.size else 0.0
        t += sum(s[be] / (z[al] - z[be]) for be in range(m.N) if be != al)
        mu.append(4.0 * s[al] * t)
    return tuple(complex(v) for v in mu)


def _bethe_residual(a: np.ndarray, s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Bethe residual of every row of a, shape (rows, n)."""
    diag = np.arange(a.shape[1])
    diff = a[:, :, None] - a[:, None, :]
    diff[:, diag, diag] = 1.0  # masked below; inf poisons complex powers
    inv = 1.0 / diff
    inv[:, diag, diag] = 0.0
    out = inv.sum(axis=2)
    out += (s / (a[:, :, None] - z)).sum(axis=2)
    return out


def _bethe_jacobian(a: np.ndarray, s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Jacobian of _bethe_residual for every row of a, shape (rows, n, n)."""
    diag = np.arange(a.shape[1])
    diff = a[:, :, None] - a[:, None, :]
    diff[:, diag, diag] = 1.0
    J = 1.0 / diff**2
    J[:, diag, diag] = 0.0
    J[:, diag, diag] = -J.sum(axis=2) - (s / (a[:, :, None] - z) ** 2).sum(axis=2)
    return J


def bethe_equations_rational(sol: SeparatedSolution, m: GaudinModel) -> np.ndarray:
    """No-extra-singularity residuals at the roots; a valid configuration has ~0."""
    z = np.asarray(m.z, dtype=complex)
    a = np.asarray(sol.roots, dtype=complex)
    s = np.asarray(sol.exponents, dtype=complex)
    _check_configuration(a, z)
    return _bethe_residual(a[None, :], s, z)[0]


def _solve_rows(J, rhs):
    """Newton steps x[k] of every row and a mask of the rows that have one.

    A square J is solved as one batch, and a singular J[k] fails only its
    row.  A tall J takes each row's least-squares step from lstsq.
    """
    ok = np.ones(len(rhs), dtype=bool)
    if J.shape[1] != J.shape[2]:
        return np.array([np.linalg.lstsq(Jk, rk, rcond=None)[0] for Jk, rk in zip(J, rhs)]), ok
    try:
        return np.linalg.solve(J, rhs[:, :, None])[:, :, 0], ok
    except np.linalg.LinAlgError:
        x = np.zeros_like(rhs)
        for k in range(len(rhs)):
            try:
                x[k] = np.linalg.solve(J[k], rhs[k])
            except np.linalg.LinAlgError:
                ok[k] = False
        return x, ok


def _newton_rows(resid, jac, x0, iters, tol, halvings):
    """Newton with a halving line search, run on every row of x0 at once.

    resid maps a (rows, k) array to its residual rows and jac(x, r) returns
    the Jacobians of those rows at their residuals r; both solvers of this
    module run their restarts through here.  Each row follows its own
    iteration exactly as a lone solve would: stop when max |r| < tol, fail
    on a non-finite residual, a singular Jacobian, `halvings` halvings
    without a decrease of max |r|, or iters steps.  Returns a list with the
    converged x of each row, or None where the row failed; no rows give [].
    """
    out = [None] * len(x0)
    if not out:
        return out
    a = np.array(x0, dtype=complex)
    rows = np.arange(len(a))
    with np.errstate(all="ignore"):
        r = resid(a)
        for _ in range(iters):
            rn = np.abs(r).max(axis=1)
            finite = np.isfinite(r).all(axis=1)
            done = finite & (rn < tol)
            for k in np.flatnonzero(done):
                out[rows[k]] = a[k]
            live = finite & ~done
            a, r, rn, rows = a[live], r[live], rn[live], rows[live]
            if not len(rows):
                break
            step, searching = _solve_rows(jac(a, r), -r)
            moved = np.zeros(len(rows), dtype=bool)
            t = np.ones(len(rows))
            for _ in range(halvings):
                k = np.flatnonzero(searching)
                if not len(k):
                    break
                trial = a[k] + t[k, None] * step[k]
                r2 = resid(trial)
                good = np.isfinite(r2).all(axis=1) & (np.abs(r2).max(axis=1) < rn[k])
                a[k[good]], r[k[good]] = trial[good], r2[good]
                moved[k[good]] = True
                searching[k[good]] = False
                t[k[~good]] *= 0.5
            a, r, rows = a[moved], r[moved], rows[moved]
    return out


def _seed_roots(rng, z, n):
    center = z.mean()
    spread = max(1.0, float(np.abs(z - center).max()))
    rad = spread * (0.2 + 1.8 * rng.random(n))
    return center + rad * np.exp(2j * np.pi * rng.random(n))


def bethe_solve_rational(m: GaudinModel, n_roots: int, seeds: int = 60,
                         exponents=None, seed: int = 20260814):
    """Newton solves of the Bethe system from random seeds, deduplicated.

    With exponents=None every indicial pattern is tried (2^N, N <= 6).  The
    restarts of one pattern run as one batch: every start is drawn up front
    from the pattern's rng, in the order a loop over seeds would draw them,
    and one Newton with a per-row line search and convergence mask iterates
    the (seeds, n) array with batched residuals, Jacobians and solves (a
    singular Jacobian fails only its own row).  Each row follows the same
    arithmetic as a lone solve, and the rows are consumed in seed order, so
    deduplication is unchanged.  Non-converged seeds are only counted (debug
    log); roots escaping far outside the site hull are lower-count solutions
    in disguise and are dropped.  Returns SeparatedSolution objects with mu
    filled in.
    """
    if m.elliptic is not None:
        raise BetheError("rational_case_only")
    validate_model(m)
    z = np.asarray(m.z, dtype=complex)
    lam = np.asarray(m.lam, dtype=complex)
    if n_roots < 0:
        raise BetheError("negative_root_count")
    if exponents is None:
        if m.N > _PATTERN_CAP:
            raise BetheError("pattern_enumeration_needs_explicit_exponents")
        patterns = list(itertools.product(*[indicial_exponents(l) for l in lam]))
    else:
        if len(exponents) != m.N:
            raise BetheError("exponents_length_mismatch")
        patterns = [tuple(complex(x) for x in exponents)]

    scale = max(1.0, float(np.abs(z).max()))
    out = []
    for pat in patterns:
        s = np.asarray(pat, dtype=complex)
        found = []
        fails = 0
        if n_roots == 0:
            found.append(np.zeros(0, dtype=complex))
        else:
            rng = np.random.default_rng(seed)  # same seed per pattern: reproducible
            starts = [_seed_roots(rng, z, n_roots) for _ in range(seeds)]
            for a in _newton_rows(lambda a: _bethe_residual(a, s, z),
                                  lambda a, r: _bethe_jacobian(a, s, z), starts, 60, 1e-12, 14):
                if a is None:
                    fails += 1
                    continue
                if np.abs(a).max() > 50.0 * scale:
                    fails += 1
                    continue
                a = np.sort_complex(a)
                if any(np.abs(a - b).max() < 1e-7 * scale for b in found):
                    continue
                try:
                    _check_configuration(a, z, tol=1e-8)
                except BetheError:
                    continue
                found.append(a)
        if fails:
            log.debug("bethe pattern %s: %d/%d seeds unconverged", pat, fails, seeds)
        for a in found:
            sol = SeparatedSolution("rational", tuple(a), pat, mu=())
            out.append(replace(sol, mu=mu_from_ansatz_rational(sol, m)))
    return out


def singlet_solutions(m: GaudinModel, seeds: int = 60, seed: int = 20260814,
                      tol: float = 1e-8):
    """Separated solutions whose mu passes the three linear admissibility rules.

    deg psi at infinity must be 0 or 1 for the rules to hold, so each
    exponent pattern admits at most the root counts -sum(s) and 1-sum(s);
    non-integer or negative counts contribute nothing.  Solutions are
    deduplicated across patterns by mu (distinct eigenfunction presentations
    share a tuple), which makes the result directly comparable with the
    diagonalization tuples.
    """
    if m.elliptic is not None:
        raise BetheError("rational_case_only")
    if m.N > _PATTERN_CAP:
        raise BetheError("pattern_enumeration_needs_explicit_exponents")
    sols = []
    for pat in itertools.product(*[indicial_exponents(l) for l in m.lam]):
        ssum = complex(np.sum(pat))
        for deg in (0.0, 1.0):
            nf = deg - ssum
            n = int(round(nf.real))
            if abs(nf - n) > 1e-9 or n < 0:
                continue
            for sol in bethe_solve_rational(m, n, seeds=seeds, exponents=pat, seed=seed):
                if np.abs(mu_residuals(sol.mu, m.z, m.lam)).max() > tol:
                    continue
                if any(max(abs(x - y) for x, y in zip(sol.mu, other.mu)) < 1e-7
                       for other in sols):
                    continue
                sols.append(sol)
    return sols


# ------------------------------------------------------------- verification


def _sample_away(rng, count, avoid, min_dist=0.05):
    center = avoid.mean() if avoid.size else 0.0
    spread = max(1.0, float(np.abs(avoid - center).max()) if avoid.size else 1.0)
    pts = []
    guard = 0
    while len(pts) < count:
        guard += 1
        if guard > 400 * count:
            raise BetheError("sampling_failed")
        w = center + spread * (0.3 + 1.5 * rng.random()) * cmath.exp(2j * np.pi * rng.random())
        if avoid.size and np.abs(avoid - w).min() < min_dist * spread:
            continue
        pts.append(complex(w))
    return pts


def _elliptic_samples(rng, count, m, roots, min_dist=0.08):
    p = _params(m)
    pts = []
    guard = 0
    while len(pts) < count:
        guard += 1
        if guard > 400 * count:
            raise BetheError("sampling_failed")
        w = cmath.exp(complex(rng.uniform(-0.3, 0.3), rng.uniform(0.0, 2.0 * np.pi)))
        if any(_mult_dist_to_lattice(w / za, p) < min_dist for za in m.z):
            continue
        # zeros of the theta product sit on the lattice orbits of 1/a_i
        if any(_mult_dist_to_lattice(w * ai, p) < 0.5 * min_dist for ai in roots):
            continue
        pts.append(w)
    return pts


def _site_terms(w, m, p):
    # (tdot, wp)(w / z_a) for every site: independent of roots, mu0 and mu
    return [_log_deriv_and_wp(w / za, p) for za in m.z]


def _elliptic_dpsi_over_psi(w, roots, mu0, mu, m, p, sites=None):
    """D psi / psi at w; ``sites`` is _site_terms(w, m, p) when precomputed."""
    lam = m.lam
    sig = 0.0 + 0.0j
    sigd = 0.0 + 0.0j  # d sigma / d ln w; tdot' = -wp
    for ai in roots:
        td, wp = _log_deriv_and_wp(w * ai, p)
        sig += td
        sigd -= wp
    if sites is None:
        sites = _site_terms(w, m, p)
    pot = complex(mu0)
    for al, (td, wp) in enumerate(sites):
        sig -= lam[al] * td
        sigd += lam[al] * wp
        pot += mu[al] * td + 2.0 * lam[al] * (lam[al] + 1.0) * wp
    return 2.0 * (sig * sig + sigd) - pot


def verify_separated_solution(sol: SeparatedSolution, m: GaudinModel,
                              samples: int = 20, tol: float = 1e-8,
                              seed: int = 20260814) -> VerificationReport:
    """Max |D psi / psi| at sample points off the singularities.

    Both cases use the analytic log-derivative forms, so psi itself (with
    its branch choices) never has to be evaluated.
    """
    rng = np.random.default_rng(seed)
    if len(sol.mu) != m.N:
        raise BetheError("mu_length_mismatch")
    mu = np.asarray(sol.mu, dtype=complex)
    if sol.case == "rational":
        z = np.asarray(m.z, dtype=complex)
        lam = np.asarray(m.lam, dtype=complex)
        s = np.asarray(sol.exponents, dtype=complex)
        a = np.asarray(sol.roots, dtype=complex)
        worst = 0.0
        for w in _sample_away(rng, samples, np.concatenate([z, a])):
            S = complex((1.0 / (w - a)).sum()) + complex((s / (w - z)).sum())
            Sp = -complex((1.0 / (w - a) ** 2).sum()) - complex((s / (w - z) ** 2).sum())
            V = complex((mu / (w - z)).sum()) + complex((2 * lam * (lam - 1) / (w - z) ** 2).sum())
            worst = max(worst, abs(2.0 * (S * S + Sp) - V))
        return VerificationReport("bethe-rational-separated-residual", samples,
                                  float(worst), tol, seed)
    if sol.case == "elliptic":
        if m.elliptic is None:
            raise BetheError("model_not_elliptic")
        mu0 = sol.mu0 if sol.mu0 is not None else m.elliptic.mu0
        if mu0 is None:
            raise BetheError("mu0_required")
        p = _params(m)
        worst = 0.0
        for w in _elliptic_samples(rng, samples, m, sol.roots):
            worst = max(worst, abs(_elliptic_dpsi_over_psi(w, sol.roots, mu0, mu, m, p)))
        return VerificationReport("bethe-elliptic-separated-residual", samples,
                                  float(worst), tol, seed)
    raise BetheError("unknown_case")


def _site_factors(w, m, p):
    # principal-branch powers; exact for integer lam, and the branch error is
    # precisely what the single-valuedness check is supposed to expose
    return [theta(w / za, p) ** (-complex(la)) for za, la in zip(m.z, m.lam)]


def _psi_theta(w, roots, m, p, sites=None):
    """psi(w); ``sites`` is _site_factors(w, m, p) when precomputed."""
    val = 1.0 + 0.0j
    for ai in roots:
        val *= theta(w * ai, p)
    if sites is None:
        sites = _site_factors(w, m, p)
    for f in sites:
        val *= f
    return val


def elliptic_single_valued_check(sol: SeparatedSolution, m: GaudinModel,
                                 samples: int = 8, tol: float = 1e-6,
                                 seed: int = 20260814) -> VerificationReport:
    """Constancy of psi(q w)/psi(w) across points, plus the operator residual.

    The multiplier carries w^(sum lam - n) times a constant, so constancy is
    the single-valuedness test; the report combines it with |D psi / psi| at
    the same points when mu is available.
    """
    if sol.case != "elliptic":
        raise BetheError("elliptic_case_only")
    if m.elliptic is None:
        raise BetheError("model_not_elliptic")
    p = _params(m)
    q = m.elliptic.q
    rng = np.random.default_rng(seed)
    pts = _elliptic_samples(rng, samples, m, sol.roots)
    mults = [_psi_theta(q * w, sol.roots, m, p) / _psi_theta(w, sol.roots, m, p)
             for w in pts]
    base = mults[0]
    worst = max(abs(mm / base - 1.0) for mm in mults)
    mu0 = sol.mu0 if sol.mu0 is not None else m.elliptic.mu0
    if len(sol.mu) == m.N and mu0 is not None:
        for w in pts:
            worst = max(worst, abs(_elliptic_dpsi_over_psi(w, sol.roots, mu0, sol.mu, m, p)))
    return VerificationReport("bethe-elliptic-single-valued", samples,
                              float(worst), tol, seed)


# -------------------------------------------------------------- elliptic solve


def _elliptic_residual(m, p, pts, n):
    """Residual x -> r of bethe_solve_elliptic, x = (a_1..a_n, mu0, mu_1..mu_N).

    r holds D psi / psi at each of pts, sum mu, and psi(q w)/psi(w) at pts[1]
    minus the same at pts[0].  The site terms at pts and the site factors of
    psi at pts[0], q pts[0], pts[1] and q pts[1] do not depend on x, so they
    are evaluated here once; each call evaluates only the root terms.
    """
    q = m.elliptic.q
    sites = [_site_terms(w, m, p) for w in pts]
    mpts = (q * pts[0], pts[0], q * pts[1], pts[1])
    facs = [_site_factors(w, m, p) for w in mpts]

    def resid(x):
        a, mu0, mu = x[:n], x[n], x[n + 1:]
        r = [_elliptic_dpsi_over_psi(w, a, mu0, mu, m, p, st) for w, st in zip(pts, sites)]
        r.append(mu.sum())
        psi = [_psi_theta(w, a, m, p, f) for w, f in zip(mpts, facs)]
        r.append(psi[2] / psi[3] - psi[0] / psi[1])
        return np.asarray(r, dtype=complex)

    return resid


def bethe_solve_elliptic(m: GaudinModel, n_roots: Optional[int] = None,
                         seeds: int = 40, samples: int = 24,
                         seed: int = 20260814, tol: float = 1e-9):
    """Joint least-squares solve for (a_i, mu0, mu_a).

    Residuals: D psi / psi at a fixed random sample set, sum mu, and the
    spread of the quasi-periodicity multiplier between two points.  The
    restarts, drawn up front in seed order, are rows of _newton_rows with a
    forward-difference Jacobian (so each step is a least-squares one), read
    back in seed order for the mu dedupe.  The root count defaults to sum
    lam (forced by single-valuedness) and must be supplied explicitly when
    that is not a nonnegative integer.  The site terms tdot(w/z_a), wp(w/z_a)
    and theta(w/z_a)^(-lam_a) at the fixed points are evaluated once per
    solve (samples x N fused tdot/wp calls and 4 x N theta calls); every
    residual and Jacobian column recomputes only the terms of the roots.
    """
    if m.elliptic is None:
        raise BetheError("elliptic_case_only")
    validate_model(m)
    lam = np.asarray(m.lam, dtype=complex)
    if n_roots is None:
        nf = complex(lam.sum())
        n_roots = int(round(nf.real))
        if abs(nf - n_roots) > 1e-9 or n_roots < 0:
            raise BetheError("root_count_not_determined_by_single_valuedness")
    p = _params(m)
    rng = np.random.default_rng(seed)
    pts = _elliptic_samples(rng, samples, m, ())
    n, N = n_roots, m.N
    resid = _elliptic_residual(m, p, pts, n)

    def jac(x, r0):
        J = np.zeros((r0.size, x.size), dtype=complex)
        for j in range(x.size):
            h = 1e-7 * max(1.0, abs(x[j]))
            xp = x.copy()
            xp[j] += h
            J[:, j] = (resid(xp) - r0) / h
        return J

    starts = [np.concatenate([np.exp(rng.uniform(-0.5, 0.2, n) + 2j * np.pi * rng.random(n)),
                              0.3 * (rng.standard_normal(N + 1)
                                     + 1j * rng.standard_normal(N + 1))])
              for _ in range(seeds)]
    rows = _newton_rows(lambda xs: np.array([resid(x) for x in xs]),
                        lambda xs, rs: np.array([jac(x, r) for x, r in zip(xs, rs)]),
                        starts, 80, tol, 12)
    sols = []
    for x in rows:
        if x is None:
            continue
        mu0, mu = complex(x[n]), tuple(complex(v) for v in x[n + 1:])
        if any(abs(s.mu0 - mu0) < 1e-6 and max(abs(p_ - q_) for p_, q_ in zip(s.mu, mu)) < 1e-6
               for s in sols):
            continue
        sols.append(SeparatedSolution("elliptic", tuple(complex(v) for v in x[:n]),
                                      tuple(-l for l in m.lam), mu=mu, mu0=mu0))
    fails = sum(x is None for x in rows)
    if fails:
        log.debug("elliptic bethe: %d/%d seeds unconverged", fails, seeds)
    return sols


# ------------------------------------------------------------ spectrum match


@dataclass(frozen=True)
class MatchReport:
    pairs: Tuple[Tuple[int, int, float], ...]  # (bethe index, spectrum index, error)
    unmatched_bethe: Tuple[int, ...]
    unmatched_spectrum: Tuple[int, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return not self.unmatched_bethe and not self.unmatched_spectrum

    @property
    def max_err(self) -> float:
        return max((e for _, _, e in self.pairs), default=0.0)


def _dedupe_tuples(tuples, tol):
    reps = []
    for i, t in enumerate(tuples):
        if not any(max(abs(x - y) for x, y in zip(t, tuples[j])) < tol for j in reps):
            reps.append(i)
    return reps


def spectrum_match(bethe: Sequence[SeparatedSolution], s: SpectrumResult,
                   tol: float = 1e-8) -> MatchReport:
    """Greedy pairing of distinct mu tuples from both sides.

    Duplicates within tol collapse first on each side (several exponent
    presentations share one eigenfunction, and degenerate eigenvalues repeat
    in the spectrum), so the pairing is between distinct tuples; pass means
    it is a bijection.
    """
    if bethe and s.eigen_tuples and len(bethe[0].mu) != len(s.eigen_tuples[0]):
        raise BetheError("tuple_length_mismatch")
    bidx = _dedupe_tuples([sol.mu for sol in bethe], tol)
    sidx = _dedupe_tuples(list(s.eigen_tuples), tol)
    used = set()
    pairs = []
    un_b = []
    for bi in bidx:
        best = None
        for si in sidx:
            if si in used:
                continue
            err = max(abs(x - y) for x, y in zip(bethe[bi].mu, s.eigen_tuples[si]))
            if best is None or err < best[1]:
                best = (si, err)
        if best is not None and best[1] < tol:
            used.add(best[0])
            pairs.append((bi, best[0], float(best[1])))
        else:
            un_b.append(bi)
    un_s = tuple(si for si in sidx if si not in used)
    return MatchReport(tuple(pairs), tuple(un_b), un_s, tol)
