import cmath

import numpy as np
import pytest

import gcsov.bethe as bethe_mod
from gcsov.bethe import (
    BetheError,
    SeparatedSolution,
    _elliptic_dpsi_over_psi,
    _elliptic_residual,
    _elliptic_samples,
    bethe_equations_rational,
    bethe_solve_elliptic,
    bethe_solve_rational,
    elliptic_single_valued_check,
    indicial_exponents,
    mu_from_ansatz_rational,
    singlet_solutions,
    spectrum_match,
    verify_separated_solution,
)
from gcsov.gaudin import SpectrumResult, _params, joint_spectrum, make_model
from gcsov.operators import cauchy_partial
from gcsov.special_functions import EllipticParams, theta, theta_log_deriv, weierstrass_p


def spin_half_pair():
    return make_model((0.0, 1.0), (-0.5, -0.5))


def elliptic_pair():
    return make_model((1.0, 1.1 * cmath.exp(1.3j)), (1.0, 1.0), q=0.05)


_ELL_CACHE = {}


def elliptic_solutions(seeds=20):
    # the joint solve is the slow part; share it across tests
    if seeds not in _ELL_CACHE:
        _ELL_CACHE[seeds] = bethe_solve_elliptic(elliptic_pair(), seeds=seeds)
    return _ELL_CACHE[seeds]


def test_indicial_exponents_pairs():
    assert indicial_exponents(-0.5) == (-0.5, 1.5)
    assert indicial_exponents(0.0) == (0.0, 1.0)
    assert indicial_exponents(1.0) == (1.0, 0.0)


def test_mu_formula_exact_singlet():
    m = spin_half_pair()
    sol = SeparatedSolution("rational", (), (1.5, -0.5), ())
    mu = mu_from_ansatz_rational(sol, m)
    assert abs(mu[0] - 3.0) < 1e-12
    assert abs(mu[1] + 3.0) < 1e-12


def test_mu_formula_zero_weights():
    m = make_model((0.0, 1.0), (0.0, 0.0))
    sol = SeparatedSolution("rational", (), (0.0, 0.0), ())
    assert mu_from_ansatz_rational(sol, m) == (0.0, 0.0)


def test_exact_closed_form_psi_annihilated():
    # psi = w^{3/2}(w-1)^{-1/2} with mu=(3,-3): 2 psi'' = V psi pointwise
    m = spin_half_pair()
    mu = (3.0, -3.0)

    def psi(pt):
        w = pt[0]
        return w**1.5 * (w - 1.0) ** (-0.5)

    for w in (2.3, 3.7, 1.9 + 0.4j):
        d2 = cauchy_partial(lambda pt: cauchy_partial(psi, pt, 0), (w,), 0)
        v = sum(mu[a] / (w - m.z[a]) for a in range(2))
        v += sum(2 * (-0.5) * (-1.5) / (w - m.z[a]) ** 2 for a in range(2))
        assert abs(2 * d2 - v * psi((w,))) < 1e-7


def test_mu_sign_flip_crosschecked_by_direct_evaluation():
    # root-free ansatz: any exponent pattern is an exact eigenfunction,
    # so the residue formula can be certified for both choices at a site
    m = make_model((0.0, 1.0, 2.5), (-0.5, 1.0, 0.75))
    mus = []
    for pat in ((-0.5, 1.0, 0.75), (-0.5, 0.0, 0.75)):
        sol = SeparatedSolution("rational", (), pat, ())
        mu = mu_from_ansatz_rational(sol, m)
        rep = verify_separated_solution(
            SeparatedSolution("rational", (), pat, mu), m, samples=12)
        assert rep.passed, rep.max_residual
        mus.append(mu)
    assert abs(mus[0][1] - mus[1][1]) > 0.1


def test_bethe_equations_frozen_midpoint():
    m = spin_half_pair()
    r = bethe_equations_rational(
        SeparatedSolution("rational", (0.5,), (-0.5, -0.5), ()), m)
    assert abs(r[0]) < 1e-14
    r2 = bethe_equations_rational(
        SeparatedSolution("rational", (0.5 + 1e-4,), (-0.5, -0.5), ()), m)
    assert 1e-5 < abs(r2[0]) < 1e-2  # linear response, slope 4


def test_bethe_equations_empty_and_bad_configs():
    m = spin_half_pair()
    r = bethe_equations_rational(
        SeparatedSolution("rational", (), (-0.5, -0.5), ()), m)
    assert r.size == 0
    with pytest.raises(BetheError):
        bethe_equations_rational(
            SeparatedSolution("rational", (0.3, 0.3), (-0.5, -0.5), ()), m)
    with pytest.raises(BetheError):
        mu_from_ansatz_rational(
            SeparatedSolution("rational", (1.0,), (-0.5, -0.5), ()), m)


def test_solve_one_root_patterns():
    m = spin_half_pair()
    sols = bethe_solve_rational(m, 1, exponents=(-0.5, -0.5))
    assert len(sols) == 1
    assert abs(sols[0].roots[0] - 0.5) < 1e-10
    # this presentation lands on the singlet tuple again
    assert max(abs(x - y) for x, y in zip(sols[0].mu, (3.0, -3.0))) < 1e-10

    sols = bethe_solve_rational(m, 1, exponents=(1.5, -0.5))
    assert len(sols) == 1
    assert abs(sols[0].roots[0] - 1.5) < 1e-10
    # mixed pattern with one root carries the non-singlet tuple
    assert max(abs(x - y) for x, y in zip(sols[0].mu, (-1.0, 1.0))) < 1e-10


def test_solve_zero_roots_enumerates_patterns():
    m = spin_half_pair()
    sols = bethe_solve_rational(m, 0)
    assert len(sols) == 4
    for sol in sols:
        assert sol.roots == ()
        assert verify_separated_solution(sol, m, samples=10).passed


def test_solver_determinism():
    m = spin_half_pair()
    r1 = bethe_solve_rational(m, 1, exponents=(-0.5, -0.5))
    r2 = bethe_solve_rational(m, 1, exponents=(-0.5, -0.5))
    assert r1[0].roots == r2[0].roots
    assert r1[0].mu == r2[0].mu


def _ref_rational_residual(a, s, z):
    # one configuration at a time, kept as the reference for the batched form
    diff = a[:, None] - a[None, :]
    diff[np.diag_indices(a.size)] = 1.0
    inv = 1.0 / diff
    inv[np.diag_indices(a.size)] = 0.0
    out = inv.sum(axis=1)
    out += (s[None, :] / (a[:, None] - z[None, :])).sum(axis=1)
    return out


def _ref_rational_jacobian(a, s, z):
    diff = a[:, None] - a[None, :]
    diff[np.diag_indices(a.size)] = 1.0
    J = 1.0 / diff**2
    J[np.diag_indices(a.size)] = 0.0
    J[np.diag_indices(a.size)] = (
        -J.sum(axis=1)
        - (s[None, :] / (a[:, None] - z[None, :]) ** 2).sum(axis=1)
    )
    return J


def _ref_newton(a0, s, z, iters=60, tol=1e-12):
    # one scalar Newton with halving line search per start
    a = np.asarray(a0, dtype=complex)
    with np.errstate(all="ignore"):
        for _ in range(iters):
            r = _ref_rational_residual(a, s, z)
            if not np.all(np.isfinite(r)):
                return None
            rn = float(np.abs(r).max())
            if rn < tol:
                return a
            try:
                step = np.linalg.solve(_ref_rational_jacobian(a, s, z), -r)
            except np.linalg.LinAlgError:
                return None
            t = 1.0
            for _ in range(14):
                r2 = _ref_rational_residual(a + t * step, s, z)
                if np.all(np.isfinite(r2)) and float(np.abs(r2).max()) < rn:
                    a = a + t * step
                    break
                t *= 0.5
            else:
                return None
    return None


def rational_rows(starts, s, z):
    # the batched Newton as bethe_solve_rational calls it
    return bethe_mod._newton_rows(lambda a: bethe_mod._bethe_residual(a, s, z),
                                  lambda a, r: bethe_mod._bethe_jacobian(a, s, z),
                                  starts, 60, 1e-12, 14)


@pytest.mark.parametrize("z, s, n", [
    ((0.0, 1.0), (-0.5, -0.5), 1),
    ((0.0, 1.0 + 0.2j, 2.1 - 0.1j, 3.3), (1.5, -0.5, -0.5, -0.5), 2),
    ((0.0, 1.0 + 0.2j, 2.1 - 0.1j, 3.3), (-0.5, -0.5, -0.5, -0.5), 2),
    ((0.0, 0.9, 2.2 + 0.3j, 3.1, 4.4 - 0.2j), (-1.0, 2.0, -0.5, -1.0, -0.5), 3),
    ((0.0, 1.1, 2.0 + 0.2j, 3.2, 4.1 - 0.3j, 5.0), (-0.5,) * 6, 5),
])
def test_batched_newton_is_bitwise_the_scalar_one(z, s, n):
    z, s = np.asarray(z, dtype=complex), np.asarray(s, dtype=complex)
    rng = np.random.default_rng(11)
    starts = [bethe_mod._seed_roots(rng, z, n) for _ in range(40)]
    got = rational_rows(starts, s, z)
    assert len(got) == len(starts)
    for a0, a in zip(starts, got):
        ref = _ref_newton(a0, s, z)
        assert (a is None) == (ref is None)
        if ref is not None:
            assert a.tobytes() == ref.tobytes()
    assert sum(a is not None for a in got) >= 5


def test_batched_newton_singular_row_fails_alone():
    # s = (1, 1), z = (1, -1): at a = i the 1x1 Jacobian -sum s/(a - z)^2 is
    # exactly 0 while the residual is -i, so only that row may fail
    z, s = np.array([1.0, -1.0], dtype=complex), np.array([1.0, 1.0], dtype=complex)
    singular = np.array([1j])
    r = _ref_rational_residual(singular, s, z)
    assert np.all(np.isfinite(r)) and abs(r[0]) > 0.5
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(_ref_rational_jacobian(singular, s, z), -r)
    rng = np.random.default_rng(3)
    starts = [bethe_mod._seed_roots(rng, z, 1) for _ in range(12)]
    starts.insert(5, singular)
    got = rational_rows(starts, s, z)
    assert got[5] is None and _ref_newton(singular, s, z) is None
    for a0, a in zip(starts, got):
        ref = _ref_newton(a0, s, z)
        assert (a is None) == (ref is None)
        if ref is not None:
            assert a.tobytes() == ref.tobytes()
    assert sum(a is not None for a in got) >= 6


def test_singlet_bijection_two_sites():
    m = spin_half_pair()
    sols = singlet_solutions(m)
    assert len(sols) == 1
    rep = spectrum_match(sols, joint_spectrum(m))
    assert rep.passed and rep.max_err < 1e-8
    for s in sols:
        assert max(abs(x - y) for x, y in zip(s.mu, (-1.0, 1.0))) > 0.5


def test_singlet_bijection_four_sites():
    m = make_model((0.0, 1.0, 1.7, 3.2), (-0.5, -0.5, -0.5, -0.5))
    sols = singlet_solutions(m, seeds=80)
    rep = spectrum_match(sols, joint_spectrum(m))
    assert rep.passed, (rep.unmatched_bethe, rep.unmatched_spectrum)
    assert len(rep.pairs) == 2
    for sol in sols:
        v = verify_separated_solution(sol, m, samples=20)
        assert v.passed, v.max_residual


def test_double_pole_cancellation_near_sites():
    # random non-Bethe roots: with mu from the residue formula the full
    # expression keeps poles only at the roots, never at the sites
    m = make_model((0.0, 1.0, 2.0), (0.75, -0.5, 1.25))
    rng = np.random.default_rng(7)
    a = tuple(10.0 + rng.standard_normal(2) + 1j * rng.standard_normal(2))
    s = (0.75, 1.5, 1.25)
    mu = mu_from_ansatz_rational(SeparatedSolution("rational", a, s, ()), m)

    def expr(w, mu):
        S = sum(1 / (w - ai) for ai in a) + sum(s[b] / (w - m.z[b]) for b in range(3))
        Sp = -sum(1 / (w - ai) ** 2 for ai in a) - sum(s[b] / (w - m.z[b]) ** 2 for b in range(3))
        V = sum(mu[b] / (w - m.z[b]) for b in range(3))
        V += sum(2 * m.lam[b] * (m.lam[b] - 1) / (w - m.z[b]) ** 2 for b in range(3))
        return 2 * (S * S + Sp) - V

    for zb in m.z:
        assert abs(expr(zb + 1e-6 * cmath.exp(0.7j), mu)) < 1e3
    bad = (mu[0] + 0.3,) + mu[1:]
    assert abs(expr(m.z[0] + 1e-6, bad)) > 1e4


def test_verify_flags_wrong_mu():
    m = spin_half_pair()
    good = SeparatedSolution("rational", (), (1.5, -0.5), (3.0, -3.0))
    assert verify_separated_solution(good, m).passed
    bad = SeparatedSolution("rational", (), (1.5, -0.5), (3.05, -3.0))
    rep = verify_separated_solution(bad, m)
    assert not rep.passed and rep.max_residual > 1e-3


def test_elliptic_solver_and_single_valuedness():
    m = elliptic_pair()
    sols = elliptic_solutions()
    assert sols, "no converged elliptic solutions"
    for sol in sols[:2]:
        assert abs(sum(sol.mu)) < 1e-8
        rep = elliptic_single_valued_check(sol, m, seed=777)
        assert rep.passed, rep.max_residual
        v = verify_separated_solution(sol, m, samples=12, tol=1e-6, seed=999)
        assert v.passed, v.max_residual


def test_elliptic_extra_root_breaks_constancy():
    m = elliptic_pair()
    sol = elliptic_solutions()[0]
    mutated = SeparatedSolution("elliptic", sol.roots + (0.77 + 0.1j,),
                                sol.exponents, sol.mu, sol.mu0)
    rep = elliptic_single_valued_check(mutated, m)
    assert not rep.passed and rep.max_residual > 1e-2


def test_elliptic_root_count_needs_integer_weight_sum():
    m = make_model((1.0, 1.4 * cmath.exp(0.9j)), (0.5, 0.7), q=0.05)
    with pytest.raises(BetheError):
        bethe_solve_elliptic(m)


def _ref_dpsi_over_psi(w, roots, mu0, mu, m, p):
    # every special value evaluated in place, kept as the reference
    lam = m.lam
    sig = 0.0 + 0.0j
    sigd = 0.0 + 0.0j
    for ai in roots:
        sig += theta_log_deriv(w * ai, p)
        sigd -= weierstrass_p(w * ai, p)
    pot = complex(mu0)
    for al in range(m.N):
        y = w / m.z[al]
        td = theta_log_deriv(y, p)
        wp = weierstrass_p(y, p)
        sig -= lam[al] * td
        sigd += lam[al] * wp
        pot += mu[al] * td + 2.0 * lam[al] * (lam[al] + 1.0) * wp
    return 2.0 * (sig * sig + sigd) - pot


def _ref_psi(w, roots, m, p):
    val = 1.0 + 0.0j
    for ai in roots:
        val *= theta(w * ai, p)
    for al in range(m.N):
        val *= theta(w / m.z[al], p) ** (-complex(m.lam[al]))
    return val


def _ref_residual(x, m, p, pts, n):
    q = m.elliptic.q
    a, mu0, mu = x[:n], x[n], x[n + 1:]
    r = [_ref_dpsi_over_psi(w, a, mu0, mu, m, p) for w in pts]
    r.append(mu.sum())
    m0 = _ref_psi(q * pts[0], a, m, p) / _ref_psi(pts[0], a, m, p)
    m1 = _ref_psi(q * pts[1], a, m, p) / _ref_psi(pts[1], a, m, p)
    r.append(m1 - m0)
    return np.asarray(r, dtype=complex)


@pytest.mark.parametrize("m, n", [
    (elliptic_pair(), 2),
    (make_model((1.0, 1.2 * cmath.exp(2.2j), 0.9 * cmath.exp(4.0j)), (1.0, -0.5, 0.5),
                q=0.2 * cmath.exp(1.1j)), 1),
])
def test_hoisted_elliptic_residual_is_bitwise_the_uncached_one(m, n):
    p = _params(m)
    rng = np.random.default_rng(5)
    pts = _elliptic_samples(rng, 24, m, ())
    resid = _elliptic_residual(m, p, pts, n)
    for _ in range(6):
        a0 = np.exp(rng.uniform(-0.5, 0.2, n) + 2j * np.pi * rng.random(n))
        x = np.concatenate([a0, rng.standard_normal(m.N + 1) + 1j * rng.standard_normal(m.N + 1)])
        ref = _ref_residual(x, m, p, pts, n)
        assert np.array_equal(resid(x), ref)
        a, mu0, mu = x[:n], x[n], x[n + 1:]
        assert [_elliptic_dpsi_over_psi(w, a, mu0, mu, m, p) for w in pts] == list(ref[:-2])


def _ref_elliptic_rows(m, n, seeds, seed, samples=24, tol=1e-9):
    # one Gauss-Newton with a halving line search per restart, drawn and run
    # in seed order: the converged x of each restart, or None
    p = _params(m)
    rng = np.random.default_rng(seed)
    pts = _elliptic_samples(rng, samples, m, ())
    resid = _elliptic_residual(m, p, pts, n)

    def jac(x, r0):
        J = np.zeros((r0.size, x.size), dtype=complex)
        for j in range(x.size):
            h = 1e-7 * max(1.0, abs(x[j]))
            xp = x.copy()
            xp[j] += h
            J[:, j] = (resid(xp) - r0) / h
        return J

    out = []
    for _ in range(seeds):
        a0 = np.exp(rng.uniform(-0.5, 0.2, n) + 2j * np.pi * rng.random(n))
        x = np.concatenate([a0, 0.3 * (rng.standard_normal(m.N + 1)
                                       + 1j * rng.standard_normal(m.N + 1))])
        ok = False
        with np.errstate(all="ignore"):
            for _ in range(80):
                r = resid(x)
                if not np.all(np.isfinite(r)):
                    break
                rn = float(np.abs(r).max())
                if rn < tol:
                    ok = True
                    break
                step = np.linalg.lstsq(jac(x, r), -r, rcond=None)[0]
                t = 1.0
                for _ in range(12):
                    r2 = resid(x + t * step)
                    if np.all(np.isfinite(r2)) and float(np.abs(r2).max()) < rn:
                        x = x + t * step
                        break
                    t *= 0.5
                else:
                    break
        out.append(x if ok else None)
    return out


@pytest.mark.parametrize("m, n, seed", [
    (elliptic_pair(), 2, 7),
    (make_model((1.0, 1.2 * cmath.exp(2.2j), 0.9 * cmath.exp(4.0j)), (1.0, -0.5, 0.5),
                q=0.2 * cmath.exp(1.1j)), 1, 7),
])
def test_elliptic_rows_are_bitwise_the_per_restart_gauss_newton(m, n, seed, monkeypatch):
    seen = []
    newton = bethe_mod._newton_rows

    def spy(*args):
        seen.append(newton(*args))
        return seen[-1]

    monkeypatch.setattr(bethe_mod, "_newton_rows", spy)
    bethe_solve_elliptic(m, n_roots=n, seeds=16, seed=seed)
    (rows,) = seen
    ref = _ref_elliptic_rows(m, n, 16, seed)
    assert [x is None for x in rows] == [x is None for x in ref]
    assert 0 < sum(x is None for x in ref) < len(ref)
    for x, y in zip(rows, ref):
        if y is not None:
            assert x.tobytes() == y.tobytes()


def test_zero_restarts_find_no_solutions():
    assert bethe_solve_rational(spin_half_pair(), 1, seeds=0) == []
    assert bethe_solve_elliptic(elliptic_pair(), seeds=0) == []


def test_elliptic_solve_evaluates_site_terms_once_per_solve(monkeypatch):
    # machine-independent cost check: the site terms at the fixed samples are
    # computed samples x N times per solve, not once per residual
    m, samples, n = elliptic_pair(), 8, 2
    seen, fused_args, theta_args = {}, [], []

    def spy_samples(*a, **k):
        seen["pts"] = _elliptic_samples(*a, **k)
        return seen["pts"]

    def spy(fn, log):
        def wrapped(z, *a, **k):
            log.append(z)
            return fn(z, *a, **k)
        return wrapped

    monkeypatch.setattr(bethe_mod, "_elliptic_samples", spy_samples)
    monkeypatch.setattr(bethe_mod, "_log_deriv_and_wp", spy(bethe_mod._log_deriv_and_wp, fused_args))
    monkeypatch.setattr(bethe_mod, "theta", spy(bethe_mod.theta, theta_args))
    bethe_solve_elliptic(m, seeds=1, samples=samples)
    pts, q = seen["pts"], m.elliptic.q
    site_args = {w / za for w in pts for za in m.z}
    site_calls = sum(z in site_args for z in fused_args)
    assert site_calls == samples * m.N
    root_calls = len(fused_args) - site_calls
    # n roots at every sample point, once per residual; dozens of residuals
    assert root_calls % (samples * n) == 0 and root_calls >= 20 * samples * n
    factor_args = {w / za for w in (q * pts[0], pts[0], q * pts[1], pts[1]) for za in m.z}
    assert sum(z in factor_args for z in theta_args) == 4 * m.N


def test_small_nome_residual_matches_rational_limit():
    # tdot -> -y/(1-y) and wp -> y/(1-y)^2 as q -> 0, so the elliptic
    # residual degenerates to a rational-function form on matched data
    q = 1e-12
    m = make_model((1.0, 1.1 * cmath.exp(1.3j)), (1.0, 1.0), q=q)
    p = EllipticParams(q=q)
    roots = (0.45 + 0.2j, 1.3 * cmath.exp(2.1j))
    mu = (0.37 - 0.11j, -0.37 + 0.11j)
    mu0 = 0.29 + 0.05j
    for w in (cmath.exp(0.2 + 1.1j), cmath.exp(-0.15 + 4.0j)):
        val = _elliptic_dpsi_over_psi(w, roots, mu0, mu, m, p)
        sig = sum(-(w * ai) / (1 - w * ai) for ai in roots)
        sigd = sum(-(w * ai) / (1 - w * ai) ** 2 for ai in roots)
        pot = mu0
        for al in range(2):
            y = w / m.z[al]
            sig += m.lam[al] * y / (1 - y)
            sigd += m.lam[al] * y / (1 - y) ** 2
            pot += -mu[al] * y / (1 - y) + 2 * m.lam[al] * (m.lam[al] + 1) * y / (1 - y) ** 2
        ref = 2 * (sig * sig + sigd) - pot
        assert abs(val - ref) < 1e-9 * max(1.0, abs(ref))


def test_spectrum_match_edges():
    m = spin_half_pair()
    empty = SpectrumResult("singlet,weight=0", (), np.zeros((4, 0), dtype=complex), ())
    rep = spectrum_match([], empty)
    assert rep.passed and rep.pairs == ()
    off = SeparatedSolution("rational", (), (1.5, -0.5), (2.0, -2.0))
    rep = spectrum_match([off], joint_spectrum(m))
    assert not rep.passed
    assert rep.unmatched_bethe and rep.unmatched_spectrum
