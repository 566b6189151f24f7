import cmath
import math

import numpy as np
import pytest

from gcsov.gaudin import make_model
from gcsov.operators import eval_terms, fd_jacobian
from gcsov.special_functions import (
    EllipticParams,
    _mult_dist_to_lattice,
    canonicalize,
    theta,
    theta_log_deriv,
    weierstrass_p,
)
import gcsov.sov as sov
from gcsov.sov import (
    ChartBoundaryError,
    EllipticSovFrame,
    SeparatedCoordinates,
    SovError,
    elliptic_u_to_w,
    elliptic_w_to_u,
    radon_current_operators,
    radon_hamiltonians_elliptic,
    _abel_power,
    _psi_terms,
    _sorted_roots,
    _SCAN_NODES,
    separated_operator,
    sov_jacobian_elliptic,
    verify_elliptic_separation,
)

Q = 0.05


def torus_model(n=3, q=Q, lam=None):
    z = [cmath.exp(2j * math.pi * a / n + 0.1j * a) * (1 + 0.1 * a) for a in range(n)]
    lam = lam if lam is not None else [-0.5, 1.0, 0.75, -1.5][:n]
    return make_model(z, lam, q=q)


def generic_u(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


T2 = cmath.exp(0.13 + 2.31j)


# -------------------------------------------------------------------- the chart


def _ref_psi_dpsi(zpt, uv, t2, z_sites, p):
    # every theta factor evaluated in place, kept as the reference
    total = dtotal = 0.0 + 0.0j
    for a, za in enumerate(z_sites):
        term = uv[a] * theta(t2 * zpt / za, p)
        logd = theta_log_deriv(t2 * zpt / za, p)
        for b, zb in enumerate(z_sites):
            if b != a:
                term *= theta(zpt / zb, p)
                logd += theta_log_deriv(zpt / zb, p)
        total += term
        dtotal += term * logd
    return total, dtotal / zpt


@pytest.mark.parametrize("n, q", [(2, 0.05), (3, 0.1 + 0.05j), (4, 0.3j)])
def test_frame_psi_and_derivative_are_bitwise_the_uncached_sums(n, q):
    m = torus_model(n, q)
    p = EllipticParams(q=q)
    psi = _psi_terms(m.z, p)
    rng = np.random.default_rng(n)
    uv = generic_u(n, 3)
    for _ in range(20):
        zpt = cmath.exp(complex(rng.uniform(-0.5, 0.5), rng.uniform(0, 2 * math.pi)))
        val, der = _ref_psi_dpsi(zpt, uv, T2, m.z, p)
        assert psi(zpt, uv, T2) == val
        assert psi(zpt, uv, T2, deriv=True) == (val, der)


@pytest.mark.parametrize("q", [0.05, 0.1 + 0.05j])
def test_zero_count_and_exact_product_constraint(q):
    m = torus_model(3, q)
    u = generic_u(3, 1)
    s = elliptic_u_to_w(u, T2, m, strict=False)
    assert len(s.w) == m.N
    # representatives are adjusted so the constraint holds exactly, not mod q
    lhs = s.t2 * np.prod(np.array(s.w))
    rhs = np.prod(np.array(m.z))
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


@pytest.mark.parametrize("n,seed", [(2, 3), (3, 4), (4, 5)])
def test_roundtrip_u_w_u(n, seed):
    m = torus_model(n)
    u = generic_u(n, seed)
    s = elliptic_u_to_w(u, T2, m, strict=False)
    back = np.array(elliptic_w_to_u(s, m).u)
    assert np.abs(back - u).max() < 1e-9 * np.abs(u).max()
    # no zero-sum constraint here; the sum rides along unchanged
    assert abs(back.sum() - u.sum()) < 1e-9 * np.abs(u).max()


def test_roundtrip_w_u_w_mod_lattice():
    m = torus_model(3)
    p = EllipticParams(q=Q)
    u = generic_u(3, 6)
    s = elliptic_u_to_w(u, T2, m, strict=False)
    s2 = elliptic_u_to_w(elliptic_w_to_u(s, m).u, T2, m, strict=False)
    assert max(_mult_dist_to_lattice(a / b, p) for a, b in zip(s2.w, s.w)) < 1e-9
    assert abs(s2.C - s.C) < 1e-9 * abs(s.C)


def test_representative_shift_rescales_section():
    # moving w_1 -> q w_1, w_N -> w_N/q keeps the product constraint but
    # multiplies every residue by the same constant w_N/(q w_1)
    m = torus_model(3)
    u = generic_u(3, 7)
    s = elliptic_u_to_w(u, T2, m, strict=False)
    ws = list(s.w)
    ws[0] *= Q
    ws[-1] /= Q
    shifted = SeparatedCoordinates("elliptic", s.C, tuple(ws), 0, s.t2)
    u2 = np.array(elliptic_w_to_u(shifted, m).u)
    ratio = u2 / np.array(elliptic_w_to_u(s, m).u)
    assert np.abs(ratio - ratio[0]).max() < 1e-10 * abs(ratio[0])
    assert abs(ratio[0] - s.w[-1] / (Q * s.w[0])) < 1e-9 * abs(ratio[0])


def test_w_to_u_rejects_non_lattice_product():
    m = torus_model(2)
    bad = SeparatedCoordinates("elliptic", 1.0, (0.9 + 0.1j, 0.4 - 0.6j), 0, T2)
    with pytest.raises(SovError, match="abel_violation"):
        elliptic_w_to_u(bad, m)


def test_strict_chart_flags_root_at_site():
    m = torus_model(2)
    w1 = m.z[0] * (1 + 2e-8)
    w2 = np.prod(np.array(m.z)) / (T2 * w1)
    s = SeparatedCoordinates("elliptic", 0.7 + 0.2j, (w1, complex(w2)), 0, T2)
    u = elliptic_w_to_u(s, m)
    with pytest.raises(ChartBoundaryError):
        elliptic_u_to_w(u.u, T2, m, strict=True)
    s2 = elliptic_u_to_w(u.u, T2, m, strict=False)
    assert "root_at_site" in s2.flags


def _laurent_scan(frame, modes=48, samples=256):
    """(w, C) by the former chart scan, kept as the reference.

    It roots the degree-2*modes truncated Laurent polynomial of Psi sampled on
    |z| = sqrt|q| (for |q| < 1e-3, the degree-N polynomial of the q = 0
    limit instead), Newton-polishes every root, and retries up to four times
    with a larger radius and a rotated grid until N distinct zeros survive.
    """
    N, q, p = frame.m.N, frame.p.q, frame.p
    uv, t2 = frame.base_u, frame.t2
    rot = 1.0
    for attempt in range(4):
        if abs(q) < 1e-3:
            z = np.array(frame.z)
            poly = np.zeros(N + 1, dtype=complex)
            for a in range(N):
                poly += uv[a] * np.poly(np.append(np.delete(z, a), z[a] / t2))
            nz = np.abs(poly).max()
            idx = 0
            while idx < len(poly) - 1 and abs(poly[idx]) <= 1e-11 * nz:
                idx += 1
            roots, scale = np.roots(poly[idx:]), 1.0
        else:
            r0 = math.sqrt(abs(q)) * (1.0 + 0.13 * attempt)
            ang = np.exp(2j * np.pi * (np.arange(samples) / samples)) * rot
            vals = np.array([frame._psi(r0 * a, uv, t2) for a in ang])
            scale = float(np.abs(vals).max())
            co = np.fft.fft(vals) / samples
            idx = np.concatenate([np.arange(0, modes + 1), np.arange(-modes, 0)])
            lau = {int(k): co[int(k)] / (r0 ** k * rot ** k) for k in idx}
            roots = np.roots(np.array([lau.get(k, 0.0)
                                       for k in range(modes, -modes - 1, -1)]))
        good = []
        for r in roots:
            if not np.isfinite(r) or r == 0:
                continue
            wr, ok = frame._newton(canonicalize(r, p).rep, uv, t2)
            if not ok or abs(frame._psi(wr, uv, t2)) > 1e-9 * scale:
                continue
            wr = canonicalize(wr, p).rep
            if not any(_mult_dist_to_lattice(wr / g, p) < 1e-8 for g in good):
                good.append(wr)
        if len(good) == N:
            ws = _sorted_roots(good)
            ws[-1] *= q ** _abel_power(frame.z, t2, ws, q)
            return ws, frame._residue_C(ws, uv)
        rot = cmath.exp(0.37j * (attempt + 1))
    raise AssertionError("reference scan lost a zero")


@pytest.mark.parametrize("m", [
    torus_model(2, 0.05), torus_model(3, 0.1 + 0.05j), torus_model(2, 0.3j),
    torus_model(3, 1e-5),
    # a site on the scan circle |z| = sqrt|q|, on the real axis
    make_model((1.0, 0.5), (-0.5, 1.0), q=0.25),
], ids=["n2-q0.05", "n3-q0.1+0.05j", "n2-q0.3j", "n3-q1e-5", "site-on-circle"])
def test_moment_scan_matches_the_laurent_reference(m):
    n = m.N
    p = EllipticParams(q=m.elliptic.q)
    rng = np.random.default_rng(23)
    for _ in range(8):
        t2 = cmath.exp(complex(rng.uniform(-0.2, 0.2), rng.uniform(0, 2 * math.pi)))
        frame = EllipticSovFrame(m, generic_u(n, rng.integers(1 << 30)), t2)
        ws, C = _laurent_scan(frame)
        for w in ws:
            assert min(_mult_dist_to_lattice(w / b, p) for b in frame.base_w) < 1e-12
        assert abs(frame.base_C - C) < 1e-12 * abs(C)


@pytest.mark.parametrize("q", [0.05, 0.1 + 0.05j, 0.3j])
@pytest.mark.parametrize("n", [2, 3])
def test_zero_on_the_scan_circle_is_recovered(n, q):
    # |w_1| = sqrt|q| puts a zero on the moment contour, which spoils the
    # moments; Abel's relation must give back the zero the pencil loses
    m = torus_model(n, q)
    p = EllipticParams(q=q)
    rng = np.random.default_rng(17)
    zprod = np.prod(np.array(m.z))
    for _ in range(8):
        t2 = cmath.exp(complex(rng.uniform(-0.2, 0.2), rng.uniform(0, 2 * math.pi)))
        ws = [math.sqrt(abs(q)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))]
        ws += [cmath.exp(complex(rng.uniform(math.log(abs(q)), 0),
                                 rng.uniform(0, 2 * math.pi))) for _ in range(n - 2)]
        ws.append(zprod / (t2 * np.prod(np.array(ws))))
        s = SeparatedCoordinates("elliptic", complex(rng.normal(), rng.normal()),
                                 tuple(ws), 0, t2)
        frame = EllipticSovFrame(m, elliptic_w_to_u(s, m).u, t2)
        for w in ws:
            assert min(_mult_dist_to_lattice(w / b, p) for b in frame.base_w) < 1e-10


def test_scan_cost_per_frame(monkeypatch):
    # the criterion-4 model: one circle of _SCAN_NODES samples and about one
    # Newton polish per zero, with Abel's completion as the only extra one
    q = 0.05
    m = make_model((1.0, 1.1 * cmath.exp(1.3j)), (1.0, 1.0), q=q)
    calls = {"newton": 0, "psi": 0}
    newton = EllipticSovFrame._newton

    def counted_newton(self, *args, **kw):
        calls["newton"] += 1
        return newton(self, *args, **kw)

    def counted_terms(z, p):
        psi = _psi_terms(z, p)

        def counted_psi(*args, **kw):
            calls["psi"] += 1
            return psi(*args, **kw)
        return counted_psi

    monkeypatch.setattr(EllipticSovFrame, "_newton", counted_newton)
    monkeypatch.setattr(sov, "_psi_terms", counted_terms)
    rng = np.random.default_rng(20260814)
    for _ in range(20):
        t2 = cmath.exp(complex(rng.uniform(-0.2, 0.2), rng.uniform(0, 2 * math.pi)))
        calls.update(newton=0, psi=0)
        EllipticSovFrame(m, generic_u(m.N, rng.integers(1 << 30)), t2)
        assert calls["newton"] <= m.N + 1, calls
        assert calls["psi"] <= _SCAN_NODES + 10 * (m.N + 1), calls


def test_small_nome_matches_rational_limit():
    # at q = 1e-5 the transform must agree with the q = 0 closed forms
    # theta(z) -> 1 - z to a few parts in 1e3
    q = 1e-5
    m = torus_model(3, q)
    u = generic_u(3, 8)
    s = elliptic_u_to_w(u, T2, m, strict=False)
    z = np.array(m.z)
    # rational-limit residue formula on the same representatives
    for a in range(m.N):
        num = s.C * np.prod([1 - z[a] / wj for wj in s.w])
        den = np.prod([1 - z[a] / z[b] for b in range(m.N) if b != a])
        assert abs(num / den - u[a]) < 1e-3 * abs(u[a])
    # and the zeros sit near the roots of the degenerate numerator polynomial
    poly = np.zeros(m.N + 1, dtype=complex)
    for a in range(m.N):
        poly += u[a] * np.poly(np.append(np.delete(z, a), z[a] / T2))
    target = sorted(np.roots(poly), key=lambda v: (np.angle(v), abs(v)))
    got = sorted(s.w, key=lambda v: (np.angle(v), abs(v)))
    assert np.abs(np.array(got) - np.array(target)).max() < 1e-3


# -------------------------------------------------------------------- jacobian


def test_elliptic_jacobian_matches_finite_differences():
    m = torus_model(3)
    u = generic_u(3, 9)
    cmap = sov_jacobian_elliptic(u, T2, m)
    pt = tuple(u) + (T2,)
    J = np.asarray(cmap.jacobian(pt))
    Jfd = fd_jacobian(lambda p_: cmap.forward(p_), pt, h=1e-7)
    assert J.shape == (m.N + 2, m.N + 1)
    assert np.abs(J - Jfd).max() < 1e-5 * max(1.0, np.abs(J).max())


def test_elliptic_jacobian_inverse_consistency():
    m = torus_model(2)
    u = generic_u(2, 10)
    cmap = sov_jacobian_elliptic(u, T2, m)
    pt = tuple(u) + (T2,)
    cw = cmap.forward(pt)
    back = np.array(cmap.inverse(cw))
    assert np.abs(back - np.array(pt)).max() < 1e-9


# ----------------------------------------------------------- transformed fit


def test_radon_density_fits_the_four_term_expansion():
    m = torus_model(2, lam=[-0.5, -0.5])
    fit = radon_hamiltonians_elliptic(m)
    assert fit.condition < 50
    pt = (T2, 0.7 + 0.2j, -0.4 + 0.9j)
    assert fit.fit_residual(pt) < 1e-9


def test_radon_current_multiplier_vanishes_at_zero():
    # f-current evaluated at a zero of the section is the defining equation
    m = torus_model(3)
    u = generic_u(3, 11)
    frame = EllipticSovFrame(m, u, T2)
    pt = frame.base_point()
    for wi in frame.base_w:
        _, fbar, _ = radon_current_operators(m, wi)
        snap = eval_terms(fbar, pt)
        assert abs(snap[(0,) * (m.N + 1)]) < 1e-10


# ------------------------------------------------------------ certified chain


def test_verify_elliptic_separation_passes_and_control_fires():
    m = torus_model(2, lam=[-0.5, -0.5])
    reports = verify_elliptic_separation(m, points=2, tol=1e-7, seed=13)
    by_label = {r.label: r for r in reports}
    for tag in ("a-term-decomposition", "b-euler-pole", "c-scalar-pole",
                "d-separated-form"):
        r = by_label[f"elliptic-{tag}"]
        assert r.passed and not r.expect_failure, (r.label, r.max_residual)
    ctrl = by_label["elliptic-control-casimir-variant"]
    assert ctrl.expect_failure and ctrl.passed and ctrl.max_residual > ctrl.tol


def test_verify_elliptic_separation_unit_weights():
    # lam = -1 everywhere: the scalar pole pieces cancel term by term and the
    # twisting exponent vanishes, so the chain runs untwisted
    m = torus_model(2, lam=[-1.0, -1.0])
    reports = verify_elliptic_separation(m, points=1, tol=1e-7, seed=14,
                                         include_controls=False)
    assert all(r.passed for r in reports), [(r.label, r.max_residual)
                                            for r in reports]


def test_scalar_pole_terms_vanish_identically_at_unit_weights():
    m = torus_model(2, lam=[-1.0, -1.0])
    u = generic_u(2, 15)
    frame = EllipticSovFrame(m, u, T2)
    sc = frame.scalars(0)
    lamp1 = np.array(m.lam) + 1
    t10 = -2 * (lamp1 * sc["k"] * sc["kinv"]).sum()
    t12 = 2 * (lamp1 * sc["p_hat"]).sum()
    assert abs(t10) == 0 and abs(t12) == 0


# --------------------------------------------------------- separated operator


def test_separated_operator_elliptic_coefficients():
    m = make_model([1.0, cmath.exp(2.1j)], [-0.5, -0.5], mu=[1.0, -1.0],
                   q=Q, mu0=0.3)
    D = separated_operator(m)
    p = EllipticParams(q=Q)
    w = 0.8 * cmath.exp(0.7j)
    snap = eval_terms(D, (w,))
    assert abs(snap[(2,)] - 2 * w**2) < 1e-12
    assert abs(snap[(1,)] - 2 * w) < 1e-12
    want = -0.3 - sum(mu * theta_log_deriv(w / za, p)
                      + 2 * la * (la + 1) * weierstrass_p(w / za, p)
                      for za, la, mu in zip(m.z, m.lam, m.mu))
    assert abs(snap[(0,)] - want) < 1e-12


def test_separated_operator_needs_mu():
    with pytest.raises(SovError):
        separated_operator(torus_model(2))
