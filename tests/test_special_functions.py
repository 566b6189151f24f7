"""Tests for the theta family: frozen values, law sweeps, independent oracles."""

import cmath
import math

import numpy as np
import pytest

from gcsov.special_functions import (
    KERNEL_PRODUCT_SIGN,
    DomainError,
    EllipticParams,
    ParameterError,
    PoleError,
    _log_deriv_and_wp,
    canonicalize,
    euler_phi,
    lame_kernel,
    normalized_lame_kernel,
    theta,
    theta_log_deriv,
    weierstrass_p,
)


def rand_annulus(rng, p, margin=0.05, n=1):
    """Random points in the fundamental annulus, multiplicatively away from q^Z."""
    from gcsov.special_functions import _mult_dist_to_lattice

    out = []
    while len(out) < n:
        r = abs(p.q) ** rng.uniform(0.15, 0.85) if p.q != 0 else rng.uniform(0.3, 3.0)
        z = r * cmath.exp(2j * math.pi * rng.uniform(0, 1))
        if _mult_dist_to_lattice(z, p) > margin:
            out.append(z)
    return out if n > 1 else out[0]


# ---------------------------------------------------------------- frozen values


def test_theta_vanishes_at_one():
    p = EllipticParams(q=0.1)
    assert abs(theta(1.0, p)) < p.tol


def test_theta_q0_closed_form():
    p = EllipticParams(q=0.0)
    assert theta(2.0, p) == pytest.approx(-1.0)
    assert theta(0.3 + 0.4j, p) == pytest.approx(0.7 - 0.4j)


def test_log_deriv_q0_closed_form():
    p = EllipticParams(q=0.0)
    # theta = 1 - z  =>  thetadot/theta = -z/(1-z) = 2 at z = 2
    assert theta_log_deriv(2.0, p) == pytest.approx(2.0)


def test_weierstrass_q0_closed_form():
    p = EllipticParams(q=0.0)
    # p(ln z) = z/(1-z)^2 = 2 at z = 2
    assert weierstrass_p(2.0, p) == pytest.approx(2.0)


def test_kernel_q0_closed_form():
    p = EllipticParams(q=0.0)
    assert lame_kernel(2.0, 3.0, p) == pytest.approx(-2.5)


# ------------------------------------------------------------------- theta laws


def test_theta_quasi_periodicity_spec_point():
    p = EllipticParams(q=0.1)
    z = 0.3 + 0.1j
    assert abs(theta(p.q * z, p) + theta(z, p) / z) < p.tol


def test_theta_laws_random_sweep():
    rng = np.random.default_rng(7)
    for q in (0.1, 0.3, 0.2 + 0.1j, 0.05j):
        p = EllipticParams(q=q)
        for z in rand_annulus(rng, p, n=25):
            t = theta(z, p)
            assert abs(theta(q * z, p) + t / z) < 1e-10 * max(1.0, abs(t))
            assert abs(theta(1.0 / z, p) + t / z) < 1e-10 * max(1.0, abs(t))


def test_theta_unwinding_matches_raw_product():
    # independent check of the canonicalization: the raw truncated product,
    # evaluated without moving z, still converges for |z| < 1/|q|
    q = 0.3
    p = EllipticParams(q=q, trunc=220, tol=1e-12)
    for z in (2.5, -1.7 + 0.9j, 0.11 + 0.05j):
        raw = 1.0 - z
        qi = q
        for _ in range(1, p.trunc + 1):
            raw *= (1.0 - qi * z) * (1.0 - qi / z)
            qi *= q
        assert theta(z, p) == pytest.approx(raw, abs=1e-9, rel=1e-9)


def test_theta_triple_product_oracle():
    # Jacobi triple product: theta(z) * prod_{m>=1}(1-q^m)
    #   = sum_{n in Z} (-1)^n q^{n(n-1)/2} z^n
    # The sum side never touches the product code path.
    rng = np.random.default_rng(11)
    for q in (0.2, 0.1 + 0.2j):
        p = EllipticParams(q=q)
        euler = 1.0
        qm = q
        for _ in range(1, p.trunc + 1):
            euler *= 1.0 - qm
            qm *= q
        for z in rand_annulus(rng, p, n=10):
            s = 0.0
            for n in range(-40, 41):
                s += (-1) ** n * q ** ((n * (n - 1)) // 2) * z**n
            assert theta(z, p) * euler == pytest.approx(s, abs=1e-10, rel=1e-10)


def test_theta_zeros_exactly_on_lattice():
    p = EllipticParams(q=0.25)
    # on a radial-angular grid |theta| is small only near q^Z
    for r_exp in np.linspace(0.05, 0.95, 7):
        for ang in np.linspace(0.0, 2 * math.pi, 40, endpoint=False):
            z = abs(p.q) ** r_exp * cmath.exp(1j * ang)
            near_lattice = min(abs(z - 1.0), abs(z - p.q), abs(z / p.q - 1.0)) < 0.15
            if not near_lattice:
                assert abs(theta(z, p)) > 1e-3


# --------------------------------------------------------------- log derivative


def test_log_deriv_fd_oracle():
    # centered finite difference of ln theta in ln z
    p = EllipticParams(q=0.05)
    z = 0.5
    h = 1e-6
    fd = (cmath.log(theta(z * math.exp(h), p)) - cmath.log(theta(z * math.exp(-h), p))) / (2 * h)
    assert theta_log_deriv(z, p) == pytest.approx(fd, abs=1e-6)


def test_log_deriv_shift_and_inversion():
    rng = np.random.default_rng(13)
    for q in (0.1, 0.15 + 0.1j):
        p = EllipticParams(q=q)
        for z in rand_annulus(rng, p, n=25):
            v = theta_log_deriv(z, p)
            assert abs(theta_log_deriv(q * z, p) - (v - 1.0)) < 1e-9
            assert abs(theta_log_deriv(1.0 / z, p) - (1.0 - v)) < 1e-9


# ----------------------------------------------------------------- weierstrass p


def test_p_short_distance_asymptotics():
    # p(tau) ~ tau^{-2} near the origin of the curve
    p = EllipticParams(q=0.1)
    tau = 1e-3
    assert abs(weierstrass_p(cmath.exp(tau), p) * tau**2 - 1.0) < 1e-3


def test_p_invariance_sweep():
    rng = np.random.default_rng(17)
    p = EllipticParams(q=0.1)
    z0 = 0.4 + 0.2j
    assert abs(weierstrass_p(p.q * z0, p) - weierstrass_p(z0, p)) < p.tol * 100
    for q in (0.3, 0.07 + 0.21j):
        p = EllipticParams(q=q)
        for z in rand_annulus(rng, p, n=25):
            v = weierstrass_p(z, p)
            assert abs(weierstrass_p(q * z, p) - v) < 1e-9 * max(1.0, abs(v))
            assert abs(weierstrass_p(1.0 / z, p) - v) < 1e-9 * max(1.0, abs(v))


def test_p_is_minus_log_deriv_dot():
    # independent finite-difference route: p(ln z) = -z d/dz [thetadot/theta]
    p = EllipticParams(q=0.2)
    for z in (0.5 + 0.3j, -0.4 + 0.25j):
        h = 1e-5
        fd = (theta_log_deriv(z * math.exp(h), p) - theta_log_deriv(z * math.exp(-h), p)) / (2 * h)
        assert weierstrass_p(z, p) == pytest.approx(-fd, abs=1e-7)


# ----------------------------------------------------------------------- kernel


def test_kernel_quasi_periodicity_in_w():
    rng = np.random.default_rng(19)
    p = EllipticParams(q=0.15)
    for _ in range(10):
        x, w = rand_annulus(rng, p, n=2)
        ratio = lame_kernel(x, p.q * w, p) / lame_kernel(x, w, p)
        assert ratio == pytest.approx(1.0 / x, abs=1e-9)


def test_kernel_symmetry():
    p = EllipticParams(q=0.1 + 0.05j)
    x, w = 0.5 + 0.2j, -0.6 + 0.1j
    assert lame_kernel(x, w, p) == pytest.approx(lame_kernel(w, x, p))


def test_kernel_product_sign_oracle():
    # Determines the global sign sigma in the exact product law
    #   K(x, w) K(x^{-1}, w) = sigma * (p(ln x) - p(ln w)) / phi(q)^4
    # by series evaluation.  sigma is the q -> 0 limit of the measured ratio
    # (phi -> 1); at finite q the measured ratio is sigma/phi^4, never a bare
    # sign: at q = 1e-3 it is -1.00401..., which is -1/phi^4 to 10 digits.
    sigmas = []
    for qs in (1e-3, 1e-5, 1e-7):
        p = EllipticParams(q=qs)
        x, w = 0.7, 0.4 + 0.1j
        lhs = lame_kernel(x, w, p) * lame_kernel(1.0 / x, w, p)
        rhs = weierstrass_p(x, p) - weierstrass_p(w, p)
        sigmas.append(lhs / rhs * euler_phi(p) ** 4)
    for s, tolerance in zip(sigmas, (1e-6, 1e-10, 1e-12)):
        assert s == pytest.approx(-1.0, abs=tolerance)
    # limit without the phi correction: ratio at q=1e-3 visibly != -1
    p = EllipticParams(q=1e-3)
    raw = (lame_kernel(0.7, 0.4 + 0.1j, p) * lame_kernel(1 / 0.7, 0.4 + 0.1j, p)
           / (weierstrass_p(0.7, p) - weierstrass_p(0.4 + 0.1j, p)))
    assert abs(raw + 1.0) > 1e-3
    assert raw == pytest.approx(-1.0 / euler_phi(p) ** 4, rel=1e-10)
    assert KERNEL_PRODUCT_SIGN == -1

    rng = np.random.default_rng(23)
    count = 0
    while count < 120:
        q = rng.uniform(0.02, 0.5) * cmath.exp(2j * math.pi * rng.uniform(0, 1))
        p = EllipticParams(q=q)
        x, w = rand_annulus(rng, p, n=2)
        if abs(weierstrass_p(x, p) - weierstrass_p(w, p)) < 1e-3:
            continue
        lhs = lame_kernel(x, w, p) * lame_kernel(1.0 / x, w, p)
        rhs = (KERNEL_PRODUCT_SIGN * (weierstrass_p(x, p) - weierstrass_p(w, p))
               / euler_phi(p) ** 4)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))
        count += 1


def test_normalized_kernel_product_law():
    # Kn(x, w) Kn(x^{-1}, w) = p(ln w) - p(ln x) exactly, no phi factor.
    rng = np.random.default_rng(37)
    for q in (0.05, 0.1 + 0.05j, 0.3):
        p = EllipticParams(q=q)
        for _ in range(20):
            x, w = rand_annulus(rng, p, n=2)
            lhs = normalized_lame_kernel(x, w, p) * normalized_lame_kernel(1 / x, w, p)
            rhs = weierstrass_p(w, p) - weierstrass_p(x, p)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_euler_phi_and_theta_derivative_at_one():
    # theta(e^tau) ~ -phi^2 tau near tau = 0, hence the kernel normalization.
    for q in (0.0, 0.2, 0.1 + 0.07j):
        p = EllipticParams(q=q)
        phi = euler_phi(p)
        tau = 1e-6
        approx = theta(cmath.exp(tau), p) / tau
        assert approx == pytest.approx(-(phi**2), rel=1e-5)
    # Euler's pentagonal-number series as an independent oracle for phi.
    p = EllipticParams(q=0.35)
    series = sum(
        (-1) ** n * (p.q ** (n * (3 * n - 1) // 2) + p.q ** (n * (3 * n + 1) // 2))
        for n in range(1, 40)
    )
    assert euler_phi(p) == pytest.approx(1.0 + series, rel=1e-13)


# ------------------------------------------------------------------ q continuity


@pytest.mark.parametrize("q", [1e-2, 1e-4])
def test_q_to_zero_continuity(q):
    p = EllipticParams(q=q)
    p0 = EllipticParams(q=0.0)
    for z in (0.5, 2.0, 0.3 + 0.4j, -1.5 + 0.2j):
        assert abs(theta(z, p) - theta(z, p0)) < 20 * q
        assert abs(theta_log_deriv(z, p) - theta_log_deriv(z, p0)) < 20 * q
        assert abs(weierstrass_p(z, p) - weierstrass_p(z, p0)) < 20 * q
    assert abs(lame_kernel(2.0, 3.0, p) - (-2.5)) < 50 * q


# -------------------------------------------------------------- domain handling


def test_canonicalize_invariants():
    rng = np.random.default_rng(29)
    p = EllipticParams(q=0.2 + 0.1j)
    for _ in range(50):
        z = rng.uniform(1e-4, 50.0) * cmath.exp(2j * math.pi * rng.uniform(0, 1))
        a = canonicalize(z, p)
        assert abs(p.q) < abs(a.rep) <= 1.0 + 1e-12
        assert a.rep * p.q**a.n == pytest.approx(z, rel=1e-10)
        assert a.canonical == (a.n == 0)


def test_domain_and_parameter_errors():
    p = EllipticParams(q=0.1)
    with pytest.raises(DomainError):
        theta(0.0, p)
    with pytest.raises(DomainError):
        lame_kernel(0.0, 2.0, p)
    with pytest.raises(ParameterError):
        EllipticParams(q=1.0)
    with pytest.raises(ParameterError):
        EllipticParams(q=1.5j)
    with pytest.raises(ParameterError):
        EllipticParams(q=0.5, trunc=3, tol=1e-12)
    with pytest.raises(ParameterError):
        EllipticParams(q=0.1, tol=-1.0)


def test_pole_errors_multiplicative_window():
    p = EllipticParams(q=0.2)
    for bad in (1.0, p.q**3 * (1.0 + 1e-14)):
        with pytest.raises(PoleError):
            theta_log_deriv(bad, p)
        with pytest.raises(PoleError):
            weierstrass_p(bad, p)
        for flags in ((True, True), (True, False), (False, True)):
            with pytest.raises(PoleError):
                _log_deriv_and_wp(bad, p, *flags)
    with pytest.raises(PoleError):
        lame_kernel(p.q, 0.5, p)
    with pytest.raises(PoleError):
        lame_kernel(0.5, p.q**-2, p)
    # near but not inside the window evaluates to a large finite value
    assert abs(theta_log_deriv(p.q**3 * 1.001, p)) > 100.0


# ------------------------------------------------------------ fused tdot / wp


def _ref_log_deriv(z, p):
    # the separate thetadot/theta series, kept as the reference
    a = canonicalize(z, p)
    if p.q == 0:
        return -a.z / (1.0 - a.z)
    q, zt = p.q, a.rep
    out = -zt / (1.0 - zt)
    qi = q
    for _ in range(1, p.trunc + 1):
        out += -qi * zt / (1.0 - qi * zt) + (qi / zt) / (1.0 - qi / zt)
        qi *= q
    return out - a.n


def _ref_wp(z, p):
    # the separate wp series, kept as the reference
    a = canonicalize(z, p)
    if p.q == 0:
        return a.z / (1.0 - a.z) ** 2
    q, zt = p.q, a.rep
    out = zt / (1.0 - zt) ** 2
    qi = q
    for _ in range(1, p.trunc + 1):
        out += qi * zt / (1.0 - qi * zt) ** 2 + (qi / zt) / (1.0 - qi / zt) ** 2
        qi *= q
    return out


@pytest.mark.parametrize("q", [0.0, 0.05, 0.3, 0.2 + 0.1j, -0.45j, 0.6 * cmath.exp(2.0j)])
def test_fused_log_deriv_and_wp_is_bitwise_the_separate_series(q):
    from gcsov.special_functions import _mult_dist_to_lattice

    p = EllipticParams(q=q)
    rng = np.random.default_rng(41)
    pts = [r * cmath.exp(2j * math.pi * rng.uniform()) for r in rng.uniform(0.05, 8.0, 40)]
    if q != 0:
        # exactly on the annulus edges |z| = |q|^n, off the lattice in angle
        arg = cmath.phase(q)
        pts += [abs(q) ** n * cmath.exp(1j * (n * arg + phi))
                for n in (-2, -1, 0, 1, 2, 3) for phi in (0.7, 2.5, -1.9)]
    pts = [z for z in pts if _mult_dist_to_lattice(z, p) > 1e-3]
    assert len(pts) >= 30
    for z in pts:
        td, wp = _ref_log_deriv(z, p), _ref_wp(z, p)
        assert _log_deriv_and_wp(z, p) == (td, wp)
        assert _log_deriv_and_wp(z, p, log_deriv=False) == (None, wp)
        assert _log_deriv_and_wp(z, p, wp=False) == (td, None)
        assert theta_log_deriv(z, p) == td
        assert weierstrass_p(z, p) == wp
