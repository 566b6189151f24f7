import cmath

import numpy as np
import pytest

from gcsov.gaudin import (
    GaudinModelError,
    RepresentationError,
    check_linear_relations,
    current_operators,
    elliptic_hamiltonians,
    elliptic_site_operators,
    elliptic_vars,
    joint_spectrum,
    make_model,
    model_violations,
    rational_hamiltonians,
    rational_matrix_reports,
    restricted_commutativity_report,
    sl2_rep,
    site_matrices,
    sl2_pairing,
    tensor_dim,
    validate_model,
    weight_restricted_monomials,
)
from gcsov.operators import Monomial, eval_terms, op_apply, op_commutator, op_equal
from gcsov.special_functions import EllipticParams, normalized_lame_kernel, theta_log_deriv


def comm(a, b):
    return a @ b - b @ a


# ---------------------------------------------------------------- sl2 modules


def test_sl2_rep_trivial():
    r = sl2_rep(0.0)
    assert r.dim == 1
    assert not r.e.any() and not r.f.any() and not r.h.any()


@pytest.mark.parametrize("lam", [-0.5, -1.0, -1.5, -3.0])
def test_sl2_relations_and_casimir(lam):
    r = sl2_rep(lam)
    assert r.dim == int(-2 * lam) + 1
    assert np.allclose(comm(r.h, r.e), 2 * r.e)
    assert np.allclose(comm(r.h, r.f), -2 * r.f)
    assert np.allclose(comm(r.e, r.f), r.h)
    cas = r.e @ r.f + r.f @ r.e + 0.5 * r.h @ r.h
    assert np.allclose(cas, 2 * lam * (lam - 1) * np.eye(r.dim))


def test_sl2_spin_half_matrices():
    r = sl2_rep(-0.5)
    assert np.allclose(r.h, np.diag([-1.0, 1.0]))
    assert r.e[1, 0] == -1.0 and r.f[0, 1] == -1.0


def test_sl2_rejects_bad_weight():
    with pytest.raises(RepresentationError):
        sl2_rep(0.3)
    with pytest.raises(RepresentationError):
        sl2_rep(1.0)


# ------------------------------------------------------------------ validation


def test_model_violations_names():
    m = make_model([0, 0], [-0.5, -0.5])
    assert "sites_not_distinct" in model_violations(m)
    m2 = make_model([0, 1], [-0.5, -0.5], mu=[1, 1])
    v = model_violations(m2)
    assert "mu_sum_rule" in v and "mu_moment1_rule" in v
    m3 = make_model([0.9, 1.1], [-0.5, -0.5], q=1.5)
    assert "bad_nome" in model_violations(m3)
    m4 = make_model([1.0, 0.05 * 1.0], [-0.5, -0.5], q=0.05)
    assert "sites_not_distinct_mod_q" in model_violations(m4)
    validate_model(make_model([0, 1], [-0.5, -0.5], mu=[3, -3]))
    nan, inf = float("nan"), float("inf")
    m5 = make_model([0, 1, inf], [-0.5, -0.5, -1])
    assert model_violations(m5) == ["non_finite"]  # not sites_not_distinct
    m6 = make_model([0, 1, 2], [-0.5, -0.5, -1], mu=[nan, 0, 0])
    assert model_violations(m6) == ["non_finite"]  # NaN passes every mu rule
    m7 = make_model([1, 0.5j], [1, 1], q=complex(0.1, nan))
    assert model_violations(m7) == ["non_finite"]


def test_singlet_mu_constraints_frozen_example():
    # lam=(-1/2,-1/2), z=(0,1): 2*lam*(lam-1) = 3/2 each
    m = make_model([0, 1], [-0.5, -0.5], mu=[3, -3])
    assert model_violations(m) == []


# ------------------------------------------------------------ rational matrices


def test_sum_of_hamiltonians_vanishes():
    m = make_model([0, 1], [-0.5, -0.5])
    Ls = rational_hamiltonians(m)
    assert np.abs(sum(Ls)).max() < 1e-14


def _ref_rational_hamiltonians(m):
    # the embedded-site matmul build, kept as the reference for the pairwise one
    es, fs, hs = site_matrices(m)
    Ls = []
    for a in range(m.N):
        L = np.zeros_like(es[0])
        for b in range(m.N):
            if b != a:
                omega = es[a] @ fs[b] + fs[a] @ es[b] + 0.5 * (hs[a] @ hs[b])
                L += 2.0 * omega / (m.z[a] - m.z[b])
        Ls.append(L)
    return Ls


@pytest.mark.parametrize("lam", [(-0.5,) * 8, (-0.5, -1.0, -0.5, -1.0, -1.0, -0.5)])
def test_pairwise_hamiltonians_are_bitwise_the_matmul_build(lam):
    rng = np.random.default_rng(4)
    z = np.cumsum(rng.uniform(0.8, 1.6, len(lam))) + 1j * rng.uniform(-0.3, 0.3, len(lam))
    m = make_model(tuple(z), lam)
    got, ref = rational_hamiltonians(m), _ref_rational_hamiltonians(m)
    assert len(got) == len(ref) == m.N
    for L, R in zip(got, ref):
        assert L.shape == R.shape == (tensor_dim(m),) * 2
        assert L.tobytes() == R.tobytes()


def test_two_site_spectrum_frozen_tuples():
    m = make_model([0, 1], [-0.5, -0.5])
    Ls = rational_hamiltonians(m)
    vals = np.linalg.eigvals(Ls[0])
    vals = np.sort_complex(np.round(vals, 10))
    # L_1 on the 4-dim product: singlet 3, triplet -1 (x3)
    assert np.allclose(vals, [-1, -1, -1, 3])
    s = joint_spectrum(m)
    assert len(s.eigen_tuples) == 1
    mu = s.eigen_tuples[0]
    assert mu[0] == pytest.approx(3.0, abs=1e-10)
    assert mu[1] == pytest.approx(-3.0, abs=1e-10)
    assert max(s.residuals) < 1e-10
    assert not s.ill_conditioned


def test_triplet_weight_zero_eigenvalue():
    m = make_model([0, 1], [-0.5, -0.5])
    L1 = rational_hamiltonians(m)[0]
    es, fs, hs = site_matrices(m)
    H = sum(hs)
    # weight-zero, h-annihilated? no: the weight-0 triplet vector (1,1)/sqrt2 on
    # the middle block; check L1 eigenvalue -1 there
    v = np.zeros(4, dtype=complex)
    v[1] = v[2] = 1 / np.sqrt(2)
    assert np.abs(H @ v).max() < 1e-14
    assert np.linalg.norm(L1 @ v - (-1.0) * v) < 1e-12


@pytest.mark.parametrize("lam", [(-0.5,) * 8, (-0.5, -1.0, -0.5, -1.0, -0.5, -0.5)])
def test_joint_spectrum_matches_the_scipy_eig_route(lam, monkeypatch):
    # independent LAPACK route: the same pipeline with scipy.linalg.eig
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(5)
    z = np.cumsum(rng.uniform(0.8, 1.6, len(lam))) + 1j * rng.uniform(-0.3, 0.3, len(lam))
    m = make_model(tuple(z), lam)
    got = joint_spectrum(m)
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "eig", scipy_linalg.eig)
        ref = joint_spectrum(m)
    assert len(got.eigen_tuples) == len(ref.eigen_tuples) > 1
    scale = max(abs(v) for mu in ref.eigen_tuples for v in mu)
    for mu, mu_ref in zip(got.eigen_tuples, ref.eigen_tuples):
        assert max(abs(a - b) for a, b in zip(mu, mu_ref)) <= 1e-12 * scale
    assert max(got.residuals) < 1e-10
    for r, r_ref in zip(got.residuals, ref.residuals):
        assert abs(r - r_ref) <= 1e-12 * scale


def test_three_site_singlet_sector_empty():
    m = make_model([0, 1, 2], [-0.5, -0.5, -0.5])
    s = joint_spectrum(m)
    assert s.eigen_tuples == ()


def test_four_site_singlets_and_relations():
    m = make_model([0, 1, 2, 3], [-0.5, -0.5, -0.5, -0.5])
    s = joint_spectrum(m)
    assert len(s.eigen_tuples) == 2
    assert max(s.residuals) < 1e-10
    rep = check_linear_relations(s, m)
    assert rep.passed, rep.max_residual


@pytest.mark.parametrize("z,lam", [
    ((0, 1), (-0.5, -0.5)),
    ((0, 1, 2), (-0.5, -1.0, -0.5)),
    ((0.3, 1.1, 2.2, -0.7), (-0.5, -0.5, -1.0, -0.5)),
])
def test_matrix_identity_reports(z, lam):
    m = make_model(z, lam)
    for rep in rational_matrix_reports(m):
        assert rep.passed, (rep.label, rep.max_residual)


def test_dimension_grows_as_expected():
    m = make_model([0, 1, 2], [-0.5, -1.0, -1.5])
    assert tensor_dim(m) == 2 * 3 * 4


# ------------------------------------------------------------ elliptic currents


ELL = dict(q=0.05)


def ell_model(n=2, q=0.05, lam=None):
    z = [cmath.exp(2j * cmath.pi * (a + 0.31) / (n + 1.07)) for a in range(n)]
    lam = lam if lam is not None else [-0.5] * n
    return make_model(z, lam, q=q)


def direct_currents(m, z):
    return current_operators(m, z, elliptic_site_operators(m))


def direct_density(m, z):
    cur = direct_currents(m, z)
    return sl2_pairing(cur, cur)


def test_current_shapes_and_f_structure():
    m = ell_model()
    e_op, f_op, h_op = direct_currents(m, 0.77 + 0.31j)
    assert e_op.vars == ("tsq", "t_1", "t_2")
    # f(z) is order 1 with no tsq derivative
    assert f_op.order == 1
    assert all(I[0] == 0 for I in f_op.terms)
    # h has the 2 tsq d/dtsq term
    assert (1, 0, 0) in h_op.terms


def test_current_coefficients_match_kernels():
    m = ell_model()
    z = 0.77 + 0.31j
    p = EllipticParams(q=m.elliptic.q)
    e_op, f_op, h_op = direct_currents(m, z)
    pt = (0.52 + 0.40j, 1.1, 0.9)
    snap_f = eval_terms(f_op, pt)
    for a, za in enumerate(m.z):
        want = -normalized_lame_kernel(pt[0], z / za, p)
        assert snap_f[(0, 1, 0) if a == 0 else (0, 0, 1)] == pytest.approx(want, rel=1e-12)
    snap_h = eval_terms(h_op, pt)
    assert snap_h[(1, 0, 0)] == pytest.approx(2 * pt[0], rel=1e-14)
    want0 = sum(2 * m.lam[a] * theta_log_deriv(z / za, p) for a, za in enumerate(m.z))
    assert snap_h[(0, 0, 0)] == pytest.approx(want0, rel=1e-12)


def test_site_commutator_reproduces_current_bracket():
    # [tau_a h^(a), kernel_a e^(a)] = 2 tau_a kernel_a e^(a) at fixed tsq
    m = ell_model()
    z = 1.21 + 0.2j
    p = EllipticParams(q=m.elliptic.q)
    sites = elliptic_site_operators(m)
    a = 0
    tau = theta_log_deriv(z / m.z[a], p)
    e_a, _, h_a = sites[a]
    got = op_commutator(tau * h_a, e_a)
    want = (2.0 * tau) * e_a
    rep = op_equal(got, want, seed=8, tol=1e-10)
    assert rep.passed


def test_density_on_constants_matches_hand_formula():
    m = ell_model()
    z = 0.9 * cmath.exp(0.7j)
    p = EllipticParams(q=m.elliptic.q)
    D = direct_density(m, z)
    assert D.order == 2
    pt = (0.47 + 0.33j, 1.2 + 0.1j, 0.8 - 0.2j)
    got = op_apply(D, Monomial((0, 0, 0)), pt)
    acc = 0.0
    w0 = 0.0
    for a, za in enumerate(m.z):
        ka = normalized_lame_kernel(1.0 / pt[0], z / za, p)
        kb = normalized_lame_kernel(pt[0], z / za, p)
        acc += -2.0 * m.lam[a] * ka * kb
        w0 += 2 * m.lam[a] * theta_log_deriv(z / za, p)
    want = acc + 0.5 * w0**2
    assert got == pytest.approx(want, rel=1e-11)


def test_kernel_coefficients_degenerate_to_closed_form():
    # q -> 0: coefficient of f at site a approaches the exact q=0 kernel
    z = 0.9 + 0.4j
    tsq = 0.5 + 0.3j
    za = 1.0 + 0.0j
    closed = -(1 - (z / za) * tsq) / ((1 - tsq) * (1 - z / za))
    for q, tol in [(1e-8, 1e-6), (1e-4, 5e-3)]:
        p = EllipticParams(q=q)
        got = normalized_lame_kernel(tsq, z / za, p)
        assert abs(got - closed) < tol
    # first-order-in-q convergence rate
    p4 = EllipticParams(q=1e-4)
    p5 = EllipticParams(q=1e-5)
    d4 = abs(normalized_lame_kernel(tsq, z / za, p4) - closed)
    d5 = abs(normalized_lame_kernel(tsq, z / za, p5) - closed)
    assert d5 < 0.2 * d4


def test_density_expansion_fit_is_consistent():
    m = ell_model()
    ham = elliptic_hamiltonians(m)
    assert ham.condition < 1e4
    pt = (0.61 + 0.22j, 1.05 + 0.1j, 0.93 - 0.07j)
    assert ham.fit_residual(pt) < 1e-9
    # reconstruct the density at a fresh z from the fitted pieces + knowns
    p = EllipticParams(q=m.elliptic.q)
    znew = 1.04 * cmath.exp(2.2j)
    D = direct_density(m, znew)
    snap = eval_terms(D, pt)
    recon = {}
    sol0 = eval_terms(ham.L0, pt)
    sols = [eval_terms(La, pt) for La in ham.L]
    jp = [eval_terms(op, pt) for op in ham._j_p]
    jt = [eval_terms(op, pt) for op in ham._j_tau2]
    from gcsov.special_functions import weierstrass_p

    for I in set(snap) | set(sol0):
        v = sol0.get(I, 0.0)
        for a, za in enumerate(m.z):
            tau = theta_log_deriv(znew / za, p)
            v += tau * sols[a].get(I, 0.0)
            v += weierstrass_p(znew / za, p) * jp[a].get(I, 0.0)
            v += tau**2 * jt[a].get(I, 0.0)
        recon[I] = v
    for I in recon:
        assert recon[I] == pytest.approx(snap.get(I, 0.0), abs=1e-9), I


def test_sum_of_elliptic_hamiltonians_in_weight_ideal():
    m = ell_model()
    ham = elliptic_hamiltonians(m)
    total = ham.L[0]
    for La in ham.L[1:]:
        total = total + La
    pts = [(0.58 + 0.31j, 1.04 + 0.2j, 0.91 - 0.13j),
           (0.44 - 0.52j, 0.87 + 0.05j, 1.13 + 0.21j)]
    for mono in weight_restricted_monomials(m, count=3, seed=2):
        for pt in pts:
            assert abs(op_apply(total, mono, pt)) < 1e-8


def test_restricted_commutativity_of_densities():
    m = ell_model()
    rep = restricted_commutativity_report(m, pairs=1)
    assert rep.passed, rep.max_residual


def test_elliptic_requires_elliptic_data():
    m = make_model([0, 1], [-0.5, -0.5])
    with pytest.raises(GaudinModelError):
        direct_currents(m, 0.5)
