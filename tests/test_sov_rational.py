import cmath
import dataclasses

import numpy as np
import pytest

import gcsov.sov as sov_mod
from gcsov.gaudin import make_model, mu_residuals
from gcsov.operators import (
    Monomial,
    eval_terms,
    fd_jacobian,
    op_apply,
    op_commutator,
    op_compose,
    op_equal,
)
from gcsov.sov import (
    ChartBoundaryError,
    SeparatedCoordinates,
    SovError,
    UVector,
    build_hat_operators_rational,
    incidence_check,
    make_uvector,
    radon_generators,
    radon_hamiltonians_rational,
    rational_u_to_w,
    rational_w_to_u,
    separated_operator,
    sov_jacobian_rational,
    verify_rational_separation,
)


def three_site():
    return make_model([0.0, 1.0, 2.0], [-0.5, -0.5, -0.5])


def random_model(n, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n) * spread + 1j * rng.normal(size=n) * spread
    lam = rng.normal(size=n) + 0.25
    return make_model(z, lam)


def random_u(m, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=m.N) + 1j * rng.normal(size=m.N)
    return u - u.mean()


# --------------------------------------------------------------------- vectors


def test_make_uvector_projects_to_zero_sum():
    u = make_uvector([1.0, 2.0, 3.0])
    assert abs(u.total) < 1e-15
    raw = make_uvector([1.0, 2.0, 3.0], project=False)
    assert raw.total == 6.0


def test_incidence_pairing_examples():
    assert incidence_check([1.0, -1.0], [1.0, 1.0])
    assert not incidence_check([1.0, -1.0], [1.0, 2.0])
    with pytest.raises(SovError):
        incidence_check([1.0], [1.0, 2.0])


# ------------------------------------------------------------------ the chart


def test_forward_chart_frozen_example():
    # numerator of u_a/(z - z_a) weights: P = -3 z + 2 for this u
    s = rational_u_to_w([1.0, 1.0, -2.0], three_site())
    assert s.case == "rational"
    assert abs(s.C + 3.0) < 1e-12
    assert len(s.w) == 1 and abs(s.w[0] - 2.0 / 3.0) < 1e-12
    assert s.inf_mult == 0 and s.flags == ()


def test_forward_chart_two_sites_has_no_roots():
    s = rational_u_to_w([1.0, -1.0], make_model([0.0, 1.0], [-0.5, -0.5]))
    assert abs(s.C + 1.0) < 1e-12
    assert s.w == ()


def test_inverse_chart_frozen_example():
    s = SeparatedCoordinates("rational", -3.0, (2.0 / 3.0,))
    u = rational_w_to_u(s, three_site())
    assert np.allclose(u.u, [1.0, 1.0, -2.0])


def test_chart_requires_zero_sum():
    with pytest.raises(SovError, match="u_sum_rule"):
        rational_u_to_w([1.0, 1.0, 1.0], three_site())


def test_chart_rejects_zero_vector():
    with pytest.raises(SovError):
        rational_u_to_w([0.0, 0.0, 0.0], three_site())


@pytest.mark.parametrize("n,seed", [(3, 0), (4, 1), (5, 2), (6, 3)])
def test_roundtrip_u_w_u(n, seed):
    m = random_model(n, seed)
    u = random_u(m, seed + 10)
    s = rational_u_to_w(u, m, strict=False)
    back = np.array(rational_w_to_u(s, m).u)
    assert np.abs(back - u).max() < 1e-8 * np.abs(u).max()


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_roundtrip_w_u_w(seed):
    m = random_model(5, seed)
    rng = np.random.default_rng(seed + 50)
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    s = SeparatedCoordinates("rational", complex(rng.normal(), rng.normal()), tuple(w))
    u = rational_w_to_u(s, m)
    s2 = rational_u_to_w(u.u, m, strict=False)
    assert abs(s2.C - s.C) < 1e-8 * abs(s.C)
    got = sorted(s2.w, key=lambda v: (v.real, v.imag))
    want = sorted(s.w, key=lambda v: (v.real, v.imag))
    assert np.abs(np.array(got) - np.array(want)).max() < 1e-7


def test_permuting_roots_leaves_u_invariant():
    m = random_model(5, 9)
    rng = np.random.default_rng(99)
    w = tuple(rng.normal(size=3) + 1j * rng.normal(size=3))
    s = SeparatedCoordinates("rational", 1.7 - 0.3j, w)
    s_perm = SeparatedCoordinates("rational", 1.7 - 0.3j, (w[2], w[0], w[1]))
    assert np.allclose(rational_w_to_u(s, m).u, rational_w_to_u(s_perm, m).u)


def test_degenerate_configurations_flag_or_raise():
    m = three_site()
    # u with a root at a site: pick w = z_2 = 1, reconstruct u, go forward
    s = SeparatedCoordinates("rational", 2.0, (1.0,))
    u = rational_w_to_u(s, m)
    with pytest.raises(ChartBoundaryError):
        rational_u_to_w(u.u, m, strict=True)
    s2 = rational_u_to_w(u.u, m, strict=False)
    assert "root_at_site" in s2.flags
    # degree drop below N-2 needs sum u_a z_a = 0 on top of sum u_a = 0
    m4 = make_model([0.0, 1.0, 2.0, 4.0], [-0.5, -0.5, -0.5, -0.5])
    s3 = rational_u_to_w([1.0, -2.0, 1.0, 0.0], m4, strict=False)
    assert s3.inf_mult == 1 and "root_at_infinity" in s3.flags
    assert len(s3.w) == 1


# ------------------------------------------------------------------- jacobian


@pytest.mark.parametrize("n,seed", [(4, 21), (5, 22)])
def test_jacobian_matches_finite_differences(n, seed):
    m = random_model(n, seed)
    u = random_u(m, seed)
    cmap = sov_jacobian_rational(u, m)
    J = np.asarray(cmap.jacobian(tuple(u)))
    Jfd = fd_jacobian(lambda pt: cmap.forward(pt), tuple(u), h=1e-6)
    assert np.abs(J - Jfd).max() < 1e-6


def test_jacobian_inverse_is_section():
    m = random_model(4, 23)
    u = random_u(m, 23)
    cmap = sov_jacobian_rational(u, m)
    cw = cmap.forward(tuple(u))
    J = np.asarray(cmap.jacobian(tuple(u)))
    Ji = np.asarray(cmap.inverse_jacobian(cw))
    # chart then residues: identity on (C, w); the u-side projects onto sum u = 0
    assert np.abs(J @ Ji - np.eye(len(cw))).max() < 1e-10
    assert np.abs(np.array(cmap.inverse(cw)) - u).max() < 1e-10


def test_scaling_field_is_c_dc():
    # u -> s u scales C and fixes every root, so sum_a u_a d/du_a = C d/dC
    m = random_model(5, 24)
    u = random_u(m, 24)
    cmap = sov_jacobian_rational(u, m)
    J = np.asarray(cmap.jacobian(tuple(u)))
    cw = cmap.forward(tuple(u))
    assert abs(J[0] @ u - cw[0]) < 1e-10
    assert np.abs(J[1:] @ u).max() < 1e-10


@pytest.mark.parametrize("offset", [0.0, 1e-3])
def test_root_tracking_raises_on_a_lost_zero(offset):
    # here P(x) = 1.25 x^2 - 0.25 x - 10, with zeros 2.930 and -2.730 and
    # P'(0.1) = 0: Newton from 0.1 divides by zero, and from 0.101 it runs
    # to 2.930, which the base root 3.0 tracks too, so -2.730 is lost
    m = make_model([0.0, 1.0, 2.5, 4.0], [-0.5, -0.5, -1.0, -1.0])
    u = (1.0, -2.0, 0.5, 0.5)
    good = sov_mod._RationalFrame(m, [-2.7, 3.0]).roots(u)
    assert np.abs(good - [-2.7301943, 2.9301943]).max() < 1e-6
    with np.errstate(all="ignore"), pytest.raises(SovError, match="lost a zero"):
        sov_mod._RationalFrame(m, [0.1 + offset, 3.0]).roots(u)


# ------------------------------------------------------- transformed generators


@pytest.mark.parametrize("lam", [-0.5, 1.25, 0.0])
def test_radon_generators_sl2_relations(lam):
    e, f, h = radon_generators(lam, 1, 3)
    assert op_equal(op_commutator(h, e), 2.0 * e, seed=1).passed
    assert op_equal(op_commutator(h, f), -2.0 * f, seed=2).passed
    assert op_equal(op_commutator(e, f), h, seed=3).passed


def test_radon_h_eigenfunctions():
    # h u^n = -2 (n + lam + 1) u^n
    lam = 0.75
    _, _, h = radon_generators(lam, 0, 2)
    for n in range(4):
        mono = Monomial((n, 0))
        pt = (1.3 + 0.2j, 0.7)
        got = op_apply(h, mono, pt)
        assert abs(got - (-2 * (n + lam + 1)) * mono(pt)) < 1e-12


def test_radon_casimir_is_constant():
    # e f + f e + h^2/2 = 2 lam (lam + 1) on the transformed side
    lam = -0.5
    e, f, h = radon_generators(lam, 0, 1)
    cas = op_compose(e, f) + op_compose(f, e) + 0.5 * op_compose(h, h)
    pts = [(0.9 + 0.1j,), (1.4 - 0.7j,), (0.3 + 0.6j,)]
    for pt in pts:
        snap = eval_terms(cas, pt)
        for I, v in snap.items():
            want = 2 * lam * (lam + 1) if I == (0,) else 0.0
            assert abs(v - want) < 1e-12


def test_transformed_hamiltonians_sum_to_zero():
    m = random_model(3, 31)
    Ls = radon_hamiltonians_rational(m)
    total = Ls[0] + Ls[1] + Ls[2]
    pts = [tuple(np.random.default_rng(s).normal(size=3) + 0.5) for s in range(3)]
    for pt in pts:
        for v in eval_terms(total, pt).values():
            assert abs(v) < 1e-10


def test_transformed_hamiltonian_generating_identity():
    # sum_a (Lbar_a + 2 lam_a (lam_a + 1)/(w - z_a)) / (w - z_a) equals the
    # quadratic form of the w-weighted generators, coefficient by coefficient
    m = random_model(3, 32)
    w = 0.8 + 0.4j
    c = [1.0 / (w - za) for za in m.z]
    Ls = radon_hamiltonians_rational(m)
    lhs = None
    for a in range(m.N):
        term = c[a] * Ls[a]
        lhs = term if lhs is None else lhs + term
    gens = [radon_generators(la, a, m.N) for a, la in enumerate(m.lam)]
    eh = fh = hh = None
    for a in range(m.N):
        e, f, h = gens[a]
        eh = c[a] * e if eh is None else eh + c[a] * e
        fh = c[a] * f if fh is None else fh + c[a] * f
        hh = c[a] * h if hh is None else hh + c[a] * h
    rhs = op_compose(eh, fh) + op_compose(fh, eh) + 0.5 * op_compose(hh, hh)
    scal = sum(2 * la * (la + 1) * ca**2 for la, ca in zip(m.lam, c))
    rng = np.random.default_rng(7)
    for _ in range(4):
        pt = tuple(rng.normal(size=3) + 1j * rng.normal(size=3))
        for mono in [Monomial((0, 0, 0)), Monomial((1, 0, 2)), Monomial((2, 1, 0))]:
            got = op_apply(lhs, mono, pt) + scal * mono(pt)
            want = op_apply(rhs, mono, pt)
            assert abs(got - want) < 1e-9 * (1 + abs(want))


# ------------------------------------------------------------- hatted operators


def locus_point(m, seed):
    rng = np.random.default_rng(seed)
    while True:
        u = rng.normal(size=m.N) + 1j * rng.normal(size=m.N)
        u -= u.mean()
        try:
            s = rational_u_to_w(u, m, strict=True)
        except ChartBoundaryError:
            continue
        if min(abs(wi - za) for wi in s.w for za in m.z) > 0.2:
            return u, s


def test_fhat_vanishes_on_locus():
    m = random_model(4, 41)
    m = make_model(m.z, m.lam, mu=_admissible_mu(m, 41))
    u, s = locus_point(m, 41)
    for i in range(len(s.w)):
        _, fhat, _, _ = build_hat_operators_rational(m, s, i)
        mono = Monomial((1, 0, 2, 0))
        assert abs(op_apply(fhat, mono, tuple(u))) < 1e-10


def _admissible_mu(m, seed):
    from gcsov.sov import _synth_mu_rational

    return _synth_mu_rational(m, seed)


def test_hat_operator_quadratic_identity_at_locus():
    m = random_model(4, 42)
    m = make_model(m.z, m.lam, mu=_admissible_mu(m, 42))
    assert np.abs(mu_residuals(m.mu, m.z, m.lam)).max() < 1e-12
    u, s = locus_point(m, 42)
    i = 1
    ehat, fhat, hhat, Lhat = build_hat_operators_rational(m, s, i)
    B = op_compose(ehat, fhat) + op_compose(fhat, ehat) + 0.5 * op_compose(hhat, hhat)
    c = np.array([1.0 / (s.w[i] - za) for za in m.z])
    lam = np.array(m.lam)
    scal = (np.array(m.mu) * c).sum() + (2 * lam * (lam + 1) * c**2).sum()
    pt = tuple(u)
    for mono in [Monomial((0, 0, 0, 0)), Monomial((2, 0, 1, 0)), Monomial((0, 1, 0, 1))]:
        got = op_apply(Lhat, mono, pt)
        want = op_apply(B, mono, pt) - scal * mono(pt)
        assert abs(got - want) < 1e-9 * (1 + abs(want))


def test_separated_operator_rational_shape():
    m = make_model([0.0, 1.0], [-0.5, -0.5], mu=[3.0, -3.0])
    D = separated_operator(m)
    assert D.order == 2
    pt = (0.4 + 0.1j,)
    snap = eval_terms(D, pt)
    assert abs(snap[(2,)] - 2.0) < 1e-15
    w = pt[0]
    want = -sum(mu / (w - za) + 2 * la * (la - 1) / (w - za) ** 2
                for za, la, mu in zip(m.z, m.lam, m.mu))
    assert abs(snap[(0,)] - want) < 1e-12


# ------------------------------------------------------------ certified chain


def test_verify_rational_separation_passes_and_controls_fire():
    m = random_model(3, 51)
    reports = verify_rational_separation(m, points=6, tol=1e-8, seed=51)
    by_label = {r.label: r for r in reports}
    for tag in ("a-quadratic-identity", "b-locus-annihilation",
                "c-chart-field", "d-separated-form"):
        r = by_label[f"rational-{tag}"]
        assert r.passed, (r.label, r.max_residual)
        assert not r.expect_failure
    for tag in ("gauge-sign", "casimir-variant"):
        r = by_label[f"rational-control-{tag}"]
        assert r.expect_failure and r.passed, (r.label, r.max_residual)
        assert r.max_residual > r.tol


def test_verify_rational_separation_larger_models():
    for n, seed in [(4, 52), (5, 53)]:
        m = random_model(n, seed)
        reports = verify_rational_separation(m, points=3, tol=1e-8, seed=seed,
                                             include_controls=False)
        assert all(r.passed for r in reports), [
            (r.label, r.max_residual) for r in reports]


def test_rational_chain_computes_each_chart_jacobian_and_root_gradient_once(monkeypatch):
    # machine-independent cost check: check (d) and its two planted controls
    # ask the chart for its Jacobian once per distinct quadrature node, all
    # three together, each frame computes dw_i/du
    # once per (point, root), and the frame the sampler builds for its basin
    # check also serves the hatted operators and the chart pullback, so each
    # distinct point of a run is Newton-solved once
    jac_calls, nodes = [], set()
    chart = sov_mod._rational_chart

    def spy_chart(m_, s, frame):
        cmap = chart(m_, s, frame)

        def inverse_jacobian(cw_pt):
            jac_calls.append(cw_pt)
            nodes.add((id(cmap), tuple(cw_pt)))
            return cmap.inverse_jacobian(cw_pt)

        return dataclasses.replace(cmap, inverse_jacobian=inverse_jacobian)

    # coeffs runs once per roots() miss and once per droot() miss; asked maps
    # each frame (kept alive, so ids stay unique) to the points it was asked
    asked, solves, droot_keys, coeff_calls = {}, [], set(), []
    frame_cls = sov_mod._RationalFrame
    roots, droot, coeffs = frame_cls.roots, frame_cls.droot, frame_cls.coeffs

    def spy_roots(self, pt):
        if tuple(pt) not in self._cache:
            solves.append(tuple(pt))
        asked.setdefault(self, set()).add(tuple(pt))
        return roots(self, pt)

    def spy_droot(self, pt, i):
        droot_keys.add((self, tuple(pt), i))
        return droot(self, pt, i)

    def spy_coeffs(self, uv):
        coeff_calls.append(1)
        return coeffs(self, uv)

    monkeypatch.setattr(sov_mod, "_rational_chart", spy_chart)
    monkeypatch.setattr(frame_cls, "roots", spy_roots)
    monkeypatch.setattr(frame_cls, "droot", spy_droot)
    monkeypatch.setattr(frame_cls, "coeffs", spy_coeffs)
    for m, points, seed in ((random_model(4, 52), 1, 52), (random_model(5, 53), 4, 53)):
        for log in (jac_calls, nodes, asked, solves, droot_keys, coeff_calls):
            log.clear()
        reports = verify_rational_separation(m, points=points, tol=1e-8, seed=seed,
                                             include_controls=True)
        assert len(reports) == 6 and all(r.passed for r in reports)
        # 16-node circles in each of the N u-directions around each point
        assert len(nodes) > points * m.N * 16
        assert len(jac_calls) == len(nodes)
        assert len(droot_keys) > m.N
        assert len(coeff_calls) == len(solves) + len(droot_keys)
        assert len(solves) == len(set(solves))
        # a candidate the sampler rejects solves its own base point only, so
        # the frames probed anywhere else are the ones handed on, one per point
        assert sum(len(pts) > 1 for pts in asked.values()) == points
