"""One weighted sum builds the direct, barred and hatted current families.

The references below write the barred currents and the hatted family out by
hand, term by term, as test-only oracles: the weighted sums must carry the
same terms in the same order, and every coefficient and first partial must
agree to the last bit, so every report built on them keeps its bits.
"""

import cmath
import struct
from dataclasses import replace

import numpy as np
import pytest

from gcsov.gaudin import (
    GaudinModelError,
    _kernel_coef,
    _params,
    current_operators,
    elliptic_hamiltonians,
    elliptic_site_operators,
    make_model,
    sl2_pairing,
    validate_model,
)
from gcsov.operators import (
    ConstCoef,
    DifferentialOperator,
    FuncCoef,
    ProdCoef,
    SumCoef,
    axis_index,
    axis_monomial,
    coef_derivative,
    d_op,
    identity_op,
    make_op,
    op_compose,
    op_equal,
    zero_op,
)
from gcsov.special_functions import theta_log_deriv
from gcsov.sov import (
    _sample_locus_rational,
    _synth_mu_rational,
    _uvars,
    build_hat_operators_rational,
    radon_generators,
    radon_hamiltonians_elliptic,
)


# ------------------------------------------------------- test-only references


def ref_radon_current_operators(m, zpt):
    """The hand-written barred currents on (tsq, u_1..u_N)."""
    validate_model(m)
    p = _params(m)
    nv = m.N + 1
    vars_ = ("tsq",) + _uvars(m.N)
    zpt = complex(zpt)
    e_terms, f_parts, h_terms = {}, [], {}
    h0 = []
    for a, (za, la) in enumerate(zip(m.z, m.lam)):
        ratio = zpt / za
        aC = _kernel_coef(ratio, p, nv, inverse=True)
        bC = _kernel_coef(ratio, p, nv, inverse=False)
        tau = theta_log_deriv(ratio, p)
        iu = 1 + a
        ua = axis_monomial(nv, iu)
        e_terms[axis_index(nv, iu, 2)] = ProdCoef((ConstCoef(-1.0), aC, ua))
        e_terms[axis_index(nv, iu)] = ProdCoef((ConstCoef(-2 * (la + 1)), aC))
        f_parts.append(ProdCoef((bC, ua)))
        h_terms[axis_index(nv, iu)] = axis_monomial(nv, iu, scale=-2.0 * tau)
        h0.append(ConstCoef(-2 * tau * (la + 1)))
    h_terms[axis_index(nv, 0)] = axis_monomial(nv, 0, scale=2.0)
    h_terms[(0,) * nv] = SumCoef(tuple(h0))
    return (DifferentialOperator(vars_, e_terms),
            make_op(vars_, {(0,) * nv: SumCoef(tuple(f_parts))}),
            DifferentialOperator(vars_, h_terms))


def ref_hat_currents(m, frame, i):
    """The hand-written hatted ehat, fhat, hhat at root i of frame."""
    vars_ = _uvars(m.N)
    nv = m.N
    z = m.z

    def cfun(a):
        def val(pt):
            return 1.0 / (frame.roots(pt)[i] - z[a])

        partials = []
        for b in range(nv):
            def dval(pt, _a=a, _b=b):
                c = 1.0 / (frame.roots(pt)[i] - z[_a])
                return -c * c * frame.droot(pt, i)[_b]

            partials.append(FuncCoef(dval))
        return FuncCoef(val, partials=tuple(partials))

    cC = [cfun(a) for a in range(nv)]
    e_terms, f_parts, h_terms = {}, [], {}
    h0 = []
    for a, la in enumerate(m.lam):
        ua = axis_monomial(nv, a)
        e_terms[axis_index(nv, a, 2)] = ProdCoef((ConstCoef(-1.0), cC[a], ua))
        e_terms[axis_index(nv, a)] = ProdCoef((ConstCoef(-2 * (la + 1)), cC[a]))
        f_parts.append(ProdCoef((cC[a], ua)))
        h_terms[axis_index(nv, a)] = ProdCoef((ConstCoef(-2.0), cC[a], ua))
        h0.append(ProdCoef((ConstCoef(-2 * (la + 1)), cC[a])))
    h_terms[(0,) * nv] = SumCoef(tuple(h0))
    return (DifferentialOperator(vars_, e_terms),
            make_op(vars_, {(0,) * nv: SumCoef(tuple(f_parts))}),
            DifferentialOperator(vars_, h_terms))


# ------------------------------------------------------------------- helpers


def bits(v):
    v = complex(v)
    return struct.pack("<dd", v.real, v.imag)


def values(c, pts, nv):
    """Bit patterns of c and of its first partials at pts."""
    return [bits(f(pt)) for pt in pts
            for f in [c] + [coef_derivative(c, axis_index(nv, b)) for b in range(nv)]]


def assert_bit_equal(new, ref, pts, has_unit_spin):
    """Same terms in the same order, every value and first partial bit-equal.

    make_op drops the identically-zero terms -2(lam + 1) of a barred site
    generator at lam = -1, which the references kept; those keys may be
    missing from the new family, and only if the model has such a site.
    """
    nv = len(new.vars)
    assert new.vars == ref.vars
    shared = [I for I in ref.terms if I in new.terms]
    assert list(new.terms) == shared
    dropped = [I for I in ref.terms if I not in new.terms]
    assert has_unit_spin or not dropped
    for I in dropped:
        assert all(ref.terms[I](pt) == 0 for pt in pts), I
    for I in shared:
        assert values(new.terms[I], pts, nv) == values(ref.terms[I], pts, nv), I


# ------------------------------------------------------- bitwise references


@pytest.mark.parametrize("lam", [(-0.5, -1.5, -2.0, -0.5),
                                 (-0.5, -1.0, -1.5, -1.0, -2.0)])
def test_hatted_family_is_bit_identical_to_the_reference(lam):
    rng = np.random.default_rng(len(lam))
    z = np.cumsum(rng.uniform(0.8, 1.6, len(lam))) + 1j * rng.uniform(-0.3, 0.3, len(lam))
    m = make_model(z, lam)
    m = replace(m, mu=_synth_mu_rational(m, 3))
    uv, s, frame = _sample_locus_rational(m, rng)
    pts = [tuple(uv)] + [tuple(uv + 1e-3 * (rng.normal(size=m.N) + 1j * rng.normal(size=m.N)))
                         for _ in range(3)]
    for i in range(len(s.w)):
        got = build_hat_operators_rational(m, s, i, _frame=frame)[:3]
        for new, ref in zip(got, ref_hat_currents(m, frame, i)):
            assert_bit_equal(new, ref, pts, -1.0 in lam)


@pytest.mark.parametrize("lam", [(-0.5, 1.0, 0.75), (-1.0, -0.5, 2.0)])
def test_barred_currents_are_bit_identical_to_the_reference(lam):
    z = (1.0, 1.1 * cmath.exp(2.1j), 1.25 * cmath.exp(4.2j))
    m = make_model(z, lam, q=0.05)
    gens = [radon_generators(la, a, m.N, elliptic=True) for a, la in enumerate(m.lam)]
    rng = np.random.default_rng(7)
    pts = [(cmath.exp(complex(rng.uniform(-0.2, 0.2), rng.uniform(0.5, 2.5))),)
           + tuple(rng.normal(size=3) + 1j * rng.normal(size=3)) for _ in range(3)]
    tsq = axis_index(m.N + 1, 0)
    for zpt in (0.9 * cmath.exp(0.7j), 1.04 * cmath.exp(2.9j)):
        (e, f, h), (re, rf, rh) = current_operators(m, zpt, gens), \
            ref_radon_current_operators(m, zpt)
        assert_bit_equal(e, re, pts, -1.0 in lam)
        assert_bit_equal(f, rf, pts, -1.0 in lam)
        # h differs from the reference only in where 2 tsq d/dtsq sits: last,
        # after the constant term
        assert list(h.terms)[-1] == tsq
        order = [I for I in rh.terms if I != tsq] + [tsq]
        rh = DifferentialOperator(rh.vars, {I: rh.terms[I] for I in order})
        assert_bit_equal(h, rh, pts, -1.0 in lam)


# ------------------------------------------------------------------ spin map


def weyl_image(op, vars_):
    """t_a -> d/du_a, d/dt_a -> -u_a on an operator with monomial coefficients."""
    nv = len(vars_)
    minus_u = [make_op(vars_, {(0,) * nv: axis_monomial(nv, i, scale=-1.0)}) for i in range(nv)]
    out = zero_op(vars_)
    for I, c in op.terms.items():
        coeff, J = (c.value, (0,) * nv) if isinstance(c, ConstCoef) else (c.coeff, c.exponents)
        piece = identity_op(vars_)
        for i, j in enumerate(J):
            for _ in range(int(j)):
                piece = op_compose(piece, d_op(vars_, i))
        for i, k in enumerate(I):
            for _ in range(k):
                piece = op_compose(piece, minus_u[i])
        out = out + coeff * piece
    return out


@pytest.mark.parametrize("lam", [-0.5, -1.0, 1.25, 0.3])
def test_weyl_map_sends_the_direct_triple_at_lam_to_the_barred_at_minus_lam(lam):
    m = make_model([1.0, 1.7j], [lam, 0.5], q=0.05)
    direct = elliptic_site_operators(m)[0]
    barred = radon_generators(-lam, 0, m.N, elliptic=True)
    for g, gbar in zip(direct, barred):
        assert op_equal(weyl_image(g, gbar.vars), gbar, tol=1e-12).passed
    # the Casimirs 2 lam(lam-1) direct and 2 lam'(lam'+1) barred agree at lam' = -lam
    lam_b = -lam
    assert 2 * lam * (lam - 1) == pytest.approx(2 * lam_b * (lam_b + 1), abs=1e-15)
    for triple, vars_, cas in ((direct, direct[0].vars, 2 * lam * (lam - 1)),
                               (barred, barred[0].vars, 2 * lam_b * (lam_b + 1))):
        const = make_op(vars_, {(0,) * len(vars_): ConstCoef(cas)})
        assert op_equal(sl2_pairing(triple, triple), const, tol=1e-11).passed


def test_weyl_map_without_the_spin_flip_fails():
    # the unmapped spin: the image of the direct triple at lam is not the
    # barred triple at lam
    lam = 0.3
    m = make_model([1.0, 1.7j], [lam, 0.5], q=0.05)
    e, _, h = elliptic_site_operators(m)[0]
    ebar, _, hbar = radon_generators(lam, 0, m.N, elliptic=True)
    assert not op_equal(weyl_image(e, ebar.vars), ebar, tol=1e-6).passed
    assert not op_equal(weyl_image(h, hbar.vars), hbar, tol=1e-6).passed


# ----------------------------------------------------------- rational models


def test_a_rational_model_raises_from_either_realization():
    m = make_model([0.0, 1.0], [-0.5, -0.5])
    barred = [radon_generators(la, a, m.N, elliptic=True) for a, la in enumerate(m.lam)]
    for gens in (elliptic_site_operators(m), barred):
        with pytest.raises(GaudinModelError):
            current_operators(m, 0.5, gens)
    for fit in (elliptic_hamiltonians, radon_hamiltonians_elliptic):
        with pytest.raises(GaudinModelError):
            fit(m)
