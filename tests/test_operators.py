import cmath
import itertools
import math

import numpy as np
import pytest

from gcsov.operators import (
    CoordinateMap,
    ConstCoef,
    DifferentialOperator,
    FuncCoef,
    Monomial,
    OrderCapError,
    VariableMismatchError,
    cauchy_derivs,
    cauchy_partial,
    d_op,
    eval_terms,
    identity_op,
    make_op,
    monomials_up_to,
    op_apply,
    op_commutator,
    op_compose,
    op_equal,
    op_pullback,
    polydisk_derivs,
    zero_op,
)

# ---------------------------------------------------------------------------
# Independent oracle: operators with polynomial coefficients acting on
# polynomials, done entirely in exponent-dict arithmetic.  No shared code
# with the Coefficient machinery.
# ---------------------------------------------------------------------------


def p_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def p_diff(p, i):
    out = {}
    for e, c in p.items():
        if e[i] == 0:
            continue
        e2 = list(e)
        e2[i] -= 1
        out[tuple(e2)] = out.get(tuple(e2), 0.0) + c * e[i]
    return out


def p_eval(p, pt):
    out = 0.0 + 0.0j
    for e, c in p.items():
        term = c
        for x, k in zip(pt, e):
            term *= x ** k
        out += term
    return out


def sym_apply(op_terms, poly):
    """op_terms: dict dexp -> coefficient poly; apply to poly symbolically."""
    out = {}
    for dexp, coef in op_terms.items():
        g = poly
        for i, k in enumerate(dexp):
            for _ in range(k):
                g = p_diff(g, i)
        for e, c in p_mul(coef, g).items():
            out[e] = out.get(e, 0.0) + c
    return out


def to_operator(op_terms, varnames):
    terms = {}
    for dexp, coef in op_terms.items():
        parts = [Monomial(e, c) for e, c in coef.items()]
        if not parts:
            continue
        terms[dexp] = parts[0] if len(parts) == 1 else sum(parts[1:], parts[0])
    return make_op(varnames, terms)


def random_poly_op(rng, nvars, max_order, max_deg, nterms=3):
    out = {}
    for _ in range(nterms):
        dexp = tuple(int(v) for v in rng.multinomial(rng.integers(0, max_order + 1),
                                                     [1 / nvars] * nvars))
        mono = tuple(int(v) for v in rng.integers(0, max_deg + 1, nvars))
        coef = complex(rng.normal(), rng.normal())
        out.setdefault(dexp, {})
        out[dexp][mono] = out[dexp].get(mono, 0.0) + coef
    return out


def rand_point(rng, n):
    return tuple(complex(rng.normal(1.0, 0.4), rng.normal(0.0, 0.4)) for _ in range(n))


def test_compose_matches_symbolic_oracle():
    rng = np.random.default_rng(7)
    for trial in range(12):
        n = int(rng.integers(1, 4))
        A_sym = random_poly_op(rng, n, 2, 2)
        B_sym = random_poly_op(rng, n, 2, 2)
        names = tuple(f"x{i}" for i in range(n))
        A = to_operator(A_sym, names)
        B = to_operator(B_sym, names)
        AB = op_compose(A, B)
        for f_exp in [(0,) * n, tuple(int(v) for v in rng.integers(0, 4, n))]:
            f = {f_exp: 1.0}
            want = sym_apply(A_sym, sym_apply(B_sym, f))
            for _ in range(3):
                pt = rand_point(rng, n)
                got = op_apply(AB, Monomial(f_exp), pt)
                assert got == pytest.approx(p_eval(want, pt), abs=1e-9, rel=1e-9)


def test_commutator_jacobi_identity():
    rng = np.random.default_rng(11)
    names = ("x0", "x1")
    ops = [to_operator(random_poly_op(rng, 2, 1, 2), names) for _ in range(3)]
    A, B, C = ops
    lhs = (op_commutator(A, op_commutator(B, C))
           + op_commutator(B, op_commutator(C, A))
           + op_commutator(C, op_commutator(A, B)))
    rep = op_equal(lhs, zero_op(names), seed=3, tol=1e-8, label="jacobi")
    assert rep.passed, rep


def test_compose_example_u_dsq_after_u():
    # (u d^2) o (u .) = u^2 d^2 + 2 u d
    A = make_op(("u",), {(2,): Monomial((1,))})
    B = make_op(("u",), {(0,): Monomial((1,))})
    want = make_op(("u",), {(2,): Monomial((2,)), (1,): Monomial((1,), 2.0)})
    rep = op_equal(op_compose(A, B), want, seed=1, tol=1e-10)
    assert rep.passed, rep


def test_commutator_d_with_x_is_one():
    A = d_op(("x",), 0)
    X = make_op(("x",), {(0,): Monomial((1,))})
    rep = op_equal(op_commutator(A, X), identity_op(("x",)), seed=2, tol=1e-12)
    assert rep.passed


def test_radon_type_sl2_triple():
    # ebar = -(u d^2 + 2(lam+1) d), fbar = u, hbar = -2(u d + (lam+1))
    lam = -1.5
    u = ("u",)
    ebar = make_op(u, {(2,): Monomial((1,), -1.0), (1,): ConstCoef(-2 * (lam + 1))})
    fbar = make_op(u, {(0,): Monomial((1,))})
    hbar = make_op(u, {(1,): Monomial((1,), -2.0), (0,): ConstCoef(-2 * (lam + 1))})
    checks = [
        (op_commutator(hbar, ebar), 2.0 * ebar, "h_e"),
        (op_commutator(hbar, fbar), -2.0 * fbar, "h_f"),
        (op_commutator(ebar, fbar), hbar, "e_f"),
    ]
    for got, want, lbl in checks:
        rep = op_equal(got, want, seed=5, tol=1e-10, label=lbl)
        assert rep.passed, (lbl, rep.max_residual)


def test_hbar_eigenfunctions():
    lam = 0.25
    hbar = make_op(("u",), {(1,): Monomial((1,), -2.0), (0,): ConstCoef(-2 * (lam + 1))})
    for n in (0, 1, 3):
        pt = (0.7 + 0.2j,)
        got = op_apply(hbar, Monomial((n,)), pt)
        assert got == pytest.approx(-2 * (n + lam + 1) * pt[0] ** n, rel=1e-12)


def test_op_apply_fractional_exponent():
    D = d_op(("w",), 0)
    pt = (2.0 + 0.0j,)
    got = op_apply(D, Monomial((1.5,)), pt)
    assert got == pytest.approx(1.5 * pt[0] ** 0.5, rel=1e-12)


def test_op_equal_detects_planted_discrepancy():
    A = make_op(("x",), {(1,): Monomial((1,))})
    B = A + d_op(("x",), 0, coeff=1e-4)
    rep = op_equal(A, B, seed=9, tol=1e-8)
    assert not rep.passed
    assert rep.max_residual > 1e-5


def test_variable_mismatch_raises():
    A = d_op(("x",), 0)
    B = d_op(("y",), 0)
    with pytest.raises(VariableMismatchError):
        op_compose(A, B)


def test_order_cap_raises():
    A = d_op(("x",), 0, power=5)
    with pytest.raises(OrderCapError):
        op_compose(A, A)


def test_cauchy_partial_exponential():
    fn = lambda pt: cmath.exp(2.0 * pt[0] + 0.5 * pt[1])
    pt = (0.3 + 0.1j, -0.2 + 0.4j)
    assert cauchy_partial(fn, pt, 0) == pytest.approx(2.0 * fn(pt), rel=1e-11)
    assert cauchy_partial(fn, pt, 1) == pytest.approx(0.5 * fn(pt), rel=1e-11)
    # one circle yields both orders of x^3 y^2 in x from the same 16 nodes
    mono = Monomial((3, 2))
    calls = []
    d1, d2 = cauchy_derivs(lambda p: calls.append(p) or mono(p), pt, (0,), (1, 2))
    assert len(calls) == 16
    assert d1 == pytest.approx(3 * pt[0] ** 2 * pt[1] ** 2, rel=1e-11)
    assert d2 == pytest.approx(6 * pt[0] * pt[1] ** 2, rel=1e-9)


def test_funccoef_partial_fallback_matches_analytic():
    c = FuncCoef(lambda pt: pt[0] ** 3 * cmath.cos(pt[1]))
    pt = (1.1 + 0.3j, 0.4 - 0.2j)
    want = 3 * pt[0] ** 2 * cmath.cos(pt[1])
    assert c.partial(0)(pt) == pytest.approx(want, rel=1e-10)


def test_polydisk_derivs_mixed_orders():
    fn = lambda pt: cmath.exp(pt[0]) * cmath.sin(pt[1])
    pt = (0.2 + 0.1j, 1.0 - 0.3j)
    d = polydisk_derivs(fn, pt, max_order=2)
    e, s, c = cmath.exp(pt[0]), cmath.sin(pt[1]), cmath.cos(pt[1])
    assert d[(0, 0)] == pytest.approx(e * s, rel=1e-11)
    assert d[(1, 0)] == pytest.approx(e * s, rel=1e-11)
    assert d[(0, 1)] == pytest.approx(e * c, rel=1e-11)
    assert d[(1, 1)] == pytest.approx(e * c, rel=1e-11)
    assert d[(2, 0)] == pytest.approx(e * s, rel=1e-11)
    assert d[(0, 2)] == pytest.approx(-e * s, rel=1e-11)


def tensor_polydisk_derivs(fn, point, max_order=2, radius=1e-2, nodes=12):
    """Reference: the tensor-grid Cauchy rule polydisk_derivs replaced.

    Each d^I with a active variables reads its own nodes^a grid,
    d^I f = I! / (nodes^a radius^|I|) sum f(x + radius rot) / rot^I, so a
    mixed partial never goes through a directional derivative.
    """
    point = tuple(point)
    n = len(point)
    roots = [cmath.exp(2j * math.pi * k / nodes) for k in range(nodes)]
    out = {}
    for I in itertools.product(range(max_order + 1), repeat=n):
        if sum(I) > max_order:
            continue
        active = [i for i in range(n) if I[i]]
        acc = 0j
        for combo in itertools.product(roots, repeat=len(active)):
            pt, w = list(point), 1
            for i, rot in zip(active, combo):
                pt[i] += radius * rot
                w *= rot ** I[i]
            acc += fn(tuple(pt)) / w
        fact = math.prod(math.factorial(k) for k in I)
        out[I] = acc * fact / (nodes ** len(active) * radius ** sum(I))
    return out


# exp(a.x) x_1^2 x_3 in four variables, with its derivatives in closed form
EXP_A = (0.7, -0.4 + 0.2j, 0.3, 1.1 - 0.5j)
EXP_MONO = (2, 0, 1, 0)


def exp_times_monomial(pt):
    return cmath.exp(sum(a * x for a, x in zip(EXP_A, pt))) * pt[0] ** 2 * pt[2]


def exp_times_monomial_deriv(pt, I):
    # Leibniz: d^I (g m) = sum_{K <= I} binom(I, K) a^(I-K) g d^K m
    g = cmath.exp(sum(a * x for a, x in zip(EXP_A, pt)))
    out = 0j
    for K in itertools.product(*(range(k + 1) for k in I)):
        term = g
        for a, x, e, i, k in zip(EXP_A, pt, EXP_MONO, I, K):
            if k > e:
                term = 0
                break
            term *= math.comb(i, k) * a ** (i - k) * math.perm(e, k) * x ** (e - k)
        out += term
    return out


def test_polarized_derivs_match_the_tensor_reference():
    pt = (0.9 + 0.2j, 1.3 - 0.1j, -0.6 + 0.4j, 0.5 + 0.5j)
    pol = polydisk_derivs(exp_times_monomial, pt, max_order=2)
    ten = tensor_polydisk_derivs(exp_times_monomial, pt, max_order=2)
    assert set(pol) == set(ten) and len(pol) == 15
    for I in pol:
        exact = exp_times_monomial_deriv(pt, I)
        scale = max(1.0, abs(exact))
        assert abs(pol[I] - ten[I]) <= 1e-9 * scale, I
        assert abs(pol[I] - exact) <= 1e-9 * scale, I
        assert abs(ten[I] - exact) <= 1e-9 * scale, I


def test_polydisk_derivs_cost():
    # 1 + 4 axis circles + 6 pair circles of 12 nodes; the tensor grids took 913
    calls = []
    polydisk_derivs(lambda p: calls.append(p) or exp_times_monomial(p),
                    (0.9, 1.3, -0.6, 0.5), max_order=2)
    assert len(calls) == 121


def test_pullback_scaling_chart():
    # x d/dx under y = x^2 becomes 2 y d/dy
    chart = CoordinateMap(
        forward=lambda pt: (pt[0] ** 2,),
        inverse=lambda pt: (cmath.sqrt(pt[0]),),
        jacobian=lambda pt: [[2.0 * pt[0]]],
    )
    A = make_op(("x",), {(1,): Monomial((1,))})
    moved = op_pullback(A, chart, ("y",))
    want = make_op(("y",), {(1,): Monomial((1,), 2.0)})
    rep = op_equal(moved, want, seed=4, tol=1e-8)
    assert rep.passed, rep.max_residual


def test_pullback_second_order():
    # d^2/dx^2 under y = 2x: becomes 4 d^2/dy^2
    chart = CoordinateMap(
        forward=lambda pt: (2.0 * pt[0],),
        inverse=lambda pt: (0.5 * pt[0],),
        jacobian=lambda pt: [[2.0]],
    )
    A = d_op(("x",), 0, power=2)
    moved = op_pullback(A, chart, ("y",))
    want = d_op(("y",), 0, coeff=4.0, power=2)
    rep = op_equal(moved, want, seed=6, tol=1e-8)
    assert rep.passed, rep.max_residual


def test_eval_terms_snapshot():
    A = make_op(("x",), {(1,): Monomial((2,), 3.0)})
    snap = eval_terms(A, (2.0,))
    assert snap == {(1,): pytest.approx(12.0)}


def test_monomials_up_to_counts():
    assert len(monomials_up_to(2, 2)) == 6  # 1, x, y, x^2, xy, y^2


def test_report_fields_round():
    rep = op_equal(zero_op(("x",)), zero_op(("x",)), seed=12, label="zero", anchor="algebra basics")
    assert rep.passed and rep.samples == 8 and rep.label == "zero"
    assert rep.anchor == "algebra basics"
